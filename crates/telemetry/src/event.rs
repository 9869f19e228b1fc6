//! The event model.
//!
//! A [`TraceEvent`] is one timestamped fact about the system. Spans are
//! not stored as objects: a causal span is the pair of
//! `trace.start`/`trace.end` events whose fields carry the same `trace`
//! and `span` coordinates (or a `net.send` and its matching delivery),
//! and [`crate::trace`] reconstructs the span DAG from the event stream.
//! This keeps the recorder interface to a single method and makes the
//! JSONL export self-contained.

use peertrust_crypto::Tick;

/// A typed field value.
#[derive(Clone, PartialEq, Debug, serde::Serialize, serde::Deserialize)]
pub enum Value {
    U64(u64),
    I64(i64),
    Bool(bool),
    Str(String),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => f.write_str(v),
        }
    }
}

/// One key/value pair attached to an event.
#[derive(Clone, PartialEq, Debug, serde::Serialize, serde::Deserialize)]
pub struct Field {
    pub key: String,
    pub value: Value,
}

impl Field {
    pub fn u64(key: &str, value: u64) -> Field {
        Field {
            key: key.to_string(),
            value: Value::U64(value),
        }
    }

    pub fn i64(key: &str, value: i64) -> Field {
        Field {
            key: key.to_string(),
            value: Value::I64(value),
        }
    }

    pub fn bool(key: &str, value: bool) -> Field {
        Field {
            key: key.to_string(),
            value: Value::Bool(value),
        }
    }

    pub fn str(key: &str, value: impl Into<String>) -> Field {
        Field {
            key: key.to_string(),
            value: Value::Str(value.into()),
        }
    }
}

/// One structured event.
#[derive(Clone, PartialEq, Debug, serde::Serialize, serde::Deserialize)]
pub struct TraceEvent {
    /// Global sequence number: the total order across layers.
    pub seq: u64,
    /// Domain time — the simulated network tick where one exists, 0 in
    /// purely local layers.
    pub at: Tick,
    /// Negotiation this event belongs to (0 = none).
    pub negotiation: u64,
    /// What happened: `trace.start`, `net.send`, `negotiation.refusal`, ...
    pub kind: String,
    pub fields: Vec<Field>,
}

impl TraceEvent {
    /// The value of field `key`, if present.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|f| f.key == key).map(|f| &f.value)
    }

    /// String value of field `key`, if present and a string.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        match self.field(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Unsigned value of field `key`, if present and numeric.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        match self.field(key) {
            Some(Value::U64(v)) => Some(*v),
            Some(Value::I64(v)) => u64::try_from(*v).ok(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceEvent {
        TraceEvent {
            seq: 3,
            at: 12,
            negotiation: 7,
            kind: "net.send".into(),
            fields: vec![
                Field::str("from", "Alice"),
                Field::str("to", "E-Learn"),
                Field::u64("bytes", 211),
                Field::bool("ok", true),
                Field::i64("delta", -4),
            ],
        }
    }

    #[test]
    fn field_accessors() {
        let e = sample();
        assert_eq!(e.str_field("from"), Some("Alice"));
        assert_eq!(e.u64_field("bytes"), Some(211));
        assert_eq!(e.field("ok"), Some(&Value::Bool(true)));
        assert_eq!(e.field("missing"), None);
        assert_eq!(e.u64_field("delta"), None); // negative
    }

    #[test]
    fn json_roundtrip() {
        let e = sample();
        let json = serde_json::to_string(&e).unwrap();
        let back: TraceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::U64(5).to_string(), "5");
        assert_eq!(Value::Str("x".into()).to_string(), "x");
        assert_eq!(Value::Bool(false).to_string(), "false");
        assert_eq!(Value::I64(-2).to_string(), "-2");
    }
}
