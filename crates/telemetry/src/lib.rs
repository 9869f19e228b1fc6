//! # peertrust-telemetry
//!
//! The observability layer for PeerTrust negotiations: a structured
//! event stream, a metrics registry of named counters and histograms, and
//! per-negotiation causal [`Trace`]s rebuilt from that stream.
//!
//! The 2004 prototype had no instrumentation beyond Prolog trace output;
//! every experiment figure in the paper is an aggregate the authors
//! computed by hand. This crate makes those aggregates — queries issued
//! and answered per peer, messages and payload bytes on the wire,
//! disclosures granted and refused by reason, SLD resolution steps,
//! negotiation rounds and simulated ticks — first-class, so experiment
//! tables are read off a registry instead of re-derived.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when off.** The default handle ([`Telemetry::disabled`])
//!    holds no allocation and every instrumentation site guards on
//!    [`Telemetry::enabled`], a null check. Hot paths (the SLD inner loop)
//!    accumulate into their existing counters and flush once per call.
//! 2. **Thread-safe.** [`Recorder`] implementations are `Send + Sync`;
//!    sinks lock internally. The same handle serves the deterministic
//!    [`SimNetwork`](../peertrust_net/sim/index.html) and the threaded
//!    crossbeam transport.
//! 3. **No external dependencies.** Like `peertrust_crypto::sha256`, the
//!    ring buffer, registry, and JSONL writer are hand-rolled on std.
//!
//! Time is the same [`Tick`] the crypto layer uses for credential validity
//! windows: instrumented layers stamp events with their domain clock (the
//! simulated network's tick where one exists), while a global sequence
//! number gives a total order across layers.

pub mod event;
pub mod metrics;
pub mod recorder;
pub mod trace;

pub use event::{Field, TraceEvent, Value};
pub use metrics::{HistogramSnapshot, Metrics, MetricsSnapshot};
pub use recorder::{JsonlWriter, NoopRecorder, Recorder, RingBuffer};
pub use trace::{critical_path_summary, to_chrome_json, CriticalPath, SpanKind, Trace, TraceSpan};

pub use peertrust_crypto::Tick;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Inner {
    recorder: Box<dyn Recorder>,
    metrics: Metrics,
    /// Global event sequence — the total order across layers.
    seq: AtomicU64,
}

/// A cloneable handle to one telemetry pipeline (recorder + metrics).
///
/// `Telemetry::disabled()` is the no-op default: no allocation, and
/// [`Telemetry::enabled`] is a null check, so instrumented code pays one
/// branch when telemetry is off.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// The no-op handle: records nothing, counts nothing.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// A live pipeline feeding `recorder`.
    pub fn with_recorder(recorder: Box<dyn Recorder>) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                recorder,
                metrics: Metrics::new(),
                seq: AtomicU64::new(1),
            })),
        }
    }

    /// A live pipeline backed by an in-memory ring buffer of `capacity`
    /// events. Returns the handle and the shared buffer for inspection.
    pub fn ring(capacity: usize) -> (Telemetry, Arc<RingBuffer>) {
        let ring = Arc::new(RingBuffer::new(capacity));
        let tele = Telemetry::with_recorder(Box::new(SharedRing(ring.clone())));
        (tele, ring)
    }

    /// The cheap guard every instrumentation site checks first.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The metrics registry, if enabled.
    pub fn metrics(&self) -> Option<&Metrics> {
        self.inner.as_deref().map(|i| &i.metrics)
    }

    /// Increment counter `name` by `by` (no-op when disabled).
    #[inline]
    pub fn incr(&self, name: &str, by: u64) {
        if let Some(inner) = self.inner.as_deref() {
            inner.metrics.incr(name, by);
        }
    }

    /// Record `value` into histogram `name` (no-op when disabled).
    #[inline]
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(inner) = self.inner.as_deref() {
            inner.metrics.observe(name, value);
        }
    }

    /// Emit one event. `negotiation` may be 0 ("none").
    pub fn event(&self, at: Tick, negotiation: u64, kind: &str, fields: Vec<Field>) {
        if let Some(inner) = self.inner.as_deref() {
            let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
            inner.recorder.record(TraceEvent {
                seq,
                at,
                negotiation,
                kind: kind.to_string(),
                fields,
            });
        }
    }

    /// Flush the underlying recorder (meaningful for buffered writers).
    pub fn flush(&self) {
        if let Some(inner) = self.inner.as_deref() {
            inner.recorder.flush();
        }
    }
}

/// Adapter: an `Arc<RingBuffer>` shared between the pipeline and the
/// inspecting test/bench code.
struct SharedRing(Arc<RingBuffer>);

impl Recorder for SharedRing {
    fn record(&self, event: TraceEvent) {
        self.0.record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.enabled());
        t.incr("x", 1);
        t.observe("y", 5);
        t.event(0, 0, "k", vec![]);
        assert!(t.metrics().is_none());
    }

    #[test]
    fn ring_pipeline_records_events_and_metrics() {
        let (t, ring) = Telemetry::ring(16);
        assert!(t.enabled());
        t.incr("queries", 2);
        t.incr("queries", 1);
        t.observe("depth", 4);
        t.event(
            10,
            7,
            "trace.start",
            vec![Field::str("name", "negotiation")],
        );
        t.event(11, 7, "query", vec![Field::u64("qid", 1)]);
        t.event(12, 7, "trace.end", vec![]);

        let events = ring.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, "trace.start");
        assert_eq!(events[1].kind, "query");
        assert_eq!(events[2].kind, "trace.end");
        // Same negotiation throughout, global sequence strictly increasing.
        assert!(events.iter().all(|e| e.negotiation == 7));
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));

        let m = t.metrics().unwrap().snapshot();
        assert_eq!(m.counters["queries"], 3);
        assert_eq!(m.histograms["depth"].count, 1);
        assert_eq!(m.histograms["depth"].max, 4);
    }
}
