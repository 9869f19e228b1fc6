//! Recorder sinks.
//!
//! A [`Recorder`] receives every [`TraceEvent`] the pipeline emits. Two
//! sinks are provided: an in-memory [`RingBuffer`] (bounded, oldest-first
//! eviction — the default for tests and interactive inspection) and a
//! [`JsonlWriter`] streaming one JSON object per line to any `io::Write`
//! (the archival/offline-analysis format; each line parses back into a
//! [`TraceEvent`] with `serde_json`).

use crate::event::TraceEvent;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::Write;

/// A sink for trace events. Implementations must be cheap enough to sit on
/// the negotiation path and safe to share across peer threads.
pub trait Recorder: Send + Sync {
    /// Accept one event.
    fn record(&self, event: TraceEvent);

    /// Flush buffered output (default: nothing to flush).
    fn flush(&self) {}
}

/// Discards everything. [`crate::Telemetry::disabled`] short-circuits
/// before events are even constructed; this sink exists for measuring the
/// cost of event construction itself (the telemetry overhead bench).
#[derive(Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn record(&self, _event: TraceEvent) {}
}

struct RingInner {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// Bounded in-memory buffer: keeps the most recent `capacity` events,
/// counting evictions.
pub struct RingBuffer {
    capacity: usize,
    inner: Mutex<RingInner>,
}

impl RingBuffer {
    pub fn new(capacity: usize) -> RingBuffer {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        RingBuffer {
            capacity,
            inner: Mutex::new(RingInner {
                events: VecDeque::with_capacity(capacity),
                dropped: 0,
            }),
        }
    }

    /// Copy out the buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.lock().events.iter().cloned().collect()
    }

    /// How many events were evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.lock().events.is_empty()
    }

    /// Drop all buffered events (the eviction counter is kept).
    pub fn clear(&self) {
        self.inner.lock().events.clear();
    }
}

impl Recorder for RingBuffer {
    fn record(&self, event: TraceEvent) {
        let mut inner = self.inner.lock();
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event);
    }
}

/// Streams events as JSON Lines: one `serde_json` object per event per
/// line. Serialization errors are unrecoverable programming errors (every
/// event field type is serializable), so they panic.
pub struct JsonlWriter<W: Write + Send> {
    writer: Mutex<W>,
}

impl<W: Write + Send> JsonlWriter<W> {
    pub fn new(writer: W) -> JsonlWriter<W> {
        JsonlWriter {
            writer: Mutex::new(writer),
        }
    }

    /// Recover the underlying writer (flushing it first).
    pub fn into_inner(self) -> W {
        let mut w = self.writer.into_inner();
        let _ = w.flush();
        w
    }
}

impl<W: Write + Send> Recorder for JsonlWriter<W> {
    fn record(&self, event: TraceEvent) {
        let line = serde_json::to_string(&event).expect("events serialize");
        let mut w = self.writer.lock();
        // An I/O error on a telemetry sink must not abort a negotiation:
        // drop the event instead.
        let _ = writeln!(w, "{line}");
    }

    fn flush(&self) {
        let _ = self.writer.lock().flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Field;

    fn ev(seq: u64) -> TraceEvent {
        TraceEvent {
            seq,
            at: seq * 10,
            negotiation: 1,
            kind: "test".into(),
            fields: vec![Field::u64("n", seq)],
        }
    }

    #[test]
    fn ring_keeps_most_recent() {
        let ring = RingBuffer::new(3);
        for i in 0..5 {
            ring.record(ev(i));
        }
        let seqs: Vec<u64> = ring.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [2, 3, 4]);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.len(), 3);
        assert!(!ring.is_empty());
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 2, "eviction count survives clear");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = RingBuffer::new(0);
    }

    #[test]
    fn jsonl_writer_emits_one_line_per_event() {
        let sink = JsonlWriter::new(Vec::<u8>::new());
        sink.record(ev(1));
        sink.record(ev(2));
        sink.flush();
        let out = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            let back: TraceEvent = serde_json::from_str(line).unwrap();
            assert_eq!(back, ev(i as u64 + 1));
        }
    }

    #[test]
    fn recorders_are_shareable_across_threads() {
        let ring = std::sync::Arc::new(RingBuffer::new(1024));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        ring.record(ev(t * 100 + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ring.len(), 400);
    }
}
