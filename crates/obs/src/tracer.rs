//! The tracing core: a ring buffer of typed records, the one store of a
//! trace, and a shareable null-checked handle.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::event::{self, TraceEvent, TraceRecord};

/// The tracer: stamps events with sequence numbers and keeps them in its
/// ring buffer. [`Tracer::default`] keeps every record (its ring never
/// fills); [`Tracer::new`] keeps the newest `capacity`. Callers read the
/// records after the run ([`Tracer::records`], [`Tracer::to_jsonl`]).
///
/// Overflow policy: the *oldest* record is dropped and counted — a
/// post-mortem ring always holds the most recent history, which is the
/// part that explains a failure.
pub struct Tracer {
    capacity: usize,
    buf: VecDeque<TraceRecord>,
    dropped: u64,
    seq: u64,
    filter: Option<fn(&TraceEvent) -> bool>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("capacity", &self.capacity)
            .field("len", &self.buf.len())
            .field("dropped", &self.dropped)
            .field("seq", &self.seq)
            .finish()
    }
}

impl Default for Tracer {
    /// A tracer that keeps the whole stream.
    fn default() -> Self {
        Self::new(usize::MAX)
    }
}

impl Tracer {
    /// A tracer whose ring keeps the newest `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        Tracer {
            capacity: capacity.max(1),
            buf: VecDeque::new(),
            dropped: 0,
            seq: 0,
            filter: None,
        }
    }

    /// Installs an event filter: records whose event fails the predicate
    /// are neither buffered nor counted (useful to keep golden traces
    /// free of per-TCK noise).
    pub fn set_filter(&mut self, keep: fn(&TraceEvent) -> bool) {
        self.filter = Some(keep);
    }

    /// Records an event stamped with `cycle`.
    pub fn record(&mut self, cycle: u64, event: TraceEvent) {
        if let Some(keep) = self.filter {
            if !keep(&event) {
                return;
            }
        }
        let rec = TraceRecord {
            seq: self.seq,
            cycle,
            event,
        };
        self.seq += 1;
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec);
    }

    /// The buffered records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// The buffered records as JSON Lines, oldest first.
    pub fn to_jsonl(&self) -> String {
        event::to_jsonl(&self.buf)
    }

    /// Records dropped from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total records accepted (buffered + dropped).
    pub fn total(&self) -> u64 {
        self.seq
    }
}

/// A cheap, cloneable, null-checked handle to a shared [`Tracer`].
///
/// The default handle is a no-op: every instrumentation point in the
/// workspace costs exactly one `Option` check when tracing is off, and
/// event construction itself never allocates (see [`TraceEvent`]).
#[derive(Clone, Default)]
pub struct TraceHandle(Option<Arc<Mutex<Tracer>>>);

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TraceHandle({})",
            if self.0.is_some() { "on" } else { "off" }
        )
    }
}

impl TraceHandle {
    /// The disabled handle (same as `Default`).
    pub fn none() -> Self {
        TraceHandle(None)
    }

    /// Wraps a tracer for sharing across layers.
    pub fn new(tracer: Tracer) -> Self {
        TraceHandle(Some(Arc::new(Mutex::new(tracer))))
    }

    /// Whether events will be recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records an event (no-op when disabled).
    pub fn emit(&self, cycle: u64, event: TraceEvent) {
        if let Some(t) = &self.0 {
            if let Ok(mut t) = t.lock() {
                t.record(cycle, event);
            }
        }
    }

    /// Runs `f` against the tracer; `None` when disabled.
    pub fn with<R>(&self, f: impl FnOnce(&mut Tracer) -> R) -> Option<R> {
        let t = self.0.as_ref()?;
        let mut t = t.lock().ok()?;
        Some(f(&mut t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(operand: u64) -> TraceEvent {
        TraceEvent::BistCommand {
            kind: "run",
            operand,
        }
    }

    #[test]
    fn ring_overflow_keeps_newest_and_counts_drops() {
        let mut t = Tracer::new(4);
        for i in 0..10u64 {
            t.record(i, ev(i));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        assert_eq!(t.total(), 10);
        let cycles: Vec<u64> = t.records().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9], "newest records survive");
        let seqs: Vec<u64> = t.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn default_tracer_keeps_the_whole_stream() {
        let mut t = Tracer::default();
        for i in 0..10_000u64 {
            t.record(i, ev(i));
        }
        assert_eq!(t.len(), 10_000);
        assert_eq!(t.dropped(), 0);
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 10_000, "one line per record");
        assert!(jsonl
            .lines()
            .zip(t.records())
            .all(|(line, r)| line == r.to_json_line()));
    }

    #[test]
    fn enabled_handle_records_and_disabled_handle_records_nothing() {
        let h = TraceHandle::new(Tracer::default());
        h.emit(0, ev(0));
        assert_eq!(h.with(|t| t.total()), Some(1));

        let h = TraceHandle::none();
        assert!(!h.is_enabled());
        h.emit(0, ev(0));
        assert_eq!(h.with(|t| t.total()), None, "no tracer exists at all");
    }

    #[test]
    fn filter_drops_unwanted_events() {
        let mut t = Tracer::default();
        t.set_filter(|e| !matches!(e, TraceEvent::TapStateChange { .. }));
        t.record(
            0,
            TraceEvent::TapStateChange {
                from: "a",
                to: "b",
                tms: false,
                tdo: false,
            },
        );
        t.record(1, ev(0));
        assert_eq!(t.len(), 1);
        assert_eq!(t.total(), 1, "filtered events are not even counted");
    }
}
