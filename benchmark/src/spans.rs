//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end, the span that was open when it
//! began (its parent), and the operation it belongs to. Self time — the
//! span's duration minus the time its child spans cover — is folded into a
//! per-name aggregate as each span closes, so per-layer metrics cover every
//! span even when only the first `cap` spans are kept for the JSONL file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span, as written to the span file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Sequence number, assigned when the span opened.
    pub id: u64,
    /// The enclosing span's id, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `robust.session`.
    pub name: &'static str,
    /// The operation (workload request) the span belongs to.
    pub op: u64,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// Totals over every closed span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time (duration not covered by child spans).
    pub self_ns: u64,
}

#[derive(Debug)]
struct Open {
    id: u64,
    name: &'static str,
    op: u64,
    start_ns: u64,
    child_ns: u64,
}

/// The span recorder. Disabled, `open` and `close` do nothing, so the
/// same code path serves the untraced and the traced run.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    stack: Vec<Open>,
    kept: Vec<Span>,
    cap: usize,
    dropped: u64,
    agg: BTreeMap<&'static str, Agg>,
}

impl Spans {
    /// A recorder keeping at most `cap` spans for the span file.
    pub fn new(enabled: bool, cap: usize) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            next_id: 0,
            stack: Vec::new(),
            kept: Vec::new(),
            cap,
            dropped: 0,
            agg: BTreeMap::new(),
        }
    }

    /// Turns recording on or off for spans opened from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span at the current time; returns its id.
    pub fn open(&mut self, name: &'static str, op: u64) -> u64 {
        if !self.enabled {
            return u64::MAX;
        }
        let t = self.now_ns();
        self.open_at(name, op, t)
    }

    /// Closes span `id` (the innermost open one) at the current time.
    pub fn close(&mut self, id: u64) {
        if id == u64::MAX {
            return;
        }
        let t = self.now_ns();
        self.close_at(id, t);
    }

    /// Opens a span at an explicit time.
    pub fn open_at(&mut self, name: &'static str, op: u64, start_ns: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            id,
            name,
            op,
            start_ns,
            child_ns: 0,
        });
        id
    }

    /// Closes span `id` at an explicit time. Spans close innermost first.
    pub fn close_at(&mut self, id: u64, end_ns: u64) {
        let open = self.stack.pop().expect("close without a matching open");
        assert_eq!(open.id, id, "spans must close innermost first");
        let dur = end_ns.saturating_sub(open.start_ns);
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        let agg = self.agg.entry(open.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        if self.kept.len() < self.cap {
            self.kept.push(Span {
                id: open.id,
                parent,
                name: open.name,
                op: open.op,
                start_ns: open.start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// The aggregate of every closed span named `name`.
    pub fn agg(&self, name: &str) -> Agg {
        self.agg.get(name).copied().unwrap_or_default()
    }

    /// The kept spans as JSON Lines: a header object, then one span per
    /// line in closing order.
    pub fn to_jsonl(&self, header: &str) -> String {
        let mut out = format!(
            "{{{header}, \"kept\": {}, \"dropped\": {}}}\n",
            self.kept.len(),
            self.dropped
        );
        for s in &self.kept {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"op\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true, 16);
        let p = s.open_at("parent", 0, 0);
        let a = s.open_at("child", 0, 10);
        s.close_at(a, 30);
        let b = s.open_at("child", 0, 40);
        s.close_at(b, 45);
        s.close_at(p, 100);
        assert_eq!(
            s.agg("parent"),
            Agg {
                count: 1,
                total_ns: 100,
                self_ns: 75
            }
        );
        assert_eq!(
            s.agg("child"),
            Agg {
                count: 2,
                total_ns: 25,
                self_ns: 25
            }
        );
        assert_eq!(s.kept[0].parent, Some(p));
        assert_eq!(s.kept[2].parent, None);
    }

    #[test]
    fn a_child_covering_its_whole_parent_leaves_no_self_time() {
        let mut s = Spans::new(true, 16);
        let p = s.open_at("parent", 3, 50);
        let c = s.open_at("child", 3, 50);
        let g = s.open_at("grandchild", 3, 60);
        s.close_at(g, 70);
        s.close_at(c, 90);
        s.close_at(p, 90);
        assert_eq!(s.agg("parent").self_ns, 0);
        assert_eq!(s.agg("parent").total_ns, 40);
        assert_eq!(s.agg("child").self_ns, 30);
        assert_eq!(s.agg("grandchild").self_ns, 10);
    }

    #[test]
    fn capped_spans_still_aggregate_and_disabled_spans_vanish() {
        let mut s = Spans::new(true, 1);
        for t in 0..3 {
            let id = s.open_at("op", t, t * 10);
            s.close_at(id, t * 10 + 5);
        }
        assert_eq!(s.agg("op").count, 3);
        assert_eq!(s.dropped, 2);
        assert_eq!(s.to_jsonl("\"w\": 1").lines().count(), 2);

        s.set_enabled(false);
        let id = s.open("off", 0);
        s.close(id);
        assert_eq!(s.agg("off").count, 0);
    }
}
