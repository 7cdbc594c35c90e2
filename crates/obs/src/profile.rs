//! A zero-dependency hierarchical self-profiler.
//!
//! [`Profiler`] records wall time and domain counters (simulated cycles,
//! TCK, dies, faults) into a tree of named phases. Phase nesting comes
//! from [`Profiler::enter`] / [`Profiler::exit`] pairs — usually driven by
//! the RAII [`ProfileScope`] guard — and children keep first-encounter
//! order, so the *shape* of the tree is a pure function of the code path,
//! never of timing.
//!
//! Only the owning thread records. Parallel work is timed by the workers
//! themselves (one clock pair per unit of work) and recorded by the owner
//! afterwards with [`Profiler::record_ns`] in a deterministic order, so the
//! same seed and any worker count produce an identical
//! [`Profiler::fingerprint`] (tree shape, entry counts, and counter totals —
//! wall excluded, since wall is the one thing that legitimately varies).
//!
//! [`ProfileHandle`] is the shareable null-checked handle, mirroring
//! [`crate::TraceHandle`]: the default handle is disabled and every
//! instrumentation point costs exactly one `Option` check.
//!
//! Exports: [`Profiler::to_json`] for tooling and
//! [`Profiler::to_collapsed`] for flamegraph-compatible collapsed-stack
//! text (`a;b;c <self-µs>` per line).
//!
//! The module also hosts [`TraceSampler`]: a deterministic plan for
//! attaching the (comparatively expensive) [`crate::Tracer`] to a sampled
//! subset of a die population — every Nth die plus a first-K quota per
//! defect class so rare classes are always represented.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One phase node in the profile tree.
#[derive(Debug, Clone)]
struct Node {
    name: String,
    wall_ns: u64,
    entries: u64,
    counters: Vec<(String, u64)>,
    children: Vec<usize>,
}

impl Node {
    fn named(name: &str) -> Self {
        Node {
            name: name.to_owned(),
            wall_ns: 0,
            entries: 0,
            counters: Vec::new(),
            children: Vec::new(),
        }
    }
}

/// A hierarchical phase profiler: an arena of named nodes plus an enter
/// stack. See the [module docs](self) for the determinism contract.
#[derive(Debug, Clone)]
pub struct Profiler {
    nodes: Vec<Node>,
    stack: Vec<(usize, Instant)>,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// An empty profiler (just the implicit root).
    pub fn new() -> Self {
        Profiler {
            nodes: vec![Node::named("root")],
            stack: Vec::new(),
        }
    }

    fn current(&self) -> usize {
        self.stack.last().map_or(0, |&(i, _)| i)
    }

    fn child_of(&mut self, parent: usize, name: &str) -> usize {
        for &c in &self.nodes[parent].children {
            if self.nodes[c].name == name {
                return c;
            }
        }
        let c = self.nodes.len();
        self.nodes.push(Node::named(name));
        self.nodes[parent].children.push(c);
        c
    }

    /// Opens phase `name` under the current phase and starts its clock.
    pub fn enter(&mut self, name: &str) {
        let c = self.child_of(self.current(), name);
        self.stack.push((c, Instant::now()));
    }

    /// Closes the innermost open phase, accumulating its wall time. A
    /// stray `exit` with nothing open is ignored.
    pub fn exit(&mut self) {
        if let Some((i, t0)) = self.stack.pop() {
            self.nodes[i].wall_ns = self.nodes[i]
                .wall_ns
                .saturating_add(t0.elapsed().as_nanos() as u64);
            self.nodes[i].entries += 1;
        }
    }

    /// Records one entry of phase `name` (a child of the current phase)
    /// with an explicit duration — for callers that measured time
    /// themselves and want to avoid an extra `Instant` pair.
    pub fn record_ns(&mut self, name: &str, wall_ns: u64) {
        let c = self.child_of(self.current(), name);
        self.nodes[c].wall_ns = self.nodes[c].wall_ns.saturating_add(wall_ns);
        self.nodes[c].entries += 1;
    }

    /// Adds `delta` to counter `name` on the current phase.
    pub fn count(&mut self, name: &str, delta: u64) {
        let node = self.current();
        for slot in &mut self.nodes[node].counters {
            if slot.0 == name {
                slot.1 = slot.1.saturating_add(delta);
                return;
            }
        }
        self.nodes[node].counters.push((name.to_owned(), delta));
    }

    /// Total wall across the top-level phases (the root's direct
    /// children) — the number the "phases sum to ≥95 % of measured wall"
    /// acceptance check compares against an external stopwatch.
    pub fn total_wall_ns(&self) -> u64 {
        self.nodes[0]
            .children
            .iter()
            .map(|&c| self.nodes[c].wall_ns)
            .sum()
    }

    /// The wall time of top-level phase `name`, if present.
    pub fn phase_wall_ns(&self, name: &str) -> Option<u64> {
        self.nodes[0]
            .children
            .iter()
            .map(|&c| &self.nodes[c])
            .find(|n| n.name == name)
            .map(|n| n.wall_ns)
    }

    /// `(name, wall_ns, entries)` for each top-level phase, in tree order.
    pub fn phases(&self) -> Vec<(String, u64, u64)> {
        self.nodes[0]
            .children
            .iter()
            .map(|&c| {
                let n = &self.nodes[c];
                (n.name.clone(), n.wall_ns, n.entries)
            })
            .collect()
    }

    /// A deterministic digest of everything except wall time: tree shape
    /// (names, order), entry counts, and counter totals. Two runs with
    /// the same seed and any worker count must produce equal
    /// fingerprints.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        self.fingerprint_node(0, &mut out);
        out
    }

    fn fingerprint_node(&self, idx: usize, out: &mut String) {
        let n = &self.nodes[idx];
        out.push_str(&n.name);
        out.push_str(&format!("#{}", n.entries));
        if !n.counters.is_empty() {
            out.push('[');
            for (i, (k, v)) in n.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{k}={v}"));
            }
            out.push(']');
        }
        if !n.children.is_empty() {
            out.push('(');
            for (i, &c) in n.children.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                self.fingerprint_node(c, out);
            }
            out.push(')');
        }
    }

    /// Renders the profile tree as a JSON document (schema in
    /// DESIGN.md §15): each node is
    /// `{"name", "wall_ns", "entries", "counters": {...}, "children": [...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        self.json_node(0, 0, &mut out);
        out.push('\n');
        out
    }

    fn json_node(&self, idx: usize, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        let n = &self.nodes[idx];
        out.push_str(&format!(
            "{pad}{{\"name\": \"{}\", \"wall_ns\": {}, \"entries\": {}, \"counters\": {{",
            n.name, n.wall_ns, n.entries
        ));
        for (i, (k, v)) in n.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{k}\": {v}"));
        }
        out.push_str("}, \"children\": [");
        if n.children.is_empty() {
            out.push_str("]}");
            return;
        }
        out.push('\n');
        for (i, &c) in n.children.iter().enumerate() {
            self.json_node(c, indent + 1, out);
            if i + 1 < n.children.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str(&format!("{pad}]}}"));
    }

    /// Renders flamegraph-compatible collapsed-stack text: one line per
    /// phase with non-zero *self* time (wall minus children), formatted
    /// `phase;subphase <self-µs>`. Loadable by `flamegraph.pl` /
    /// `inferno` as plain text.
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        for &c in &self.nodes[0].children {
            self.collapsed_node(c, String::new(), &mut out);
        }
        out
    }

    fn collapsed_node(&self, idx: usize, prefix: String, out: &mut String) {
        let n = &self.nodes[idx];
        let path = if prefix.is_empty() {
            n.name.clone()
        } else {
            format!("{prefix};{}", n.name)
        };
        let child_wall: u64 = n.children.iter().map(|&c| self.nodes[c].wall_ns).sum();
        let self_us = n.wall_ns.saturating_sub(child_wall) / 1_000;
        if self_us > 0 || n.children.is_empty() {
            out.push_str(&format!("{path} {self_us}\n"));
        }
        for &c in &n.children {
            self.collapsed_node(c, path.clone(), out);
        }
    }
}

/// A cheap, cloneable, null-checked handle to a shared [`Profiler`],
/// mirroring [`crate::TraceHandle`]: the default handle is disabled and
/// every probe costs one `Option` check.
///
/// Phase scopes ([`ProfileHandle::scope`]) must nest on one owning thread;
/// worker threads do not record.
#[derive(Clone, Default)]
pub struct ProfileHandle(Option<Arc<Mutex<Profiler>>>);

impl fmt::Debug for ProfileHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ProfileHandle({})",
            if self.0.is_some() { "on" } else { "off" }
        )
    }
}

impl ProfileHandle {
    /// The disabled handle (same as `Default`).
    pub fn none() -> Self {
        ProfileHandle(None)
    }

    /// An enabled handle over a fresh profiler.
    pub fn enabled() -> Self {
        ProfileHandle(Some(Arc::new(Mutex::new(Profiler::new()))))
    }

    /// Whether phases will be recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Runs `f` against the profiler; `None` when disabled.
    pub fn with<R>(&self, f: impl FnOnce(&mut Profiler) -> R) -> Option<R> {
        let p = self.0.as_ref()?;
        let mut p = p.lock().ok()?;
        Some(f(&mut p))
    }

    /// Opens phase `name`; the returned guard closes it on drop.
    pub fn scope(&self, name: &'static str) -> ProfileScope {
        self.with(|p| p.enter(name));
        ProfileScope {
            handle: self.clone(),
        }
    }

    /// Adds `delta` to counter `name` on the current phase.
    pub fn count(&self, name: &str, delta: u64) {
        self.with(|p| p.count(name, delta));
    }

    /// Records one entry of phase `name` with an explicit duration.
    pub fn record_ns(&self, name: &str, wall_ns: u64) {
        self.with(|p| p.record_ns(name, wall_ns));
    }

    /// A point-in-time clone of the profiler; `None` when disabled.
    pub fn snapshot(&self) -> Option<Profiler> {
        self.with(|p| p.clone())
    }
}

/// Closes its phase on drop. Returned by [`ProfileHandle::scope`].
pub struct ProfileScope {
    handle: ProfileHandle,
}

impl Drop for ProfileScope {
    fn drop(&mut self) {
        self.handle.with(Profiler::exit);
    }
}

/// The per-die trace sampling policy: a stride plus a per-class quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerPolicy {
    /// Sample every `every`-th die (die indices `0, every, 2·every, …`);
    /// `0` disables the stride.
    pub every: u64,
    /// Always sample the first `class_quota` dies of each defect class,
    /// so rare classes (hung, stuck-at) are captured even when the
    /// stride would miss them; `0` disables quotas.
    pub class_quota: u64,
}

impl SamplerPolicy {
    /// A policy with the given stride and per-class quota.
    pub fn new(every: u64, class_quota: u64) -> Self {
        SamplerPolicy { every, class_quota }
    }

    /// Whether this policy can ever select a die.
    pub fn is_active(&self) -> bool {
        self.every > 0 || self.class_quota > 0
    }
}

/// A materialized, deterministic sampling plan over a die population.
///
/// Built by scanning `(die, class)` pairs *in die order* — the fleet's
/// defect draw is a pure function of `(seed, die)`, so the resulting
/// plan is seed-deterministic and independent of worker scheduling.
#[derive(Debug, Clone)]
pub struct TraceSampler {
    selected: Vec<u64>,
}

impl TraceSampler {
    /// Materializes the plan: die `d` of class `c` is selected when the
    /// stride hits it (`d % every == 0`) or it is among the first
    /// `class_quota` dies of class `c`. `classes` must be in ascending
    /// die order.
    pub fn plan<S: AsRef<str>>(
        policy: SamplerPolicy,
        classes: impl IntoIterator<Item = (u64, S)>,
    ) -> Self {
        let mut counts: HashMap<String, u64> = HashMap::new();
        let mut selected = Vec::new();
        for (die, class) in classes {
            let seen = counts.entry(class.as_ref().to_owned()).or_insert(0);
            let by_quota = *seen < policy.class_quota;
            *seen += 1;
            let by_stride = policy.every > 0 && die % policy.every == 0;
            if by_quota || by_stride {
                selected.push(die);
            }
        }
        selected.sort_unstable();
        selected.dedup();
        TraceSampler { selected }
    }

    /// Whether die `die` is in the plan.
    pub fn is_sampled(&self, die: u64) -> bool {
        self.selected.binary_search(&die).is_ok()
    }

    /// The selected die indices, ascending.
    pub fn sampled(&self) -> &[u64] {
        &self.selected
    }

    /// Number of selected dies.
    pub fn len(&self) -> usize {
        self.selected.len()
    }

    /// Whether the plan selects nothing.
    pub fn is_empty(&self) -> bool {
        self.selected.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_nest_into_a_tree() {
        let mut p = Profiler::new();
        p.enter("build");
        p.enter("compile");
        p.count("gates", 100);
        p.exit();
        p.enter("rehearse");
        p.exit();
        p.exit();
        p.enter("run");
        p.count("dies", 5);
        p.exit();
        let phases = p.phases();
        let names: Vec<&str> = phases.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, vec!["build", "run"]);
        let fp = p.fingerprint();
        assert!(
            fp.contains("build#1(compile#1[gates=100] rehearse#1)"),
            "{fp}"
        );
        assert!(fp.contains("run#1[dies=5]"), "{fp}");
    }

    #[test]
    fn reentering_a_phase_accumulates_instead_of_duplicating() {
        let mut p = Profiler::new();
        for _ in 0..3 {
            p.enter("phase");
            p.record_ns("sub", 1000);
            p.exit();
        }
        let phases = p.phases();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].2, 3, "three entries, one node");
        assert!(p.fingerprint().contains("phase#3(sub#3)"));
    }

    #[test]
    fn fingerprint_excludes_wall_time() {
        let mut a = Profiler::new();
        a.record_ns("phase", 1);
        let mut b = Profiler::new();
        b.record_ns("phase", 999_999);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.total_wall_ns(), b.total_wall_ns());
    }

    #[test]
    fn json_and_collapsed_render_the_tree() {
        let mut p = Profiler::new();
        p.enter("cache_build");
        p.record_ns("rehearse_golden", 2_000_000);
        p.record_ns("faulty_signatures", 3_000_000);
        p.exit();
        p.record_ns("simulate", 10_000_000);

        let json = p.to_json();
        assert!(json.contains("\"name\": \"cache_build\""));
        assert!(json.contains("\"name\": \"rehearse_golden\""));
        let parsed = crate::json::parse(&json).expect("profile JSON must parse");
        let children = parsed
            .get("children")
            .and_then(|c| c.as_array())
            .expect("root children");
        assert_eq!(children.len(), 2);

        let collapsed = p.to_collapsed();
        assert!(collapsed.contains("cache_build;rehearse_golden 2000\n"));
        assert!(collapsed.contains("cache_build;faulty_signatures 3000\n"));
        assert!(collapsed.contains("simulate 10000\n"));
        // Self time of cache_build is zero (all in children): no own line.
        assert!(!collapsed.contains("cache_build 0"));
    }

    #[test]
    fn top_level_wall_sums_children_of_root_only() {
        let mut p = Profiler::new();
        p.enter("a");
        p.record_ns("nested", 500);
        p.exit();
        p.record_ns("b", 2_000);
        // total = wall(a) + wall(b); nested is inside a, not double-counted.
        assert!(p.total_wall_ns() >= 2_000);
        assert_eq!(p.phase_wall_ns("b"), Some(2_000));
        assert!(p.phase_wall_ns("nested").is_none());
    }

    #[test]
    fn disabled_handle_is_a_no_op() {
        let h = ProfileHandle::none();
        assert!(!h.is_enabled());
        {
            let _s = h.scope("phase");
            h.count("dies", 1);
        }
        assert!(h.snapshot().is_none());
        assert_eq!(h.with(|p| p.phases().len()), None);
    }

    #[test]
    fn enabled_handle_records_scopes_and_counters() {
        let h = ProfileHandle::enabled();
        {
            let _outer = h.scope("outer");
            h.count("units", 2);
            {
                let _inner = h.scope("inner");
            }
        }
        let snap = h.snapshot().expect("enabled");
        assert!(snap.fingerprint().contains("outer#1[units=2](inner#1)"));
        assert!(snap.total_wall_ns() > 0);
    }

    #[test]
    fn sampler_stride_and_quota_compose() {
        // Dies 0..10: class pattern — die 3 and 7 are "hung", rest "clean".
        let classes: Vec<(u64, &str)> = (0..10)
            .map(|d| (d, if d == 3 || d == 7 { "hung" } else { "clean" }))
            .collect();
        let s = TraceSampler::plan(SamplerPolicy::new(5, 1), classes.clone());
        // Stride 5 → {0, 5}; quota 1 → first clean (0) + first hung (3).
        assert_eq!(s.sampled(), &[0, 3, 5]);
        assert!(s.is_sampled(3) && !s.is_sampled(7));

        let quota_only = TraceSampler::plan(SamplerPolicy::new(0, 2), classes.clone());
        assert_eq!(quota_only.sampled(), &[0, 1, 3, 7]);

        let off = TraceSampler::plan(SamplerPolicy::new(0, 0), classes);
        assert!(off.is_empty());
        assert!(!SamplerPolicy::new(0, 0).is_active());
    }
}
