//! Fault universe construction: fanout-branch expansion, structural
//! equivalence collapsing, and the folded kernel the simulators run.

use std::sync::{Arc, OnceLock};

use soctest_netlist::{compile_folding, CompiledNetlist, GateKind, NetId, Netlist, NetlistError};

use crate::{Fault, FaultKind};

/// The set of faults targeted by a test campaign, together with the
/// *fault-view* netlist they live on.
///
/// # Fault view
///
/// Classical fault lists place faults on gate output *stems* and on every
/// fanout *branch* (gate input pin). The view gives each branch of a
/// multi-fanout net a net of its own — a buffer gate appended after the
/// original nets — so every classical fault site is some net of the view:
/// the view is functionally identical to the original (buffers are
/// transparent), original net ids are preserved, and ATPG, the reference
/// interpreter and [`FaultUniverse::describe`] work on it unchanged.
///
/// # Kernel
///
/// The simulators do not schedule those buffers. [`FaultUniverse::kernel`]
/// compiles the view with every branch buffer that feeds a combinational
/// gate folded away (see [`compile_folding`]): the sink pin reads the stem
/// and the branch net stays as a dead id, so fault indices and net ids do
/// not move. A fault on a folded branch is injected at its sink gate's pin,
/// with the stem's value as the branch's good value; a branch into a
/// flip-flop `d` pin stays a scheduled buffer.
///
/// # Collapsing
///
/// Structural equivalence collapsing is applied with the textbook rules
/// (AND: input sa0 ≡ output sa0; NAND: input sa0 ≡ output sa1; OR/NOR dual;
/// BUF/DFF identity; NOT inverts polarity), restricted to fanout-free
/// connections. One representative per class is simulated; detecting it
/// detects the whole class. Transition universes reuse the same classes
/// with `Sa0 → SlowToRise`, `Sa1 → SlowToFall` (the paper's tool reports
/// identical SAF/TDF fault counts, consistent with a shared universe; for
/// AND/OR-style rules this is the usual conditional-equivalence
/// approximation).
#[derive(Debug, Clone)]
pub struct FaultUniverse {
    view: Netlist,
    faults: Vec<Fault>,
    members: Vec<Vec<Fault>>,
    total_sites: usize,
    observe: Vec<NetId>,
    /// The first branch-buffer net: every view net from here on is one.
    first_branch: usize,
    /// The view's folded SoA kernel, built on first use and shared by
    /// every simulator (and worker thread) over this universe.
    kernel: OnceLock<Arc<CompiledNetlist>>,
}

/// Where a fault enters its universe's kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Site {
    /// The fault forces its own net: a source, or a scheduled gate's
    /// output.
    Net(u32),
    /// The fault sits on a folded fanout branch: it forces pin `slot` of
    /// the gate at schedule position `op`, a pin the kernel wires to the
    /// branch's stem.
    Pin {
        /// Schedule position of the sink gate.
        op: u32,
        /// The forced pin slot.
        slot: u8,
    },
}

impl Site {
    /// The net whose good value is the site's good value: the faulted net
    /// itself, or a folded branch's stem.
    #[inline]
    pub(crate) fn good_net(self, kernel: &CompiledNetlist) -> u32 {
        match self {
            Site::Net(net) => net,
            Site::Pin { op, slot } => kernel.op_pins(op as usize)[slot as usize],
        }
    }

    /// How many of `sites` are folded-branch pins.
    pub(crate) fn count_pins(sites: &[Site]) -> u64 {
        sites
            .iter()
            .filter(|s| matches!(s, Site::Pin { .. }))
            .count() as u64
    }
}

impl FaultUniverse {
    /// Builds the collapsed stuck-at universe for `netlist`.
    pub fn stuck_at(netlist: &Netlist) -> Self {
        Self::build(netlist, true)
    }

    /// Builds the collapsed transition-delay universe for `netlist`.
    pub fn transition(netlist: &Netlist) -> Self {
        Self::build(netlist, false)
    }

    fn build(netlist: &Netlist, stuck_at: bool) -> Self {
        let view = expand_fanout(netlist);
        let first_branch = netlist.len();
        let eligible: Vec<bool> = view
            .gates()
            .iter()
            .map(|g| !matches!(g.kind, GateKind::Const0 | GateKind::Const1))
            .collect();
        let n = view.len();
        let mut uf = UnionFind::new(2 * n);
        let fanout_count = {
            let mut c = vec![0u32; n];
            for gate in view.gates() {
                for &p in &gate.pins {
                    c[p.index()] += 1;
                }
            }
            c
        };
        // id(net, polarity): polarity 0 = sa0-family, 1 = sa1-family.
        let fid = |net: NetId, pol: bool| net.index() * 2 + pol as usize;
        for (out, gate) in view.iter() {
            let single = |p: NetId| fanout_count[p.index()] == 1 && eligible[p.index()];
            match gate.kind {
                GateKind::Buf | GateKind::Dff => {
                    let a = gate.pins[0];
                    if single(a) {
                        uf.union(fid(a, false), fid(out, false));
                        uf.union(fid(a, true), fid(out, true));
                    }
                }
                GateKind::Not => {
                    let a = gate.pins[0];
                    if single(a) {
                        uf.union(fid(a, false), fid(out, true));
                        uf.union(fid(a, true), fid(out, false));
                    }
                }
                GateKind::And | GateKind::Nand => {
                    let out_pol = gate.kind == GateKind::Nand;
                    for &p in &gate.pins {
                        if single(p) {
                            uf.union(fid(p, false), fid(out, out_pol));
                        }
                    }
                }
                GateKind::Or | GateKind::Nor => {
                    let out_pol = gate.kind == GateKind::Or;
                    for &p in &gate.pins {
                        if single(p) {
                            uf.union(fid(p, true), fid(out, out_pol));
                        }
                    }
                }
                _ => {}
            }
        }
        // Group faults by root. Each class's representative is the member
        // with the largest net id (downstream-most, since branch buffers and
        // outputs are appended after their drivers); members arrive in net
        // order, so that is the latest one.
        let mut class_of_root: Vec<Option<usize>> = vec![None; 2 * n];
        let mut members: Vec<Vec<Fault>> = Vec::new();
        let mut faults: Vec<Fault> = Vec::new();
        let mut total_sites = 0usize;
        for (net_idx, &ok) in eligible.iter().enumerate().take(n) {
            if !ok {
                continue;
            }
            for pol in [false, true] {
                total_sites += 1;
                let id = net_idx * 2 + pol as usize;
                let root = uf.find(id);
                let base = if stuck_at {
                    FaultKind::Sa0
                } else {
                    FaultKind::SlowToRise
                };
                let fault = Fault::new(NetId(net_idx as u32), base.with_polarity(pol));
                let class = *class_of_root[root].get_or_insert_with(|| {
                    members.push(Vec::new());
                    faults.push(fault);
                    members.len() - 1
                });
                members[class].push(fault);
                faults[class] = fault;
            }
        }
        let observe = view.primary_outputs();
        FaultUniverse {
            view,
            faults,
            members,
            total_sites,
            observe,
            first_branch,
            kernel: OnceLock::new(),
        }
    }

    /// The fault-view netlist (original plus fanout-branch buffers).
    pub fn view(&self) -> &Netlist {
        &self.view
    }

    /// The view's compiled SoA kernel with its combinational branch
    /// buffers folded away (see the [type docs](Self)), compiled on first
    /// call and cached — repeated campaigns and worker threads all share
    /// the same `Arc`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the view is cyclic
    /// (it never is for views built from a valid netlist).
    pub fn kernel(&self) -> Result<Arc<CompiledNetlist>, NetlistError> {
        if let Some(k) = self.kernel.get() {
            return Ok(Arc::clone(k));
        }
        let first_branch = self.first_branch;
        let k = compile_folding(&self.view, |net| net.index() >= first_branch)?;
        Ok(Arc::clone(self.kernel.get_or_init(|| k)))
    }

    /// Where each fault enters `kernel` — this universe's
    /// [`FaultUniverse::kernel`] — aligned with [`FaultUniverse::faults`].
    pub(crate) fn sites(&self, kernel: &CompiledNetlist) -> Vec<Site> {
        // Where a folded branch fed its sink, the view's pin is the branch
        // and the kernel's is the stem.
        let mut pin_of = vec![None; kernel.nets()];
        for op in 0..kernel.ops() {
            let pins = &self.view.gate(NetId(kernel.op_out(op))).pins;
            for (slot, (branch, wired)) in pins.iter().zip(kernel.op_pins(op)).enumerate() {
                if branch.0 != wired {
                    pin_of[branch.index()] = Some(Site::Pin {
                        op: op as u32,
                        slot: slot as u8,
                    });
                }
            }
        }
        self.faults
            .iter()
            .map(|f| pin_of[f.net.index()].unwrap_or(Site::Net(f.net.0)))
            .collect()
    }

    /// Collapsed representative faults, one per equivalence class.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of collapsed faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of fault sites before collapsing.
    pub fn total_sites(&self) -> usize {
        self.total_sites
    }

    /// Collapse ratio (collapsed / total), e.g. `0.6` means 40% removed.
    pub fn collapse_ratio(&self) -> f64 {
        if self.total_sites == 0 {
            return 1.0;
        }
        self.faults.len() as f64 / self.total_sites as f64
    }

    /// All members of the class represented by fault `index`.
    pub fn class(&self, index: usize) -> &[Fault] {
        &self.members[index]
    }

    /// Observation nets: the primary outputs of the view.
    pub fn observe_nets(&self) -> &[NetId] {
        &self.observe
    }

    /// Keeps a deterministic 1-in-`stride` sample of the collapsed faults
    /// (used to bound diagnosis experiments; class-size statistics on a
    /// uniform sample remain representative).
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn retain_sample(&mut self, stride: usize) {
        assert!(stride > 0, "stride must be positive");
        if stride == 1 {
            return;
        }
        let mut kept_faults = Vec::new();
        let mut kept_members = Vec::new();
        for (i, (&f, m)) in self.faults.iter().zip(&self.members).enumerate() {
            if i % stride == 0 {
                kept_faults.push(f);
                kept_members.push(m.clone());
            }
        }
        self.total_sites = kept_members.iter().map(Vec::len).sum();
        self.faults = kept_faults;
        self.members = kept_members;
    }

    /// Human-readable fault description using netlist labels.
    pub fn describe(&self, index: usize) -> String {
        let f = self.faults[index];
        format!("{} {}", self.view.describe(f.net), f.kind)
    }
}

/// Appends a transparent buffer for every branch of every multi-fanout net
/// (after the original nets, so their ids are kept) and rewires each
/// branch's sink pin to it.
fn expand_fanout(netlist: &Netlist) -> Netlist {
    let mut view = netlist.clone();
    view.set_name(format!("{}_fv", netlist.name()));
    let mut fanout_count = vec![0u32; netlist.len()];
    for gate in netlist.gates() {
        for &p in &gate.pins {
            fanout_count[p.index()] += 1;
        }
    }
    // Collect rewires first; mutating while iterating would invalidate ids.
    let mut rewires: Vec<(NetId, u8, NetId)> = Vec::new();
    for (sink, gate) in netlist.iter() {
        for (pin, &src) in gate.pins.iter().enumerate() {
            if fanout_count[src.index()] > 1 {
                let branch = view.add_gate(GateKind::Buf, vec![src]);
                view.set_label(branch, format!("{}.br{}", netlist.describe(src), pin));
                rewires.push((sink, pin as u8, branch));
            }
        }
    }
    for (sink, pin, branch) in rewires {
        view.set_pin(sink, pin, branch);
    }
    view
}

/// Minimal union-find with path compression.
#[derive(Debug)]
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        let mut cur = x;
        while cur != root {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra] = rb as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_netlist::ModuleBuilder;

    fn and_chain() -> Netlist {
        // out = (a AND b) AND c — fanout-free, heavy collapsing expected.
        let mut mb = ModuleBuilder::new("and3");
        let a = mb.input("a");
        let b = mb.input("b");
        let c = mb.input("c");
        let ab = mb.and(a, b);
        let abc = mb.and(ab, c);
        mb.output("y", abc);
        mb.finish().unwrap()
    }

    #[test]
    fn fanout_free_netlist_gains_no_buffers() {
        let nl = and_chain();
        let u = FaultUniverse::stuck_at(&nl);
        assert_eq!(u.view().len(), nl.len());
    }

    #[test]
    fn and_chain_collapses_sa0s() {
        let nl = and_chain();
        let u = FaultUniverse::stuck_at(&nl);
        // Uncollapsed: 5 nets * 2 = 10. sa0 faults of a, b, ab, c, abc all
        // merge into one class; sa1 faults stay separate (5 classes).
        assert_eq!(u.total_sites(), 10);
        assert_eq!(u.len(), 6);
        let big = (0..u.len()).map(|i| u.class(i).len()).max().unwrap();
        assert_eq!(big, 5);
        assert!(u.collapse_ratio() < 1.0);
    }

    #[test]
    fn multi_fanout_adds_branches_and_blocks_collapse() {
        // y0 = a AND b, y1 = NOT a: `a` has fanout 2, so branch buffers
        // appear and `a`'s stem faults stay distinct from pin faults.
        let mut mb = ModuleBuilder::new("fan");
        let a = mb.input("a");
        let b = mb.input("b");
        let y0 = mb.and(a, b);
        let y1 = mb.not(a);
        mb.output("y0", y0);
        mb.output("y1", y1);
        let nl = mb.finish().unwrap();
        let u = FaultUniverse::stuck_at(&nl);
        assert_eq!(u.view().len(), nl.len() + 2, "two branch buffers");
        // Stem sa0 of `a` must not be equivalent to branch sa0.
        let stem_sa0 = u
            .faults()
            .iter()
            .enumerate()
            .filter(|(i, _)| u.class(*i).iter().any(|f| f.net == a))
            .count();
        assert!(stem_sa0 >= 2, "stem faults of a form their own classes");
    }

    #[test]
    fn transition_universe_mirrors_stuck_at() {
        let nl = and_chain();
        let saf = FaultUniverse::stuck_at(&nl);
        let tdf = FaultUniverse::transition(&nl);
        assert_eq!(saf.len(), tdf.len());
        assert!(tdf.faults().iter().all(|f| f.kind.is_transition()));
    }

    #[test]
    fn constants_carry_no_faults() {
        let mut mb = ModuleBuilder::new("c");
        let a = mb.input("a");
        let k = mb.constant(1, 1);
        let y = mb.and(a, k[0]);
        mb.output("y", y);
        let nl = mb.finish().unwrap();
        let u = FaultUniverse::stuck_at(&nl);
        assert!(u.faults().iter().all(|f| !matches!(
            u.view().gate(f.net).kind,
            GateKind::Const0 | GateKind::Const1
        )));
    }

    #[test]
    fn inverter_flips_polarity_in_class() {
        let mut mb = ModuleBuilder::new("inv");
        let a = mb.input("a");
        let y = mb.not(a);
        mb.output("y", y);
        let nl = mb.finish().unwrap();
        let u = FaultUniverse::stuck_at(&nl);
        // a/sa0 ≡ y/sa1 and a/sa1 ≡ y/sa0: 4 sites, 2 classes.
        assert_eq!(u.total_sites(), 4);
        assert_eq!(u.len(), 2);
        for i in 0..u.len() {
            let class = u.class(i);
            assert_eq!(class.len(), 2);
            assert_ne!(class[0].kind, class[1].kind);
        }
    }
}
