//! PODEM: path-oriented decision making, on the nine-valued algebra.

use soctest_netlist::{GateKind, NetId, Netlist, NetlistError};

use soctest_fault::{Fault, FaultKind};

use crate::nine::V9;

/// Tuning knobs for [`Podem`].
#[derive(Debug, Clone)]
pub struct PodemConfig {
    /// Abandon a fault after this many backtracks (it is then counted as
    /// aborted, not untestable).
    pub max_backtracks: u32,
}

impl Default for PodemConfig {
    fn default() -> Self {
        PodemConfig { max_backtracks: 64 }
    }
}

/// A generated test cube: one assignment (or don't-care) per primary input
/// of the view, in [`Netlist::primary_inputs`] order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestCube {
    /// `Some(v)` = required value, `None` = don't care.
    pub assignments: Vec<Option<bool>>,
}

impl TestCube {
    /// Fills don't-cares with pseudo-random values from `seed`.
    pub fn fill_random(&self, seed: &mut u64) -> Vec<bool> {
        self.assignments
            .iter()
            .map(|a| {
                a.unwrap_or_else(|| {
                    *seed = crate::random::xorshift64(*seed);
                    *seed & 1 == 1
                })
            })
            .collect()
    }

    /// Number of specified (non-X) positions.
    pub fn specified(&self) -> usize {
        self.assignments.iter().filter(|a| a.is_some()).count()
    }
}

/// The PODEM test generator over a combinational view.
///
/// See the [crate example](crate).
#[derive(Debug)]
pub struct Podem<'a> {
    view: &'a Netlist,
    config: PodemConfig,
    order: Vec<NetId>,
    levels: Vec<u32>,
    pis: Vec<NetId>,
    pi_index: Vec<Option<u32>>,
    assignable: Vec<bool>,
    observe: Vec<NetId>,
    values: Vec<V9>,
    /// Statistics: faults aborted on the backtrack limit.
    aborted: u64,
}

impl<'a> Podem<'a> {
    /// Prepares a generator for a combinational view.
    ///
    /// # Errors
    ///
    /// Returns a levelization error for cyclic netlists.
    pub fn new(view: &'a Netlist, config: PodemConfig) -> Result<Self, NetlistError> {
        let order = view.levelize()?;
        let levels = view.levels()?;
        let pis = view.primary_inputs();
        let mut pi_index = vec![None; view.len()];
        for (i, &pi) in pis.iter().enumerate() {
            pi_index[pi.index()] = Some(i as u32);
        }
        let observe = view.primary_outputs();
        let n = view.len();
        let npis = pis.len();
        Ok(Podem {
            view,
            config,
            order,
            levels,
            pis,
            pi_index,
            assignable: vec![true; npis],
            observe,
            values: vec![V9::X; n],
            aborted: 0,
        })
    }

    /// Restricts which primary inputs the generator may assign (used by the
    /// time-frame-expansion flow, where the initial state is unknown and
    /// therefore unassignable).
    ///
    /// # Panics
    ///
    /// Panics if the mask length differs from the primary-input count.
    pub fn set_assignable(&mut self, mask: Vec<bool>) {
        assert_eq!(mask.len(), self.pis.len(), "assignable mask size");
        self.assignable = mask;
    }

    /// Overrides the observation nets (default: the view's primary outputs).
    pub fn set_observe(&mut self, nets: Vec<NetId>) {
        self.observe = nets;
    }

    /// Number of faults abandoned at the backtrack limit so far.
    pub fn aborted(&self) -> u64 {
        self.aborted
    }

    /// Attempts to generate a test cube for a stuck-at fault.
    ///
    /// Returns `None` when the fault is untestable within the backtrack
    /// budget (redundant faults and aborted faults are indistinguishable
    /// here; [`Podem::aborted`] counts the latter).
    ///
    /// # Panics
    ///
    /// Panics if called with a transition fault; transition coverage is
    /// obtained by replaying stuck-at cubes as launch/capture pairs (see
    /// `soctest-fault::CombFaultSim::run_transition`).
    pub fn generate(&mut self, fault: Fault) -> Option<TestCube> {
        assert!(
            fault.kind.is_stuck_at(),
            "PODEM targets stuck-at faults; transition tests reuse stuck-at cubes"
        );
        let stuck = fault.kind == FaultKind::Sa1;
        let site = fault.net;
        let npis = self.pis.len();
        let mut assign: Vec<Option<bool>> = vec![None; npis];
        // (pi, value, already flipped)
        let mut decisions: Vec<(usize, bool, bool)> = Vec::new();
        let mut backtracks = 0u32;

        loop {
            self.imply(&assign, site, stuck);
            if self
                .observe
                .iter()
                .any(|&o| self.values[o.index()].is_fault_visible())
            {
                return Some(TestCube {
                    assignments: assign,
                });
            }
            let next = self
                .objective(site, stuck)
                .and_then(|(net, val)| self.backtrace(net, val));
            match next {
                Some((pi, val)) if assign[pi].is_none() => {
                    assign[pi] = Some(val);
                    decisions.push((pi, val, false));
                }
                _ => {
                    // Backtrack.
                    loop {
                        match decisions.pop() {
                            None => return None,
                            Some((pi, val, flipped)) => {
                                assign[pi] = None;
                                if !flipped {
                                    backtracks += 1;
                                    if backtracks > self.config.max_backtracks {
                                        self.aborted += 1;
                                        return None;
                                    }
                                    assign[pi] = Some(!val);
                                    decisions.push((pi, !val, true));
                                    break;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Nine-valued implication: full forward evaluation with the fault
    /// injected at `site`.
    fn imply(&mut self, assign: &[Option<bool>], site: NetId, stuck: bool) {
        let pi_value = |pi: usize| match assign[pi] {
            Some(b) => V9::known(b),
            None => V9::X,
        };
        for (id, gate) in self.view.iter() {
            let v = match gate.kind {
                // An input outside every port cannot be assigned, so it
                // stays X like an unassignable one.
                GateKind::Input => {
                    self.pi_index[id.index()].map_or(V9::X, |pi| pi_value(pi as usize))
                }
                GateKind::Const0 => V9::ZERO,
                GateKind::Const1 => V9::ONE,
                // Combinational views should not contain flip-flops; if one
                // slips through, hold it at 0 like the fault simulators do.
                GateKind::Dff => V9::ZERO,
                _ => V9::X,
            };
            let v = if id == site && gate.kind.is_source() {
                v.with_faulty(stuck)
            } else {
                v
            };
            self.values[id.index()] = v;
        }
        for i in 0..self.order.len() {
            let id = self.order[i];
            let gate = self.view.gate(id);
            let p = |i: usize| self.values[gate.pins[i].index()];
            let mut v = match gate.kind {
                GateKind::Buf => p(0),
                GateKind::Not => p(0).not(),
                GateKind::And => p(0).and(p(1)),
                GateKind::Nand => p(0).and(p(1)).not(),
                GateKind::Or => p(0).or(p(1)),
                GateKind::Nor => p(0).or(p(1)).not(),
                GateKind::Xor => p(0).xor(p(1)),
                GateKind::Xnor => p(0).xor(p(1)).not(),
                GateKind::Mux2 => V9::mux(p(0), p(1), p(2)),
                _ => continue,
            };
            if id == site {
                v = v.with_faulty(stuck);
            }
            self.values[id.index()] = v;
        }
    }

    /// Chooses the next objective: excite the fault, then advance the
    /// D-frontier.
    fn objective(&self, site: NetId, stuck: bool) -> Option<(NetId, bool)> {
        let sv = self.values[site.index()];
        match sv.good_known() {
            None => return Some((site, !stuck)),
            Some(g) if g == stuck => return None, // excitation conflict
            Some(_) => {}
        }
        // Fault excited; find the lowest-level D-frontier gate.
        let mut best: Option<(u32, NetId)> = None;
        for (id, gate) in self.view.iter() {
            if gate.kind.is_source() {
                continue;
            }
            let out = self.values[id.index()];
            if out.is_fault_visible() || !out.has_x() {
                continue;
            }
            let frontier = gate
                .pins
                .iter()
                .any(|&p| self.values[p.index()].is_fault_visible());
            if frontier {
                let lvl = self.levels[id.index()];
                if best.is_none_or(|(bl, _)| lvl < bl) {
                    best = Some((lvl, id));
                }
            }
        }
        let (_, gid) = best?;
        let gate = self.view.gate(gid);
        let x_pin = |want_low_level: bool| {
            let mut cands: Vec<NetId> = gate
                .pins
                .iter()
                .copied()
                .filter(|&p| self.values[p.index()].good_known().is_none())
                .collect();
            cands.sort_by_key(|p| self.levels[p.index()]);
            if want_low_level {
                cands.first().copied()
            } else {
                cands.last().copied()
            }
        };
        match gate.kind {
            GateKind::And | GateKind::Nand => x_pin(false).map(|p| (p, true)),
            GateKind::Or | GateKind::Nor => x_pin(false).map(|p| (p, false)),
            GateKind::Xor | GateKind::Xnor => x_pin(true).map(|p| (p, false)),
            GateKind::Mux2 => {
                let sel = gate.pins[0];
                let a = gate.pins[1];
                let b = gate.pins[2];
                if self.values[a.index()].is_fault_visible() {
                    Some((sel, false))
                } else if self.values[b.index()].is_fault_visible() {
                    Some((sel, true))
                } else {
                    // Fault on select: make the data inputs differ.
                    if self.values[a.index()].good_known().is_none() {
                        Some((a, true))
                    } else if self.values[b.index()].good_known().is_none() {
                        let av = self.values[a.index()].good_known().unwrap_or(true);
                        Some((b, !av))
                    } else {
                        None
                    }
                }
            }
            _ => None,
        }
    }

    /// Walks an objective back to an assignable primary input.
    fn backtrace(&self, mut net: NetId, mut val: bool) -> Option<(usize, bool)> {
        loop {
            if let Some(pi) = self.pi_index[net.index()] {
                let pi = pi as usize;
                if self.assignable[pi] && self.values[net.index()].good_known().is_none() {
                    return Some((pi, val));
                }
                return None;
            }
            let gate = self.view.gate(net);
            let x_pin = |want_low_level: bool| {
                let mut cands: Vec<NetId> = gate
                    .pins
                    .iter()
                    .copied()
                    .filter(|&p| self.values[p.index()].good_known().is_none())
                    .collect();
                cands.sort_by_key(|p| self.levels[p.index()]);
                if want_low_level {
                    cands.first().copied()
                } else {
                    cands.last().copied()
                }
            };
            match gate.kind {
                GateKind::Buf => net = gate.pins[0],
                GateKind::Not => {
                    net = gate.pins[0];
                    val = !val;
                }
                GateKind::And | GateKind::Nand => {
                    let inv = gate.kind == GateKind::Nand;
                    let want = val ^ inv; // required AND-function value
                    let pick = if want {
                        x_pin(false)? // all inputs must be 1: hardest first
                    } else {
                        x_pin(true)? // one controlling 0 suffices: easiest
                    };
                    net = pick;
                    val = want;
                }
                GateKind::Or | GateKind::Nor => {
                    let inv = gate.kind == GateKind::Nor;
                    let want = val ^ inv; // required OR-function value
                    let pick = if want { x_pin(true)? } else { x_pin(false)? };
                    net = pick;
                    val = want;
                }
                GateKind::Xor | GateKind::Xnor => {
                    let inv = gate.kind == GateKind::Xnor;
                    let pick = x_pin(true)?;
                    let other = gate
                        .pins
                        .iter()
                        .copied()
                        .find(|&p| p != pick)
                        .map(|p| self.values[p.index()].good_known().unwrap_or(false))
                        .unwrap_or(false);
                    net = pick;
                    val = val ^ inv ^ other;
                }
                GateKind::Mux2 => {
                    let sel = self.values[gate.pins[0].index()].good_known();
                    match sel {
                        Some(false) => net = gate.pins[1],
                        Some(true) => net = gate.pins[2],
                        None => {
                            net = gate.pins[0];
                            val = false;
                        }
                    }
                }
                GateKind::Const0 | GateKind::Const1 | GateKind::Dff | GateKind::Input => {
                    return None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_fault::{CombFaultSim, FaultUniverse, PatternSet};
    use soctest_netlist::ModuleBuilder;

    fn full_adder() -> Netlist {
        let mut mb = ModuleBuilder::new("fa");
        let a = mb.input("a");
        let b = mb.input("b");
        let cin = mb.input("cin");
        let ab = mb.xor(a, b);
        let s = mb.xor(ab, cin);
        let m1 = mb.and(a, b);
        let m2 = mb.and(ab, cin);
        let cout = mb.or(m1, m2);
        mb.output("s", s);
        mb.output("cout", cout);
        mb.finish().unwrap()
    }

    #[test]
    fn podem_covers_every_full_adder_fault() {
        let nl = full_adder();
        let u = FaultUniverse::stuck_at(&nl);
        let mut podem = Podem::new(u.view(), PodemConfig::default()).unwrap();
        let mut pats = PatternSet::new(u.view().primary_inputs().len());
        let mut seed = 42u64;
        for &f in u.faults() {
            let cube = podem
                .generate(f)
                .unwrap_or_else(|| panic!("fault {f} should be testable"));
            pats.push(&cube.fill_random(&mut seed));
        }
        let r = CombFaultSim::new(&u).run_stuck_at(&pats).unwrap();
        assert_eq!(r.coverage_percent(), 100.0);
        assert_eq!(podem.aborted(), 0);
    }

    #[test]
    fn podem_detects_redundant_fault() {
        // y = a AND (NOT a) is constant 0: y/sa0 is untestable.
        let mut mb = ModuleBuilder::new("red");
        let a = mb.input("a");
        let na = mb.not(a);
        let y = mb.and(a, na);
        mb.output("y", y);
        let nl = mb.finish().unwrap();
        let u = FaultUniverse::stuck_at(&nl);
        let mut podem = Podem::new(u.view(), PodemConfig::default()).unwrap();
        // The class representative may be a fanout-branch buffer; look the
        // class up through its members.
        let idx = (0..u.len())
            .find(|&i| {
                u.class(i)
                    .iter()
                    .any(|f| f.net == y && f.kind == soctest_fault::FaultKind::Sa0)
            })
            .unwrap();
        assert!(podem.generate(u.faults()[idx]).is_none());
    }

    #[test]
    fn unassignable_inputs_block_generation() {
        let mut mb = ModuleBuilder::new("blk");
        let a = mb.input("a");
        let b = mb.input("b");
        let y = mb.and(a, b);
        mb.output("y", y);
        let nl = mb.finish().unwrap();
        let u = FaultUniverse::stuck_at(&nl);
        let mut podem = Podem::new(u.view(), PodemConfig::default()).unwrap();
        podem.set_assignable(vec![true, false]);
        let sa0 = u
            .faults()
            .iter()
            .copied()
            .find(|f| f.net == y && f.kind == soctest_fault::FaultKind::Sa0)
            .unwrap();
        // y/sa0 needs b=1 but b is unassignable.
        assert!(podem.generate(sa0).is_none());
    }

    #[test]
    fn cube_random_fill_respects_assignments() {
        let cube = TestCube {
            assignments: vec![Some(true), None, Some(false)],
        };
        let mut seed = 7;
        let filled = cube.fill_random(&mut seed);
        assert!(filled[0]);
        assert!(!filled[2]);
        assert_eq!(cube.specified(), 2);
    }

    #[test]
    fn mux_heavy_circuit_is_testable() {
        let mut mb = ModuleBuilder::new("muxes");
        let sel = mb.input_bus("sel", 2);
        let d = mb.input_bus("d", 4);
        let opts: Vec<Vec<_>> = (0..4).map(|i| vec![d[i]]).collect();
        let y = mb.select(&sel, &opts);
        mb.output("y", y[0]);
        let nl = mb.finish().unwrap();
        let u = FaultUniverse::stuck_at(&nl);
        let mut podem = Podem::new(u.view(), PodemConfig::default()).unwrap();
        let mut pats = PatternSet::new(6);
        let mut seed = 3u64;
        let mut missing = 0;
        for &f in u.faults() {
            match podem.generate(f) {
                Some(c) => pats.push(&c.fill_random(&mut seed)),
                None => missing += 1,
            }
        }
        let r = CombFaultSim::new(&u).run_stuck_at(&pats).unwrap();
        assert!(
            r.coverage_percent() > 90.0,
            "coverage {:.1}%, {} unresolved",
            r.coverage_percent(),
            missing
        );
    }
}
