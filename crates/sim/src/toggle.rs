//! Toggle-activity collection (the step-1 metric of the paper's Fig. 3).

use soctest_netlist::{NetId, Netlist};

/// Accumulates per-net activity while a simulation runs.
///
/// After sampling, [`ToggleMonitor::report`] gives the *toggle activity*:
/// the percentage of nets that were observed at both logic values — the
/// RTL-level confidence metric the paper pairs with statement coverage in
/// its first evaluation step.
///
/// When a run drives fewer than 64 lanes, restrict observation with
/// [`ToggleMonitor::with_lane_mask`] (as [`crate::VcdProbe`] selects its
/// lane): lanes that carry no stimulus hold their inputs at 0, so an
/// unmasked monitor spuriously records 0-observations — and transition
/// counts wherever idle-lane state still evolves — for nets the test
/// never actually exercised.
#[derive(Debug, Clone)]
pub struct ToggleMonitor {
    seen0: Vec<bool>,
    seen1: Vec<bool>,
    transitions: Vec<u64>,
    prev: Vec<u64>,
    samples: u64,
    lane_mask: u64,
}

impl ToggleMonitor {
    /// Creates a monitor sized for `netlist`, observing all 64 lanes.
    pub fn new(netlist: &Netlist) -> Self {
        ToggleMonitor::with_lane_mask(netlist, u64::MAX)
    }

    /// Creates a monitor observing only the lanes set in `mask` — use
    /// `(1 << n) - 1` when a run drives `n` lanes so idle lanes cannot
    /// pollute `seen0` or the transition counts.
    ///
    /// # Panics
    ///
    /// Panics if `mask` is zero (a monitor that observes nothing).
    pub fn with_lane_mask(netlist: &Netlist, mask: u64) -> Self {
        assert!(mask != 0, "lane mask must select at least one lane");
        let n = netlist.len();
        ToggleMonitor {
            seen0: vec![false; n],
            seen1: vec![false; n],
            transitions: vec![0; n],
            prev: vec![0; n],
            samples: 0,
            lane_mask: mask,
        }
    }

    /// The active lane mask.
    pub fn lane_mask(&self) -> u64 {
        self.lane_mask
    }

    /// Samples the full value buffer of a simulator after an evaluation.
    ///
    /// `values[net]` is the 64-lane word of each net; the masked-in lanes
    /// contribute to 0/1 observation, and their lane-wise flips against
    /// the previous sample contribute to the transition counts.
    pub fn sample(&mut self, values: &[u64]) {
        let mask = self.lane_mask;
        for (i, &w) in values.iter().enumerate() {
            if w & mask != 0 {
                self.seen1[i] = true;
            }
            if !w & mask != 0 {
                self.seen0[i] = true;
            }
            if self.samples > 0 {
                self.transitions[i] += ((w ^ self.prev[i]) & mask).count_ones() as u64;
            }
            self.prev[i] = w;
        }
        self.samples += 1;
    }

    /// Number of samples taken so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Whether a given net toggled (saw both values).
    pub fn toggled(&self, net: NetId) -> bool {
        self.seen0[net.index()] && self.seen1[net.index()]
    }

    /// Lane-wise transitions observed on a given net.
    pub fn transition_count(&self, net: NetId) -> u64 {
        self.transitions[net.index()]
    }

    /// Produces the aggregate report.
    pub fn report(&self) -> ToggleReport {
        let total = self.seen0.len();
        let toggled = (0..total)
            .filter(|&i| self.seen0[i] && self.seen1[i])
            .count();
        let stuck_at_0 = (0..total)
            .filter(|&i| self.seen0[i] && !self.seen1[i])
            .count();
        let stuck_at_1 = (0..total)
            .filter(|&i| !self.seen0[i] && self.seen1[i])
            .count();
        let transitions = self.transitions.iter().sum();
        ToggleReport {
            nets: total,
            toggled,
            never_high: stuck_at_0,
            never_low: stuck_at_1,
            transitions,
            samples: self.samples,
        }
    }

    /// Nets that never toggled, for designer feedback (paper §3.2: "redefine
    /// the Constraints Generator" when activity is too low).
    pub fn untoggled_nets(&self) -> Vec<NetId> {
        (0..self.seen0.len())
            .filter(|&i| !(self.seen0[i] && self.seen1[i]))
            .map(|i| NetId(i as u32))
            .collect()
    }

    /// Cold nets with the level they were stuck at: `(net, stuck_high)` —
    /// `true` when the net was only ever seen at 1, `false` when only at 0
    /// (or never observed at all). This is the signal a weighted-random
    /// constraint generator needs: a stuck-low net wants a *higher*
    /// 1-probability on the inputs of its cone, a stuck-high net a lower
    /// one.
    pub fn cold_polarity(&self) -> Vec<(NetId, bool)> {
        (0..self.seen0.len())
            .filter(|&i| !(self.seen0[i] && self.seen1[i]))
            .map(|i| (NetId(i as u32), self.seen1[i]))
            .collect()
    }
}

/// Aggregate toggle-activity numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ToggleReport {
    /// Total nets observed.
    pub nets: usize,
    /// Nets seen at both 0 and 1.
    pub toggled: usize,
    /// Nets only ever seen at 0.
    pub never_high: usize,
    /// Nets only ever seen at 1.
    pub never_low: usize,
    /// Total lane-wise value changes across all samples.
    pub transitions: u64,
    /// Number of samples contributing.
    pub samples: u64,
}

impl ToggleReport {
    /// Toggle activity as a percentage of all nets.
    pub fn activity_percent(&self) -> f64 {
        if self.nets == 0 {
            return 0.0;
        }
        100.0 * self.toggled as f64 / self.nets as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelSim;
    use soctest_netlist::ModuleBuilder;

    #[test]
    fn counter_eventually_toggles_low_bits() {
        let mut mb = ModuleBuilder::new("cnt");
        let en = mb.input("en");
        let clr = mb.input("clr");
        let q = mb.counter(4, en, clr);
        mb.output_bus("q", &q);
        let nl = mb.finish().unwrap();

        let mut sim = KernelSim::new(&nl).unwrap();
        let mut mon = ToggleMonitor::new(&nl);
        sim.drive_port(&nl, "en", 1);
        sim.drive_port(&nl, "clr", 0);
        for _ in 0..20 {
            sim.eval_comb();
            mon.sample(sim.values());
            sim.clock();
        }
        let q0 = nl.port("q").unwrap().bits()[0];
        let q3 = nl.port("q").unwrap().bits()[3];
        assert!(mon.toggled(q0));
        assert!(mon.toggled(q3), "bit 3 toggles at count 8..16");
        let rep = mon.report();
        assert!(rep.activity_percent() > 50.0);
        assert_eq!(rep.samples, 20);
        assert!(mon.transition_count(q0) > 0);
    }

    #[test]
    fn idle_circuit_reports_low_activity() {
        let mut mb = ModuleBuilder::new("idle");
        let a = mb.input("a");
        let q = mb.register(&[a]);
        mb.output_bus("q", &q);
        let nl = mb.finish().unwrap();
        let mut sim = KernelSim::new(&nl).unwrap();
        let mut mon = ToggleMonitor::new(&nl);
        sim.set_input_bit(nl.port("a").unwrap().bits()[0], false);
        for _ in 0..4 {
            sim.eval_comb();
            mon.sample(sim.values());
            sim.clock();
        }
        let rep = mon.report();
        assert_eq!(rep.toggled, 0);
        assert!(!mon.untoggled_nets().is_empty());
        // Every cold net here is stuck low — the polarity signal agrees.
        let cold = mon.cold_polarity();
        assert_eq!(cold.len(), mon.untoggled_nets().len());
        assert!(cold.iter().all(|&(_, stuck_high)| !stuck_high));
    }

    #[test]
    fn three_lane_run_with_mask_ignores_idle_lanes() {
        // A register fed by one input: drive lanes 0..3 with all-ones, so
        // every driven lane only ever sees 1 after the first clock.
        let mut mb = ModuleBuilder::new("m3");
        let a = mb.input("a");
        let q = mb.register(&[a]);
        mb.output_bus("q", &q);
        let nl = mb.finish().unwrap();
        let a_net = nl.port("a").unwrap().bits()[0];
        let lanes = 0b111u64;

        let run = |mon: &mut ToggleMonitor| {
            let mut sim = KernelSim::new(&nl).unwrap();
            sim.set_input(a_net, lanes);
            for _ in 0..6 {
                sim.eval_comb();
                mon.sample(sim.values());
                sim.clock();
            }
        };

        // Unmasked monitor: the 61 idle lanes hold `a` at 0, so `a`
        // spuriously counts as having seen both levels.
        let mut polluted = ToggleMonitor::new(&nl);
        run(&mut polluted);
        assert!(polluted.toggled(a_net), "unmasked monitor is polluted");

        // Masked monitor: `a` is constant 1 on every driven lane — it must
        // not count as toggled, and must contribute no transitions.
        let mut masked = ToggleMonitor::with_lane_mask(&nl, lanes);
        run(&mut masked);
        assert_eq!(masked.lane_mask(), lanes);
        assert!(!masked.toggled(a_net), "masked monitor sees constant 1");
        assert_eq!(masked.transition_count(a_net), 0);
        // The register output does transition once (0 → 1 after the first
        // clock) on each of the 3 driven lanes.
        let q_net = nl.port("q").unwrap().bits()[0];
        assert!(masked.toggled(q_net));
        assert_eq!(masked.transition_count(q_net), 3);
        // And the masked report counts strictly fewer transitions than the
        // polluted one (which also saw the q-flip on... nothing else, but
        // a's idle-lane XOR noise is the regression this pins).
        assert!(masked.report().transitions <= polluted.report().transitions);
    }

    #[test]
    #[should_panic(expected = "lane mask")]
    fn zero_mask_is_rejected() {
        let mut mb = ModuleBuilder::new("z");
        let a = mb.input("a");
        mb.output_bus("q", &[a]);
        let nl = mb.finish().unwrap();
        let _ = ToggleMonitor::with_lane_mask(&nl, 0);
    }
}
