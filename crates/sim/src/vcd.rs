//! Waveform export: taps simulator net values into a VCD dump.
//!
//! A [`VcdProbe`] watches the ports of one or more simulated modules and
//! emits change-only value dumps through [`soctest_obs::VcdWriter`]. Each
//! watched module becomes a VCD scope (`top.mod.port`), so probes from
//! different netlists never collide even though their [`NetId`] spaces
//! overlap.

use soctest_netlist::{NetId, Netlist};
use soctest_obs::{VarId, VcdWriter};

/// One watched bus: a declared VCD variable plus the nets it samples.
#[derive(Debug, Clone)]
struct Tap {
    var: VarId,
    bits: Vec<NetId>,
}

/// Samples simulator state into a VCD waveform, one lane at a time.
///
/// Declare modules with [`VcdProbe::add_module`] (before the first
/// [`VcdProbe::advance`]), then each cycle [`VcdProbe::record`] the value
/// arrays you care about ([`crate::KernelSim::values`] or
/// [`SeqSim::values`](crate::SeqSim::values)) and [`VcdProbe::advance`] the
/// timeline once.
///
/// # Example
///
/// ```
/// use soctest_netlist::ModuleBuilder;
/// use soctest_obs::VcdReader;
/// use soctest_sim::{KernelSim, VcdProbe};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut mb = ModuleBuilder::new("cnt");
/// let en = mb.input("en");
/// let clr = mb.input("clr");
/// let q = mb.counter(2, en, clr);
/// mb.output_bus("q", &q);
/// let nl = mb.finish()?;
///
/// let mut sim = KernelSim::new(&nl)?;
/// sim.drive_inputs(&[true, false]); // en, clr
///
/// let mut probe = VcdProbe::new();
/// let cnt = probe.add_module("cnt", &nl);
/// for _ in 0..3 {
///     sim.eval_comb();
///     probe.record(cnt, sim.values());
///     probe.advance(sim.cycle());
///     sim.clock();
/// }
/// let vcd = probe.finish();
/// let reader = VcdReader::parse(&vcd)?;
/// assert_eq!(reader.value_at("cnt.q", 2), Some(2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct VcdProbe {
    writer: VcdWriter,
    groups: Vec<Vec<Tap>>,
    lane: u32,
}

impl Default for VcdProbe {
    fn default() -> Self {
        VcdProbe::new()
    }
}

impl VcdProbe {
    /// A probe sampling lane 0 of every watched net.
    pub fn new() -> Self {
        VcdProbe::with_lane(0)
    }

    /// A probe sampling the given lane (0..64) of every watched net.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is 64 or more.
    pub fn with_lane(lane: u32) -> Self {
        assert!(lane < 64, "lane 0..64");
        VcdProbe {
            writer: VcdWriter::new(),
            groups: Vec::new(),
            lane,
        }
    }

    /// Declares every port of `netlist` under the scope `prefix` and returns
    /// the group handle to pass to [`VcdProbe::record`].
    ///
    /// Buses wider than 64 bits are truncated to their low 64 bits (the VCD
    /// writer carries one word per variable).
    pub fn add_module(&mut self, prefix: &str, netlist: &Netlist) -> usize {
        let mut taps = Vec::new();
        for port in netlist.ports() {
            let bits: Vec<NetId> = port.bits().iter().copied().take(64).collect();
            let var = self
                .writer
                .add_var(&format!("{prefix}.{}", port.name()), bits.len() as u32);
            taps.push(Tap { var, bits });
        }
        self.groups.push(taps);
        self.groups.len() - 1
    }

    /// Stages group `group`'s port values from `values`, a simulator's
    /// 64-lane net-value array indexed by [`NetId`]. Values are read as-is:
    /// evaluate the combinational logic first if outputs should reflect
    /// this cycle's inputs.
    ///
    /// # Panics
    ///
    /// Panics if `group` was not returned by [`VcdProbe::add_module`], or if
    /// `values` is shorter than that module's net count.
    pub fn record(&mut self, group: usize, values: &[u64]) {
        let taps = &self.groups[group];
        for tap in taps {
            let mut value = 0u64;
            for (i, &net) in tap.bits.iter().enumerate() {
                value |= ((values[net.index()] >> self.lane) & 1) << i;
            }
            self.writer.change(tap.var, value);
        }
    }

    /// Closes the current timestep: emits `#time` plus every staged value
    /// that differs from the last emission.
    pub fn advance(&mut self, time: u64) {
        self.writer.advance(time);
    }

    /// Number of declared VCD variables across all groups.
    pub fn var_count(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }

    /// Renders the complete VCD document.
    pub fn finish(&self) -> String {
        self.writer.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeqSim;
    use soctest_netlist::ModuleBuilder;
    use soctest_obs::VcdReader;

    fn counter(bits: usize) -> Netlist {
        let mut mb = ModuleBuilder::new("cnt");
        let en = mb.input("en");
        let clr = mb.input("clr");
        let q = mb.counter(bits, en, clr);
        mb.output_bus("q", &q);
        mb.finish().unwrap()
    }

    #[test]
    fn counter_waveform_round_trips() {
        let nl = counter(4);
        let mut sim = SeqSim::new(&nl).unwrap();
        sim.drive_port("en", 1);
        sim.drive_port("clr", 0);

        let mut probe = VcdProbe::new();
        let g = probe.add_module("dut", &nl);
        for _ in 0..6 {
            sim.eval_comb();
            probe.record(g, sim.values());
            probe.advance(sim.cycle());
            sim.clock();
        }
        let text = probe.finish();
        let reader = VcdReader::parse(&text).unwrap();
        for t in 0..6 {
            assert_eq!(reader.value_at("dut.q", t), Some(t), "q at cycle {t}");
        }
        assert_eq!(reader.value_at("dut.en", 5), Some(1));
    }

    #[test]
    fn two_modules_with_colliding_net_ids_stay_separate() {
        let a = counter(3);
        let b = counter(3);
        let mut sim_a = SeqSim::new(&a).unwrap();
        let mut sim_b = SeqSim::new(&b).unwrap();
        sim_a.drive_port("en", 1);
        sim_a.drive_port("clr", 0);
        // b holds at zero: enable low.
        sim_b.drive_port("en", 0);
        sim_b.drive_port("clr", 0);

        let mut probe = VcdProbe::new();
        let ga = probe.add_module("a", &a);
        let gb = probe.add_module("b", &b);
        for _ in 0..4 {
            sim_a.eval_comb();
            sim_b.eval_comb();
            probe.record(ga, sim_a.values());
            probe.record(gb, sim_b.values());
            probe.advance(sim_a.cycle());
            sim_a.clock();
            sim_b.clock();
        }
        let reader = VcdReader::parse(&probe.finish()).unwrap();
        assert_eq!(reader.value_at("a.q", 3), Some(3));
        assert_eq!(reader.value_at("b.q", 3), Some(0));
    }

    #[test]
    fn two_dff_counter_matches_hand_computed_changes() {
        // counter(2) is two flip-flops; q counts 0,1,2,3 then wraps.
        let nl = counter(2);
        let mut sim = SeqSim::new(&nl).unwrap();
        sim.drive_port("en", 1);
        sim.drive_port("clr", 0);

        let mut probe = VcdProbe::new();
        let g = probe.add_module("cnt", &nl);
        for _ in 0..6 {
            sim.eval_comb();
            probe.record(g, sim.values());
            probe.advance(sim.cycle());
            sim.clock();
        }
        let reader = VcdReader::parse(&probe.finish()).unwrap();
        for (t, want) in [(0, 0), (1, 1), (2, 2), (3, 3), (4, 0), (5, 1)] {
            assert_eq!(reader.value_at("cnt.q", t), Some(want), "q at cycle {t}");
        }
        // Inputs never change after time 0, so their change lists are a
        // single entry; q changes at every cycle.
        let en_changes = reader.changes_for("cnt.en").unwrap();
        assert_eq!(en_changes.iter().filter(|(_, v)| v.is_some()).count(), 1);
        let q_changes: Vec<(u64, Option<u64>)> = reader
            .changes_for("cnt.q")
            .unwrap()
            .iter()
            .copied()
            .filter(|(_, v)| v.is_some())
            .collect();
        assert_eq!(
            q_changes,
            vec![
                (0, Some(0)),
                (1, Some(1)),
                (2, Some(2)),
                (3, Some(3)),
                (4, Some(0)),
                (5, Some(1)),
            ]
        );
    }

    #[test]
    fn nonzero_lane_sees_that_lane_only() {
        let nl = counter(3);
        let mut sim = SeqSim::new(&nl).unwrap();
        // Enable only lane 5; every other lane holds at zero.
        let en = nl.port("en").unwrap().bits()[0];
        sim.set_input(en, 1u64 << 5);
        sim.drive_port("clr", 0);

        let mut p0 = VcdProbe::new();
        let mut p5 = VcdProbe::with_lane(5);
        let g0 = p0.add_module("dut", &nl);
        let g5 = p5.add_module("dut", &nl);
        for _ in 0..3 {
            sim.eval_comb();
            p0.record(g0, sim.values());
            p5.record(g5, sim.values());
            p0.advance(sim.cycle());
            p5.advance(sim.cycle());
            sim.clock();
        }
        let r0 = VcdReader::parse(&p0.finish()).unwrap();
        let r5 = VcdReader::parse(&p5.finish()).unwrap();
        assert_eq!(r0.value_at("dut.q", 2), Some(0));
        assert_eq!(r5.value_at("dut.q", 2), Some(2));
    }
}
