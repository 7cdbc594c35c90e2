//! The reference fault simulator: one naive [`RefMachine`] per fault.
//!
//! [`reference_fault_sim`] is the oracle the compiled fault simulators
//! (`soctest_fault::SeqFaultSim` and `CombFaultSim`) are diffed against.
//! It has none of their machinery — no lanes, no windows, no fault
//! dropping, no good-trace replay: every fault gets its own
//! [`RefMachine`] with the fault injected ([`RefMachine::force`] for a
//! stuck-at, [`RefMachine::delay`] for a transition), run from reset over
//! the whole stimulus. The observation nets are compared with the good
//! machine's every cycle, or compacted through a behavioral
//! [`soctest_bist::Misr`] and compared at read boundaries. Syndromes are
//! always recorded; survivor trajectories are derived from the first
//! detections ([`RefFaultRun::survivors`]).
//!
//! On a combinational netlist every stimulus row is an independent
//! pattern (clocking changes nothing), so the same reference serves the
//! PPSFP simulator with one row per pattern.

use soctest_bist::Misr;
use soctest_fault::{Fault, FaultKind, FaultSimResult, FaultUniverse, ObserveMode, Syndrome};
use soctest_netlist::{NetId, Netlist};

use crate::reference::RefMachine;

/// The reference's verdict for one observation mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefFaultRun {
    /// First-detection cycle per fault (the read's cycle in MISR mode).
    pub detection: Vec<Option<u64>>,
    /// Per-fault syndromes, in the fault simulators' event encoding:
    /// `(cycle, output index)` per deviating output and cycle, or
    /// `(read index, faulty signature)` per deviating MISR read.
    pub syndromes: Vec<Syndrome>,
}

impl RefFaultRun {
    /// Surviving (still undetected) fault count after each `window`-cycle
    /// slice of a `cycles`-cycle run. With `stop_when_clear` the
    /// trajectory ends after the first slice that leaves no survivor, as a
    /// dropping simulator stops once no fault is left to simulate.
    pub fn survivors(&self, cycles: u64, window: u64, stop_when_clear: bool) -> Vec<usize> {
        let mut out = Vec::new();
        if self.detection.is_empty() {
            return out;
        }
        let mut start = 0;
        while start < cycles {
            let end = start + window.min(cycles - start);
            let left = self
                .detection
                .iter()
                .filter(|d| d.is_none_or(|t| t >= end))
                .count();
            out.push(left);
            start = end;
            if left == 0 && stop_when_clear {
                break;
            }
        }
        out
    }
}

/// Runs every fault of `universe` on its own [`RefMachine`] over `rows`
/// (one primary-input row per cycle, in port order) and returns one
/// [`RefFaultRun`] per entry of `modes`. Each faulty machine is simulated
/// once; every mode reads the same faulty trajectory.
///
/// # Panics
///
/// Panics if a row does not match the view's primary-input count.
pub fn reference_fault_sim(
    universe: &FaultUniverse,
    rows: &[Vec<bool>],
    modes: &[ObserveMode],
) -> Vec<RefFaultRun> {
    let view = universe.view();
    let obs = universe.observe_nets();
    let good = observed_trace(view, None, obs, rows);
    let mut runs: Vec<RefFaultRun> = modes
        .iter()
        .map(|_| RefFaultRun {
            detection: Vec::with_capacity(universe.len()),
            syndromes: Vec::with_capacity(universe.len()),
        })
        .collect();
    for &fault in universe.faults() {
        let faulty = observed_trace(view, Some(fault), obs, rows);
        for (mode, run) in modes.iter().zip(runs.iter_mut()) {
            let (det, syn) = compare(mode, &good, &faulty);
            run.detection.push(det);
            run.syndromes.push(syn);
        }
    }
    runs
}

/// Diffs one fault-simulation campaign against the reference's verdict
/// for the same universe, stimulus, and observation mode: first-detection
/// vector, then the syndrome streams (when `got` collected them), then the
/// survivor trajectory over `window`-cycle slices (see
/// [`RefFaultRun::survivors`]). Returns the first divergence.
pub fn diff_against_reference(
    universe: &FaultUniverse,
    got: &FaultSimResult,
    want: &RefFaultRun,
    window: u64,
    stop_when_clear: bool,
) -> Option<String> {
    for (fi, (g, w)) in got.detection.iter().zip(&want.detection).enumerate() {
        if g != w {
            return Some(format!(
                "fault {fi} ({}): simulator={g:?} reference={w:?}",
                universe.describe(fi)
            ));
        }
    }
    if let Some(syn) = &got.syndromes {
        if let Some(fi) = syn.iter().zip(&want.syndromes).position(|(g, w)| g != w) {
            return Some(format!(
                "fault {fi} ({}): syndrome streams diverge",
                universe.describe(fi)
            ));
        }
    }
    let trajectory = want.survivors(got.cycles, window, stop_when_clear);
    if got.stats.survivors != trajectory {
        return Some(format!(
            "survivor trajectories diverge (simulator {:?} reference {trajectory:?})",
            got.stats.survivors
        ));
    }
    None
}

/// The observation nets' values at every cycle, with `fault` injected.
fn observed_trace(
    view: &Netlist,
    fault: Option<Fault>,
    obs: &[NetId],
    rows: &[Vec<bool>],
) -> Vec<Vec<bool>> {
    let mut rm = RefMachine::new(view);
    if let Some(f) = fault {
        match f.kind {
            FaultKind::Sa0 => rm.force(f.net, false),
            FaultKind::Sa1 => rm.force(f.net, true),
            FaultKind::SlowToRise => rm.delay(f.net, true),
            FaultKind::SlowToFall => rm.delay(f.net, false),
        }
    }
    rows.iter()
        .map(|row| {
            rm.set_inputs(row);
            rm.settle();
            let seen = obs.iter().map(|&n| rm.value(n)).collect();
            rm.clock();
            seen
        })
        .collect()
}

/// First detection and syndrome of one faulty trace under `mode`.
fn compare(
    mode: &ObserveMode,
    good: &[Vec<bool>],
    faulty: &[Vec<bool>],
) -> (Option<u64>, Syndrome) {
    let mut det = None;
    let mut syn = Syndrome::new();
    match *mode {
        ObserveMode::Outputs => {
            for (t, (g, f)) in good.iter().zip(faulty).enumerate() {
                for (oi, (a, b)) in g.iter().zip(f).enumerate() {
                    if a != b {
                        det.get_or_insert(t as u64);
                        syn.record(t as u64, oi as u64);
                    }
                }
            }
        }
        ObserveMode::Misr {
            width,
            taps,
            read_every,
        } => {
            let read_every = read_every.max(1);
            let total = good.len() as u64;
            let mut good_misr = Misr::with_taps(width, taps);
            let mut faulty_misr = Misr::with_taps(width, taps);
            let mut read = 0u64;
            for (t, (g, f)) in good.iter().zip(faulty).enumerate() {
                let t = t as u64;
                good_misr.absorb_folded(g);
                faulty_misr.absorb_folded(f);
                if (t + 1).is_multiple_of(read_every) || t + 1 == total {
                    if good_misr.signature() != faulty_misr.signature() {
                        det.get_or_insert(t);
                        syn.record(read, faulty_misr.signature());
                    }
                    read += 1;
                }
            }
        }
    }
    (det, syn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_fault::{SeqFaultSim, SeqFaultSimConfig, VectorStimulus};
    use soctest_netlist::ModuleBuilder;

    /// Combinational XOR/AND block behind a register.
    fn small_seq() -> Netlist {
        let mut mb = ModuleBuilder::new("blk");
        let a = mb.input_bus("a", 4);
        let x0 = mb.xor(a[0], a[1]);
        let x1 = mb.and(a[2], a[3]);
        let o = mb.or(x0, x1);
        let q = mb.register(&[x0, x1, o]);
        mb.output_bus("q", &q);
        mb.finish().unwrap()
    }

    fn rows_of(words: &[u64], width: usize) -> Vec<Vec<bool>> {
        words
            .iter()
            .map(|w| (0..width).map(|i| (w >> i) & 1 == 1).collect())
            .collect()
    }

    /// The kernel `SeqFaultSim` against the reference on a small block:
    /// both universes, both observation modes, with syndromes, across
    /// window seams.
    #[test]
    fn seq_fault_sim_matches_the_reference_on_a_small_block() {
        let nl = small_seq();
        let words: Vec<u64> = (0..3).flat_map(|_| 0..16u64).collect();
        let rows = rows_of(&words, 4);
        let modes = [ObserveMode::Outputs, ObserveMode::misr_default(16, 5)];
        for universe in [FaultUniverse::stuck_at(&nl), FaultUniverse::transition(&nl)] {
            let reference = reference_fault_sim(&universe, &rows, &modes);
            for (observe, want) in modes.iter().zip(&reference) {
                let got = SeqFaultSim::new(
                    &universe,
                    SeqFaultSimConfig {
                        window: 8,
                        observe: observe.clone(),
                        collect_syndromes: true,
                        ..Default::default()
                    },
                )
                .run(&mut VectorStimulus::new(words.clone()))
                .unwrap();
                assert!(got.detected_count() > 0);
                assert_eq!(
                    diff_against_reference(&universe, &got, want, 8, false),
                    None,
                    "{observe:?}"
                );
            }
        }
    }

    #[test]
    fn survivors_follow_first_detections() {
        let run = RefFaultRun {
            detection: vec![Some(0), Some(5), None, Some(9)],
            syndromes: vec![Syndrome::new(); 4],
        };
        // Windows end at 4, 8, 10: detections at 0 | 5 | 9.
        assert_eq!(run.survivors(10, 4, false), vec![3, 2, 1]);
        let all = RefFaultRun {
            detection: vec![Some(1), Some(2)],
            syndromes: vec![Syndrome::new(); 2],
        };
        assert_eq!(all.survivors(12, 4, true), vec![0]);
        assert_eq!(all.survivors(12, 4, false), vec![0, 0, 0]);
        let none = RefFaultRun {
            detection: vec![],
            syndromes: vec![],
        };
        assert!(none.survivors(12, 4, false).is_empty());
    }
}
