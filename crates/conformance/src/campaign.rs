//! Case-study leg: the paper's own campaign, sampled, against the
//! reference fault simulator.
//!
//! The random-netlist `fault` pair exercises every mode of the compiled
//! fault simulators on small circuits. [`case_study_leg`] checks the same
//! contract where the paper's numbers come from: stride-sampled stuck-at
//! and transition faults of the case-study modules, run on the modules'
//! own BIST stimulus by the kernel `SeqFaultSim` and by
//! [`reference_fault_sim`], with per-cycle outputs (with and without
//! syndromes) and with the paper's 16-bit MISR read every 8 cycles (with
//! syndromes). Each mode sums the kernel's [`Routes`], so a run shows that
//! both the word pass and the lane engine met the reference, and that
//! faults on folded fanout branches were among what they checked.

use soctest_core::casestudy::CaseStudy;
use soctest_fault::{
    FaultSimStats, FaultUniverse, ObserveMode, ParallelPolicy, SeqFaultSim, SeqFaultSimConfig,
};

use crate::faultref::{diff_against_reference, reference_fault_sim};

/// Window length of the leg's kernel runs: several seams per campaign.
const WINDOW: u64 = 16;
/// MISR read period of the leg's signature mode.
const READ_EVERY: u64 = 8;

/// The kernel modes each sampled universe is checked in, in order: name,
/// observation (0 = per-cycle outputs, 1 = MISR), and whether syndromes
/// are collected.
pub const FAULT_MODES: [(&str, usize, bool); 3] = [
    ("outputs", 0, false),
    ("outputs+syndromes", 0, true),
    ("misr", 1, true),
];

/// What the sequential kernel's campaigns of one mode ran, summed:
/// fault·windows its word pass settled and handed back to its lane engine,
/// and faults it injected at a sink pin (on folded fanout branches).
/// Detections that agree with the reference vouch only for the routes and
/// injections that produced them, so a mode that never took one has not
/// checked it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Routes {
    /// Fault·windows the word pass settled.
    pub settled: u64,
    /// Fault·windows the word pass handed back to the lane engine.
    pub handed_back: u64,
    /// Faults on folded fanout branches, injected at their sink pin.
    pub folded_branch_faults: u64,
}

impl Routes {
    /// Adds one campaign's counts.
    pub fn add(&mut self, stats: &FaultSimStats) {
        self.settled += stats.settled_fault_windows;
        self.handed_back += stats.handed_back_fault_windows;
        self.folded_branch_faults += stats.folded_branch_faults;
    }

    /// Whether both routes ran and some fault was injected at a sink pin.
    pub fn complete(&self) -> bool {
        self.settled > 0 && self.handed_back > 0 && self.folded_branch_faults > 0
    }
}

/// What one [`case_study_leg`] run checked and found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseStudyLeg {
    /// Patterns (cycles) per campaign.
    pub patterns: u64,
    /// Faults checked, summed over modules and fault models.
    pub faults: usize,
    /// Kernel campaigns diffed against the reference.
    pub campaigns: usize,
    /// Word-pass routes per mode, aligned with [`FAULT_MODES`].
    pub routes: [Routes; 3],
    /// One line per diverging campaign (empty when the leg is clean).
    pub mismatches: Vec<String>,
}

/// Samples at most `max_faults` faults by stride from each of the stuck-at
/// and transition universes of every module in `modules`, runs them for
/// `patterns` cycles of the module's BIST stimulus, and diffs three kernel
/// campaigns per sample (outputs, outputs with syndromes, MISR with
/// syndromes) against one reference run.
///
/// # Panics
///
/// Panics if a module index is out of range or `max_faults` is zero.
pub fn case_study_leg(
    case: &CaseStudy,
    modules: &[usize],
    max_faults: usize,
    patterns: u64,
) -> CaseStudyLeg {
    let pgen = case.pattern_generator();
    let misr = ObserveMode::misr_default(case.spec().misr_width, READ_EVERY);
    let observe = [ObserveMode::Outputs, misr];
    let mut leg = CaseStudyLeg {
        patterns,
        faults: 0,
        campaigns: 0,
        routes: [Routes::default(); 3],
        mismatches: Vec::new(),
    };
    for &m in modules {
        let module = &case.modules()[m];
        let rows: Vec<Vec<bool>> = (0..patterns).map(|t| pgen.row_at(m, t)).collect();
        for (model, mut universe) in [
            ("stuck-at", FaultUniverse::stuck_at(module)),
            ("transition", FaultUniverse::transition(module)),
        ] {
            universe.retain_sample(universe.len().div_ceil(max_faults).max(1));
            leg.faults += universe.len();
            let reference = reference_fault_sim(&universe, &rows, &observe);
            for (&(what, o, collect), routes) in FAULT_MODES.iter().zip(&mut leg.routes) {
                let config = SeqFaultSimConfig {
                    window: WINDOW,
                    observe: observe[o].clone(),
                    collect_syndromes: collect,
                    parallel: ParallelPolicy::serial(),
                };
                let mut stim = (patterns, |t: u64, out: &mut [bool]| {
                    out.copy_from_slice(&rows[t as usize]);
                });
                let got = SeqFaultSim::new(&universe, config)
                    .run(&mut stim)
                    .expect("case-study modules levelize");
                leg.campaigns += 1;
                routes.add(&got.stats);
                if let Some(d) =
                    diff_against_reference(&universe, &got, &reference[o], WINDOW, !collect)
                {
                    leg.mismatches
                        .push(format!("{} {model} {what}: {d}", module.name()));
                }
            }
        }
    }
    leg
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper pipeline itself — a case-study module, its BIST
    /// stimulus, MISR observation with syndromes — pinned against the
    /// reference in the debug-mode suite. `difftest` runs the full-size
    /// leg on all three modules.
    #[test]
    fn control_unit_sample_matches_the_reference() {
        let case = CaseStudy::paper().unwrap();
        let leg = case_study_leg(&case, &[2], 32, 64);
        assert!(leg.faults > 40, "both universes sampled: {}", leg.faults);
        assert_eq!(leg.campaigns, 6);
        assert!(leg.mismatches.is_empty(), "{:#?}", leg.mismatches);
        for (&(mode, _, _), routes) in FAULT_MODES.iter().zip(&leg.routes) {
            assert!(routes.complete(), "{mode}: {routes:?}");
        }
    }
}
