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
//! syndromes).

use soctest_core::casestudy::CaseStudy;
use soctest_fault::{FaultUniverse, ObserveMode, ParallelPolicy, SeqFaultSim, SeqFaultSimConfig};

use crate::faultref::{diff_against_reference, reference_fault_sim};

/// Window length of the leg's kernel runs: several seams per campaign.
const WINDOW: u64 = 16;
/// MISR read period of the leg's signature mode.
const READ_EVERY: u64 = 8;

/// What one [`case_study_leg`] run checked and found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseStudyLeg {
    /// Patterns (cycles) per campaign.
    pub patterns: u64,
    /// Faults checked, summed over modules and fault models.
    pub faults: usize,
    /// Kernel campaigns diffed against the reference.
    pub campaigns: usize,
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
    let checks = [
        ("outputs", 0, false),
        ("outputs+syndromes", 0, true),
        ("misr", 1, true),
    ];
    let mut leg = CaseStudyLeg {
        patterns,
        faults: 0,
        campaigns: 0,
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
            for (what, o, collect) in checks {
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
    }
}
