//! One function per table and figure of the paper's evaluation.
//!
//! Each function returns structured rows; the `repro` binary in
//! `soctest-bench` renders them next to the paper's numbers, and
//! EXPERIMENTS.md records the comparison.

use std::time::Duration;

use soctest_atpg::{ScanAtpg, SequentialAtpg, SequentialAtpgConfig};
use soctest_fault::{
    CombFaultSim, DiagnosticMatrix, EquivalentClassStats, FaultUniverse, ParallelPolicy,
    SeqFaultSim, SeqFaultSimConfig,
};
use soctest_tech::Library;

use crate::casestudy::CaseStudy;
use crate::error::SessionError;
use crate::eval::{self, FaultModel};

/// Effort knobs for the expensive experiments. [`Budget::paper`] mirrors
/// the paper's configuration; [`Budget::quick`] keeps CI-sized tests fast.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// BIST patterns per execution (the paper applies 4,096).
    pub bist_patterns: u64,
    /// Random prefix of the sequential baseline, in cycles.
    pub seq_random_cycles: usize,
    /// Deterministic targets attempted by the sequential baseline.
    pub seq_max_targets: usize,
    /// Random patterns of the scan baseline.
    pub scan_random: usize,
    /// Deterministic targets attempted by the scan baseline (`None` = all).
    pub scan_max_targets: Option<usize>,
    /// Patterns used for diagnosis (step 3).
    pub diag_patterns: u64,
    /// Keep one fault in `stride` for diagnosis.
    pub diag_stride: usize,
    /// Worker-thread policy for every fault-simulation phase.
    pub parallel: ParallelPolicy,
}

impl Budget {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Budget {
            bist_patterns: 4096,
            seq_random_cycles: 4096,
            seq_max_targets: 400,
            scan_random: 512,
            scan_max_targets: None,
            diag_patterns: 1024,
            diag_stride: 8,
            parallel: ParallelPolicy::default(),
        }
    }

    /// A fast configuration for tests and smoke runs.
    pub fn quick() -> Self {
        Budget {
            bist_patterns: 192,
            seq_random_cycles: 128,
            seq_max_targets: 8,
            scan_random: 64,
            scan_max_targets: Some(16),
            diag_patterns: 96,
            diag_stride: 32,
            parallel: ParallelPolicy::default(),
        }
    }
}

/// One Table 1 row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// Module name.
    pub component: String,
    /// Input port size in bits.
    pub inputs: usize,
    /// Output port size in bits.
    pub outputs: usize,
}

/// Regenerates Table 1 (module port sizes).
pub fn table1(case: &CaseStudy) -> Vec<Table1Row> {
    case.modules()
        .iter()
        .map(|m| Table1Row {
            component: m.name().to_owned(),
            inputs: m.input_width(),
            outputs: m.output_width(),
        })
        .collect()
}

/// Table 2: area figures.
#[derive(Debug, Clone, Copy)]
pub struct Table2 {
    /// Area of the bare core in µm².
    pub core_um2: f64,
    /// Area added by the BIST engine (pattern generator, collectors,
    /// control, input muxes).
    pub bist_um2: f64,
    /// Area added by the P1500 wrapper.
    pub wrapper_um2: f64,
}

impl Table2 {
    /// BIST overhead relative to the core, percent.
    pub fn bist_overhead_percent(&self) -> f64 {
        100.0 * self.bist_um2 / self.core_um2
    }

    /// Wrapper overhead relative to the core, percent.
    pub fn wrapper_overhead_percent(&self) -> f64 {
        100.0 * self.wrapper_um2 / self.core_um2
    }

    /// Total DfT overhead, percent.
    pub fn total_overhead_percent(&self) -> f64 {
        self.bist_overhead_percent() + self.wrapper_overhead_percent()
    }

    /// The wrapper's share of the whole DfT cost (the paper quantifies the
    /// TAM/wrapper at 16% of the core-level test logic... actually of the
    /// additional logic).
    pub fn wrapper_share_percent(&self) -> f64 {
        100.0 * self.wrapper_um2 / (self.bist_um2 + self.wrapper_um2)
    }
}

/// Regenerates Table 2 (area overhead).
///
/// # Errors
///
/// Propagates netlist-construction errors.
pub fn table2(case: &CaseStudy, lib: &Library) -> Result<Table2, SessionError> {
    let core = lib.area(&case.assemble(false)?).total_um2;
    let with_bist = lib.area(&case.assemble(true)?).total_um2;
    let wrapped = lib.area(&case.wrapped(true)?).total_um2;
    Ok(Table2 {
        core_um2: core,
        bist_um2: with_bist - core,
        wrapper_um2: wrapped - with_bist,
    })
}

/// One pattern source of Table 3.
#[derive(Debug, Clone)]
pub struct Table3Cell {
    /// Collapsed fault count.
    pub faults: usize,
    /// Stuck-at coverage, percent.
    pub saf_percent: f64,
    /// Transition coverage, percent.
    pub tdf_percent: f64,
    /// Clock cycles to apply the stuck-at test.
    pub saf_cycles: u64,
    /// Clock cycles to apply the transition test.
    pub tdf_cycles: u64,
    /// Wall-clock generation + simulation time.
    pub wall: Duration,
}

/// One Table 3 row: a module against the three pattern sources.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Module name.
    pub component: String,
    /// BIST patterns (at speed).
    pub bist: Table3Cell,
    /// Sequential ATPG patterns.
    pub sequential: Table3Cell,
    /// Full-scan patterns.
    pub full_scan: Table3Cell,
}

/// Regenerates Table 3 (fault coverage, test length, CPU time) for every
/// module.
///
/// # Errors
///
/// Propagates simulator and construction errors.
pub fn table3(case: &CaseStudy, budget: &Budget) -> Result<Vec<Table3Row>, SessionError> {
    let mut rows = Vec::new();
    for (m, module) in case.modules().iter().enumerate() {
        // --- BIST: at-speed patterns from the engine, per-cycle observed.
        let bist = {
            let started = std::time::Instant::now();
            let step2 = |model| eval::step2(case, m, model, budget.bist_patterns, budget.parallel);
            let (saf_u, saf) = step2(FaultModel::StuckAt)?;
            let (_, tdf) = step2(FaultModel::Transition)?;
            Table3Cell {
                faults: saf_u.len(),
                saf_percent: saf.coverage_percent(),
                tdf_percent: tdf.coverage_percent(),
                saf_cycles: budget.bist_patterns,
                tdf_cycles: budget.bist_patterns,
                wall: started.elapsed(),
            }
        };
        // --- Sequential ATPG baseline.
        let sequential = {
            let outcome = SequentialAtpg::new(SequentialAtpgConfig {
                random_cycles: budget.seq_random_cycles,
                max_targets: Some(budget.seq_max_targets),
                parallel: budget.parallel,
                ..Default::default()
            })
            .run(module)?;
            Table3Cell {
                faults: outcome.stuck_at.fault_count(),
                saf_percent: outcome.stuck_at.coverage_percent(),
                tdf_percent: outcome.transition.coverage_percent(),
                saf_cycles: outcome.stuck_cycles,
                tdf_cycles: outcome.transition_cycles,
                wall: outcome.wall,
            }
        };
        // --- Full-scan baseline.
        let full_scan = {
            let run = ScanAtpg {
                random_patterns: budget.scan_random,
                max_targets: budget.scan_max_targets,
                parallel: budget.parallel,
                ..Default::default()
            }
            .run(module)?;
            Table3Cell {
                faults: run.outcome.stuck_at.fault_count(),
                saf_percent: run.outcome.stuck_at.coverage_percent(),
                tdf_percent: run.outcome.transition.coverage_percent(),
                saf_cycles: run.outcome.stuck_cycles,
                tdf_cycles: run.outcome.transition_cycles,
                wall: run.outcome.wall,
            }
        };
        rows.push(Table3Row {
            component: module.name().to_owned(),
            bist,
            sequential,
            full_scan,
        });
    }
    Ok(rows)
}

/// Table 4: maximum frequency per design variant, MHz.
#[derive(Debug, Clone, Copy)]
pub struct Table4 {
    /// The bare core.
    pub original_mhz: f64,
    /// Core with the BIST engine inserted.
    pub bist_mhz: f64,
    /// Core behind a standard P1500 wrapper (the "sequential approach").
    pub wrapper_mhz: f64,
    /// Core with multiplexed scan cells (the full-scan approach).
    pub full_scan_mhz: f64,
}

/// Regenerates Table 4 (performance reduction).
///
/// # Errors
///
/// Propagates construction and timing errors.
pub fn table4(case: &CaseStudy, lib: &Library) -> Result<Table4, SessionError> {
    let original = case.assemble(false)?;
    let bist = case.assemble(true)?;
    let wrapper = soctest_p1500::structural::wrap_core(&original)?;
    let scan = soctest_atpg::insert_scan(&original, 2)?.netlist;
    Ok(Table4 {
        original_mhz: lib.timing(&original)?.fmax_mhz,
        bist_mhz: lib.timing(&bist)?.fmax_mhz,
        wrapper_mhz: lib.timing(&wrapper)?.fmax_mhz,
        full_scan_mhz: lib.timing(&scan)?.fmax_mhz,
    })
}

/// One Table 5 row: equivalent-fault-class sizes per pattern source.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Module name.
    pub component: String,
    /// BIST patterns (MISR-observed syndromes).
    pub bist: EquivalentClassStats,
    /// Sequential patterns (per-cycle output syndromes).
    pub sequential: EquivalentClassStats,
    /// Full-scan patterns (per-pattern output syndromes).
    pub full_scan: EquivalentClassStats,
}

/// Regenerates Table 5 (diagnosis: max/med equivalent-class sizes).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn table5(case: &CaseStudy, budget: &Budget) -> Result<Vec<Table5Row>, SessionError> {
    let mut rows = Vec::new();
    for (m, module) in case.modules().iter().enumerate() {
        // BIST: signature syndromes with periodic reads.
        let bist = eval::step3(
            case,
            m,
            FaultModel::StuckAt,
            budget.diag_patterns,
            (budget.diag_patterns / 16).max(1),
            budget.diag_stride,
            budget.parallel,
        )?
        .stats;
        // Sequential: random functional sequence, per-cycle syndromes.
        let sequential = {
            let mut u = FaultUniverse::stuck_at(module);
            u.retain_sample(budget.diag_stride);
            let rows_in = soctest_atpg::random_rows(
                budget.diag_patterns as usize,
                module.input_width(),
                0xD1A6,
            );
            let mut stim = (rows_in.len() as u64, move |t: u64, out: &mut [bool]| {
                out.copy_from_slice(&rows_in[t as usize]);
            });
            let sim = SeqFaultSim::new(
                &u,
                SeqFaultSimConfig {
                    collect_syndromes: true,
                    parallel: budget.parallel,
                    ..Default::default()
                },
            );
            let r = sim.run(&mut stim)?;
            let syn = r.syndromes.as_ref().ok_or(SessionError::MissingSyndromes)?;
            DiagnosticMatrix::from_syndromes(syn).stats()
        };
        // Full scan: per-pattern syndromes on the scan view.
        let full_scan = {
            let design = soctest_atpg::insert_scan(module, 1)?;
            let sv = soctest_atpg::ScanView::of(&design.netlist)?;
            let mut u = FaultUniverse::stuck_at(&sv.view);
            u.retain_sample(budget.diag_stride);
            let pats = soctest_atpg::random_pattern_set(
                budget.diag_patterns as usize,
                sv.view.primary_inputs().len(),
                0x5CA9,
            );
            let r = CombFaultSim::new(&u)
                .with_syndromes()
                .with_parallelism(budget.parallel)
                .run_stuck_at(&pats)?;
            let syn = r.syndromes.as_ref().ok_or(SessionError::MissingSyndromes)?;
            DiagnosticMatrix::from_syndromes(syn).stats()
        };
        rows.push(Table5Row {
            component: module.name().to_owned(),
            bist,
            sequential,
            full_scan,
        });
    }
    Ok(rows)
}

/// One Fig. 3 sweep point.
#[derive(Debug, Clone, Copy)]
pub struct Fig3Point {
    /// Patterns applied.
    pub patterns: u64,
    /// Statement coverage, percent.
    pub statement_percent: f64,
    /// Mean toggle activity, percent.
    pub toggle_percent: f64,
}

/// Regenerates the Fig. 3 loop data: statement coverage and toggle
/// activity versus pattern count.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig3(case: &CaseStudy, checkpoints: &[u64]) -> Result<Vec<Fig3Point>, SessionError> {
    checkpoints
        .iter()
        .map(|&n| {
            let r = eval::step1(case, n)?;
            Ok(Fig3Point {
                patterns: n,
                statement_percent: r.statement_coverage,
                toggle_percent: r.mean_toggle_percent(),
            })
        })
        .collect()
}

/// Regenerates the Fig. 4 curve for one module: stuck-at coverage versus
/// applied BIST patterns, read off one [`eval::step2`] run at `points`
/// evenly spaced checkpoints.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig4(
    case: &CaseStudy,
    module: usize,
    max_patterns: u64,
    points: usize,
) -> Result<Vec<(u64, f64)>, SessionError> {
    let (universe, result) = eval::step2(
        case,
        module,
        FaultModel::StuckAt,
        max_patterns,
        ParallelPolicy::default(),
    )?;
    let checkpoints: Vec<u64> = (1..=points as u64)
        .map(|i| i * max_patterns / points as u64)
        .collect();
    Ok(result
        .coverage_curve(&checkpoints)
        .into_iter()
        .map(|(c, n)| (c, 100.0 * n as f64 / universe.len() as f64))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper_exactly() {
        let case = CaseStudy::paper().unwrap();
        let rows = table1(&case);
        assert_eq!(rows[0].inputs, 54);
        assert_eq!(rows[0].outputs, 55);
        assert_eq!(rows[1].inputs, 53);
        assert_eq!(rows[1].outputs, 53);
        assert_eq!(rows[2].inputs, 45);
        assert_eq!(rows[2].outputs, 44);
    }

    #[test]
    fn table2_overheads_land_in_the_paper_band() {
        let case = CaseStudy::paper().unwrap();
        let t = table2(&case, &Library::cmos_130nm()).unwrap();
        assert!(t.core_um2 > 0.0);
        assert!(t.bist_um2 > 0.0);
        assert!(t.wrapper_um2 > 0.0);
        let total = t.total_overhead_percent();
        assert!(
            (5.0..40.0).contains(&total),
            "total DfT overhead {total:.1}% out of band"
        );
        assert!(
            t.bist_um2 > t.wrapper_um2,
            "BIST engine outweighs the wrapper"
        );
    }

    #[test]
    fn table4_ordering_matches_the_paper() {
        let case = CaseStudy::paper().unwrap();
        let t = table4(&case, &Library::cmos_130nm()).unwrap();
        assert!(t.original_mhz >= t.wrapper_mhz, "wrapper adds input muxes");
        assert!(t.original_mhz > t.full_scan_mhz, "scan muxes cost the most");
        assert!(t.original_mhz >= t.bist_mhz, "BIST muxes cost a little");
    }

    #[test]
    fn fig4_curve_is_monotone() {
        let case = CaseStudy::paper().unwrap();
        let curve = fig4(&case, 2, 128, 4).unwrap();
        assert_eq!(curve.len(), 4);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        assert!(curve.last().unwrap().1 > 30.0);
    }
}
