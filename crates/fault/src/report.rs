//! Result types for fault-simulation campaigns.

use std::fmt;
use std::time::Duration;

use soctest_obs::CoverageCurve;

use crate::Syndrome;

/// Observability counters for one fault-simulation campaign: how the work
/// split between the good machine and the faulty machines, how the windowed
/// schedule converged, and how many worker threads carried it.
///
/// The counters are deterministic (identical for `threads: 1` and
/// `threads: N`) except for `wall`, which measures the clock.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSimStats {
    /// Worker threads the campaign ran on (resolved, ≥ 1).
    pub threads: usize,
    /// Windows simulated (sequential) or 64-pattern blocks processed
    /// (combinational PPSFP).
    pub windows: u64,
    /// Surviving (still-undetected) fault count after each window/block,
    /// in schedule order — the fault-dropping trajectory.
    pub survivors: Vec<usize>,
    /// Good-machine simulation cycles (sequential: cycles simulated once
    /// per window; combinational: 64-pattern block evaluations, two per
    /// block in transition mode).
    pub good_cycles: u64,
    /// Faulty-machine simulation cost (sequential: the lane engine's
    /// chunk-cycles, Σ window length × 64-fault lane chunks; combinational:
    /// single-fault propagation passes).
    pub faulty_cycles: u64,
    /// Sequential only: fault·windows the word pass settled — the fault
    /// was detected or carried to the next window without the lane engine.
    pub settled_fault_windows: u64,
    /// Sequential only: fault·windows the word pass took but handed back
    /// to the lane engine, because a flip-flop deviated too early.
    pub handed_back_fault_windows: u64,
    /// Faults of the campaign's universe that sit on folded fanout
    /// branches and are injected at their sink gate's pin (see
    /// [`crate::FaultUniverse`]): a count of faults, not of windows.
    pub folded_branch_faults: u64,
    /// Wall-clock time spent inside the simulator.
    pub wall: Duration,
}

impl fmt::Display for FaultSimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} thread(s), {} window(s), good/faulty cycles {}/{}, \
             word pass settled/handed back {}/{}, final survivors {}, {:?}",
            self.threads,
            self.windows,
            self.good_cycles,
            self.faulty_cycles,
            self.settled_fault_windows,
            self.handed_back_fault_windows,
            self.survivors.last().copied().unwrap_or(0),
            self.wall
        )
    }
}

/// Outcome of a fault-simulation campaign over a collapsed universe.
#[derive(Debug, Clone)]
pub struct FaultSimResult {
    /// First-detection cycle per collapsed fault (index-aligned with
    /// [`crate::FaultUniverse::faults`]); `None` means undetected.
    pub detection: Vec<Option<u64>>,
    /// Number of clock cycles (or scan patterns) applied.
    pub cycles: u64,
    /// Wall-clock time the simulation took (the paper reports CPU time in
    /// Table 3; we report wall time for shape).
    pub wall: Duration,
    /// Per-fault syndromes, when syndrome collection was enabled.
    pub syndromes: Option<Vec<Syndrome>>,
    /// Scheduling/observability counters for the run.
    pub stats: FaultSimStats,
}

impl FaultSimResult {
    /// Number of detected faults.
    pub fn detected_count(&self) -> usize {
        self.detection.iter().filter(|d| d.is_some()).count()
    }

    /// Total faults simulated.
    pub fn fault_count(&self) -> usize {
        self.detection.len()
    }

    /// Fault coverage in percent.
    pub fn coverage_percent(&self) -> f64 {
        if self.detection.is_empty() {
            return 0.0;
        }
        100.0 * self.detected_count() as f64 / self.detection.len() as f64
    }

    /// Indices of undetected faults (for ATPG targeting or CG redesign).
    pub fn undetected(&self) -> Vec<usize> {
        self.detection
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_none())
            .map(|(i, _)| i)
            .collect()
    }

    /// The latest first-detection cycle — i.e. the test length actually
    /// needed to reach this coverage.
    pub fn last_useful_cycle(&self) -> Option<u64> {
        self.detection.iter().flatten().copied().max()
    }

    /// Cumulative detected-fault counts at the given cycle checkpoints
    /// (used for the Fig. 4 coverage-vs-patterns curve). Checkpoints are
    /// sorted and deduplicated first, so the output is always a monotone
    /// curve regardless of caller-supplied order.
    pub fn coverage_curve(&self, checkpoints: &[u64]) -> Vec<(u64, usize)> {
        let curve = self.curve();
        let mut cps = checkpoints.to_vec();
        cps.sort_unstable();
        cps.dedup();
        cps.into_iter().map(|c| (c, curve.detected_at(c))).collect()
    }

    /// Like [`FaultSimResult::coverage_curve`], but in coverage percent.
    pub fn coverage_curve_percent(&self, checkpoints: &[u64]) -> Vec<(u64, f64)> {
        let curve = self.curve();
        let mut cps = checkpoints.to_vec();
        cps.sort_unstable();
        cps.dedup();
        cps.into_iter().map(|c| (c, curve.percent_at(c))).collect()
    }

    /// The full per-pattern-resolution coverage curve, built from the
    /// first-detection indices the campaign already recorded (no extra
    /// simulation work). Because detection indices are absolute — also
    /// across resumed batches and across `threads: 1` vs `threads: N` —
    /// curves from equivalent campaigns compare bit-identical.
    pub fn curve(&self) -> CoverageCurve {
        CoverageCurve::from_detection(&self.detection, self.cycles)
    }
}

impl fmt::Display for FaultSimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} faults detected ({:.1}%) in {} cycles, {:?}",
            self.detected_count(),
            self.fault_count(),
            self.coverage_percent(),
            self.cycles,
            self.wall
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FaultSimResult {
        FaultSimResult {
            detection: vec![Some(3), None, Some(10), Some(3)],
            cycles: 16,
            wall: Duration::from_millis(1),
            syndromes: None,
            stats: FaultSimStats::default(),
        }
    }

    #[test]
    fn coverage_math() {
        let r = sample();
        assert_eq!(r.detected_count(), 3);
        assert_eq!(r.fault_count(), 4);
        assert!((r.coverage_percent() - 75.0).abs() < 1e-9);
        assert_eq!(r.undetected(), vec![1]);
        assert_eq!(r.last_useful_cycle(), Some(10));
    }

    #[test]
    fn curve_is_cumulative() {
        let r = sample();
        let curve = r.coverage_curve(&[2, 3, 10, 16]);
        assert_eq!(curve, vec![(2, 0), (3, 2), (10, 3), (16, 3)]);
    }

    #[test]
    fn curve_tolerates_unsorted_and_duplicate_checkpoints() {
        let r = sample();
        let curve = r.coverage_curve(&[16, 3, 2, 10, 3, 16]);
        assert_eq!(curve, vec![(2, 0), (3, 2), (10, 3), (16, 3)]);
        let pct = r.coverage_curve_percent(&[10, 2, 10]);
        assert_eq!(pct.len(), 2);
        assert!((pct[0].1 - 0.0).abs() < 1e-12);
        assert!((pct[1].1 - 75.0).abs() < 1e-12);
    }

    #[test]
    fn curve_monotonicity_over_pseudorandom_detections() {
        // Property: for any detection vector and any checkpoint list, the
        // curve is nondecreasing once checkpoints are normalized.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50 {
            let n = (next() % 40) as usize + 1;
            let cycles = next() % 200 + 1;
            let detection: Vec<Option<u64>> = (0..n)
                .map(|_| (next() % 3 != 0).then(|| next() % cycles))
                .collect();
            let r = FaultSimResult {
                detection: detection.clone(),
                cycles,
                wall: Duration::ZERO,
                syndromes: None,
                stats: FaultSimStats::default(),
            };
            let checkpoints: Vec<u64> = (0..12).map(|_| next() % (cycles + 10)).collect();
            let curve = r.coverage_curve(&checkpoints);
            assert!(curve
                .windows(2)
                .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
            let pct = r.coverage_curve_percent(&checkpoints);
            assert!(pct.windows(2).all(|w| w[0].1 <= w[1].1));
            // The full-resolution curve agrees with the checkpointed one
            // and with coverage_percent at the end of the run.
            let full = r.curve();
            for &(c, d) in &curve {
                assert_eq!(full.detected_at(c), d);
            }
            assert_eq!(
                full.final_percent().to_bits(),
                r.coverage_percent().to_bits()
            );
        }
    }

    #[test]
    fn empty_result_is_zero_coverage() {
        let r = FaultSimResult {
            detection: vec![],
            cycles: 0,
            wall: Duration::ZERO,
            syndromes: None,
            stats: FaultSimStats::default(),
        };
        assert_eq!(r.coverage_percent(), 0.0);
        assert!(r.to_string().contains("0/0"));
    }

    #[test]
    fn stats_display_carries_both_word_pass_routes() {
        let stats = FaultSimStats {
            threads: 1,
            windows: 2,
            survivors: vec![5, 3],
            good_cycles: 128,
            faulty_cycles: 64,
            settled_fault_windows: 11,
            handed_back_fault_windows: 4,
            folded_branch_faults: 9,
            wall: Duration::ZERO,
        };
        assert!(
            stats
                .to_string()
                .contains("good/faulty cycles 128/64, word pass settled/handed back 11/4"),
            "{stats}"
        );
    }
}
