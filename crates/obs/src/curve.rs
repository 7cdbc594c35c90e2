//! Streaming coverage curves: first-detection indices turned into a
//! cumulative coverage-vs-patterns trajectory.
//!
//! A [`CoverageCurve`] is built *after* a fault-simulation campaign from the
//! per-fault first-detection indices the simulator already records, so curve
//! recording adds zero work to the simulation hot path. Because detection
//! indices are absolute pattern numbers (also across resumed
//! `CombCampaign` batches), a curve built from a resumed campaign is
//! identical to one built from a single batch, and a curve built from a
//! parallel run is bit-identical to the serial one.

/// Cumulative fault-coverage trajectory with per-pattern resolution.
///
/// Stored as a compressed step function: one `(cycle, cumulative_detected)`
/// point per pattern index at which at least one new fault was first
/// detected, strictly increasing in both coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageCurve {
    faults: usize,
    cycles: u64,
    steps: Vec<(u64, u64)>,
}

impl CoverageCurve {
    /// Builds a curve from per-fault first-detection indices (`None` =
    /// undetected) and the number of patterns/cycles applied.
    pub fn from_detection(detection: &[Option<u64>], cycles: u64) -> Self {
        let mut firsts: Vec<u64> = detection.iter().flatten().copied().collect();
        firsts.sort_unstable();
        let mut steps: Vec<(u64, u64)> = Vec::new();
        for (i, d) in firsts.iter().enumerate() {
            match steps.last_mut() {
                Some((c, n)) if c == d => *n = i as u64 + 1,
                _ => steps.push((*d, i as u64 + 1)),
            }
        }
        CoverageCurve {
            faults: detection.len(),
            cycles,
            steps,
        }
    }

    /// Total faults in the campaign's universe.
    pub fn faults(&self) -> usize {
        self.faults
    }

    /// Patterns (or cycles) applied by the campaign.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Faults detected by the end of the campaign.
    pub fn detected(&self) -> usize {
        self.steps.last().map(|&(_, n)| n as usize).unwrap_or(0)
    }

    /// The step points `(cycle, cumulative_detected)`, strictly increasing
    /// in both coordinates.
    pub fn steps(&self) -> &[(u64, u64)] {
        &self.steps
    }

    /// Faults detected at or before `cycle`.
    pub fn detected_at(&self, cycle: u64) -> usize {
        let k = self.steps.partition_point(|&(c, _)| c <= cycle);
        if k == 0 {
            0
        } else {
            self.steps[k - 1].1 as usize
        }
    }

    /// Coverage percent at or before `cycle`.
    pub fn percent_at(&self, cycle: u64) -> f64 {
        if self.faults == 0 {
            return 0.0;
        }
        100.0 * self.detected_at(cycle) as f64 / self.faults as f64
    }

    /// Final coverage percent. Computed with the same arithmetic as
    /// `FaultSimResult::coverage_percent`, so for a curve built from a
    /// result the two are equal as `f64` bit patterns.
    pub fn final_percent(&self) -> f64 {
        if self.faults == 0 {
            return 0.0;
        }
        100.0 * self.detected() as f64 / self.faults as f64
    }

    /// The smallest number of patterns that reaches `percent` coverage,
    /// or `None` if the campaign never got there. A detection at pattern
    /// index `d` needs `d + 1` applied patterns.
    pub fn patterns_to_percent(&self, percent: f64) -> Option<u64> {
        if self.faults == 0 {
            return None;
        }
        self.steps
            .iter()
            .find(|&&(_, n)| 100.0 * n as f64 / self.faults as f64 >= percent)
            .map(|&(c, _)| c + 1)
    }

    /// Patterns needed to reach the campaign's final coverage — the test
    /// length that was actually useful. `None` when nothing was detected.
    pub fn patterns_to_final(&self) -> Option<u64> {
        self.steps.last().map(|&(c, _)| c + 1)
    }

    /// Flatness of the curve's tail: the fraction of the final coverage
    /// that was already reached before the last quarter of the applied
    /// patterns. `1.0` means a perfectly flat tail (no detection landed in
    /// the last quarter — more patterns of the same kind won't help);
    /// `0.0` means every detection landed there (the curve is still
    /// climbing). A curve with no detections reads as flat (`1.0`).
    pub fn tail_flatness(&self) -> f64 {
        let detected = self.detected();
        if detected == 0 {
            return 1.0;
        }
        let tail_len = (self.cycles / 4).max(1);
        let tail_start = self.cycles.saturating_sub(tail_len);
        let before_tail = self
            .steps
            .iter()
            .take_while(|&&(c, _)| c < tail_start)
            .last()
            .map(|&(_, n)| n)
            .unwrap_or(0);
        before_tail as f64 / detected as f64
    }

    /// Condenses the curve into the scalar summary the bench trajectory
    /// and the report's stat tiles track.
    pub fn summary(&self) -> CurveSummary {
        let milestones = MILESTONE_LADDER
            .iter()
            .filter_map(|&t| self.patterns_to_percent(t as f64).map(|p| (t, p)))
            .collect();
        CurveSummary {
            faults: self.faults,
            detected: self.detected(),
            cycles: self.cycles,
            final_percent: self.final_percent(),
            patterns_to_90: self.patterns_to_percent(90.0),
            patterns_to_final: self.patterns_to_final(),
            tail_flatness: self.tail_flatness(),
            milestones,
        }
    }

    /// At most `max_points` evenly spaced `(cycle, percent)` samples for
    /// plotting, always including the first and last step. The full step
    /// list is preserved when it already fits.
    pub fn sampled_percent(&self, max_points: usize) -> Vec<(u64, f64)> {
        if self.faults == 0 || self.steps.is_empty() || max_points == 0 {
            return Vec::new();
        }
        let pct = |n: u64| 100.0 * n as f64 / self.faults as f64;
        if self.steps.len() <= max_points {
            return self.steps.iter().map(|&(c, n)| (c, pct(n))).collect();
        }
        let last = self.steps.len() - 1;
        let mut out = Vec::with_capacity(max_points);
        for i in 0..max_points {
            let idx = i * last / (max_points - 1).max(1);
            let (c, n) = self.steps[idx];
            if out.last().map(|&(pc, _)| pc) != Some(c) {
                out.push((c, pct(n)));
            }
        }
        out
    }
}

/// The coverage thresholds (percent) tracked as milestones in every
/// [`CurveSummary`]. Only the thresholds a campaign actually reached are
/// stored, so the last entry is the curve's *knee* — the highest ladder
/// rung the campaign climbed to.
pub const MILESTONE_LADDER: [u64; 7] = [10, 25, 50, 75, 90, 95, 99];

/// Scalar summary of one coverage curve: the test-length-efficiency
/// numbers the bench trajectory tracks next to wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct CurveSummary {
    /// Total faults in the universe.
    pub faults: usize,
    /// Faults detected.
    pub detected: usize,
    /// Patterns applied.
    pub cycles: u64,
    /// Final coverage percent.
    pub final_percent: f64,
    /// Patterns needed to reach 90% coverage, if it was reached.
    pub patterns_to_90: Option<u64>,
    /// Patterns needed to reach the final coverage.
    pub patterns_to_final: Option<u64>,
    /// Tail flatness in `[0, 1]` (see [`CoverageCurve::tail_flatness`]).
    pub tail_flatness: f64,
    /// Reached `(threshold_percent, patterns)` milestones from
    /// [`MILESTONE_LADDER`], in ascending threshold order.
    pub milestones: Vec<(u64, u64)>,
}

impl CurveSummary {
    /// Patterns needed to reach `percent` coverage, answered from the
    /// milestone ladder: the smallest reached threshold ≥ `percent`, or —
    /// when the campaign never got that far — the *knee*, the highest
    /// threshold actually reached. `None` only when nothing was detected
    /// past the lowest rung. The returned pair is
    /// `(threshold_percent, patterns)`, so a below-target curve reports an
    /// informative rung instead of `null`.
    pub fn patterns_to(&self, percent: u64) -> Option<(u64, u64)> {
        self.milestones
            .iter()
            .find(|&&(t, _)| t >= percent)
            .or_else(|| self.milestones.last())
            .copied()
    }

    /// Serializes the summary as a JSON object (`null` for unreached
    /// milestones).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let opt = |o: Option<u64>| o.map(|v| v.to_string()).unwrap_or_else(|| "null".into());
        let mut s = format!(
            "{{\"faults\":{},\"detected\":{},\"cycles\":{},\"final_percent\":{},\"patterns_to_90\":{},\"patterns_to_final\":{},\"tail_flatness\":{:.4},\"milestones\":[",
            self.faults,
            self.detected,
            self.cycles,
            self.final_percent,
            opt(self.patterns_to_90),
            opt(self.patterns_to_final),
            self.tail_flatness,
        );
        for (i, &(t, p)) in self.milestones.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "[{t},{p}]");
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_compressed_steps() {
        let det = [Some(3), None, Some(10), Some(3)];
        let c = CoverageCurve::from_detection(&det, 16);
        assert_eq!(c.faults(), 4);
        assert_eq!(c.detected(), 3);
        assert_eq!(c.steps(), &[(3, 2), (10, 3)]);
        assert_eq!(c.detected_at(2), 0);
        assert_eq!(c.detected_at(3), 2);
        assert_eq!(c.detected_at(9), 2);
        assert_eq!(c.detected_at(16), 3);
        assert!((c.final_percent() - 75.0).abs() < 1e-12);
    }

    #[test]
    fn patterns_to_milestones() {
        let det = [Some(0), Some(1), Some(1), Some(7), Some(9), None];
        let c = CoverageCurve::from_detection(&det, 20);
        // 90% of 6 faults needs 6 detections — never reached.
        assert_eq!(c.patterns_to_percent(90.0), None);
        // 50% needs 3 detections: reached at index 1 → 2 patterns.
        assert_eq!(c.patterns_to_percent(50.0), Some(2));
        assert_eq!(c.patterns_to_final(), Some(10));
    }

    #[test]
    fn tail_flatness_extremes() {
        // All detections early → flat tail.
        let early = CoverageCurve::from_detection(&[Some(0), Some(1)], 100);
        assert!((early.tail_flatness() - 1.0).abs() < 1e-12);
        // All detections in the last quarter → still climbing.
        let late = CoverageCurve::from_detection(&[Some(98), Some(99)], 100);
        assert_eq!(late.tail_flatness(), 0.0);
        // No detections at all reads as flat.
        let none = CoverageCurve::from_detection(&[None, None], 100);
        assert_eq!(none.tail_flatness(), 1.0);
    }

    #[test]
    fn empty_curve_is_benign() {
        let c = CoverageCurve::from_detection(&[], 0);
        assert_eq!(c.detected(), 0);
        assert_eq!(c.final_percent(), 0.0);
        assert_eq!(c.patterns_to_percent(90.0), None);
        assert_eq!(c.patterns_to_final(), None);
        assert!(c.sampled_percent(10).is_empty());
    }

    #[test]
    fn sampling_keeps_endpoints() {
        let det: Vec<Option<u64>> = (0..1000).map(|i| Some(i as u64)).collect();
        let c = CoverageCurve::from_detection(&det, 1000);
        let s = c.sampled_percent(64);
        assert!(s.len() <= 64);
        assert_eq!(s.first().map(|&(c, _)| c), Some(0));
        assert_eq!(s.last().map(|&(c, _)| c), Some(999));
        // Percent samples are monotonically nondecreasing.
        assert!(s.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn summary_round_trips_to_json() {
        let det = [Some(0), Some(2), Some(2), Some(3)];
        let s = CoverageCurve::from_detection(&det, 4).summary();
        assert_eq!(s.detected, 4);
        assert_eq!(s.patterns_to_90, Some(4));
        assert_eq!(s.patterns_to_final, Some(4));
        let j = s.to_json();
        assert!(j.contains("\"patterns_to_90\":4"), "{j}");
        assert!(j.contains("\"final_percent\":100"), "{j}");
        assert!(j.contains("\"milestones\":[[10,1]"), "{j}");
    }

    #[test]
    fn patterns_to_reports_the_knee_below_target() {
        // 8 faults, 4 detected → final coverage 50%: the ladder reaches
        // exactly the 10/25/50 rungs.
        let det = [Some(0), Some(5), Some(5), Some(11), None, None, None, None];
        let s = CoverageCurve::from_detection(&det, 16).summary();
        assert_eq!(
            s.milestones,
            vec![(10, 1), (25, 6), (50, 12)],
            "only reached rungs are stored"
        );
        // At or below the knee: the smallest rung covering the request.
        assert_eq!(s.patterns_to(25), Some((25, 6)));
        assert_eq!(s.patterns_to(40), Some((50, 12)));
        // Above the knee: report the knee itself instead of null.
        assert_eq!(s.patterns_to(90), Some((50, 12)));
        // A curve with no detections has no rungs at all.
        let empty = CoverageCurve::from_detection(&[None, None], 4).summary();
        assert!(empty.milestones.is_empty());
        assert_eq!(empty.patterns_to(90), None);
    }
}
