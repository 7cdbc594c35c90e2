//! Campaign analytics: toggle heatmaps, syndrome class-size distributions,
//! and the feedback advisor that maps the findings onto the paper's tuning
//! loop (add patterns / swap the ALFSR polynomial / redesign a Constraint
//! Generator).
//!
//! Everything here is plain data — the producing layers (sim, fault, core)
//! translate their domain types into these rows, so `soctest-obs` stays at
//! the bottom of the dependency graph.

use crate::curve::CurveSummary;

/// Strategy vocabulary shared with `RobustSession`'s retry ladder
/// (`RetryStrategy::name`), extended with the two paper-loop actions the
/// ladder cannot take on its own.
pub mod strategy {
    /// Re-run the same test unchanged (transient screen).
    pub const RERUN: &str = "Rerun";
    /// Switch the ALFSR to the reciprocal characteristic polynomial.
    pub const RECIPROCAL_POLYNOMIAL: &str = "ReciprocalPolynomial";
    /// Re-seed the ALFSR and re-run.
    pub const RESEED: &str = "Reseed";
    /// Extend the test: the coverage curve is still climbing.
    pub const MORE_PATTERNS: &str = "MorePatterns";
    /// Redesign the module's Constraint Generator (the paper's last
    /// resort when pseudo-random patterns stop paying).
    pub const REDESIGN_CONSTRAINT_GENERATOR: &str = "RedesignConstraintGenerator";
}

/// One module's row in the toggle heatmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ToggleRow {
    /// Module name.
    pub module: String,
    /// Observable nets in the module.
    pub nets: usize,
    /// Nets that toggled (saw both levels) during step 1.
    pub toggled: usize,
    /// Total level transitions summed over all nets.
    pub transitions: u64,
    /// Never-toggled ("cold") nets, keyed back to the netlist:
    /// `(net id, human-readable description)`.
    pub cold: Vec<(u32, String)>,
}

impl ToggleRow {
    /// Toggle activity in percent.
    pub fn activity_percent(&self) -> f64 {
        if self.nets == 0 {
            return 0.0;
        }
        100.0 * self.toggled as f64 / self.nets as f64
    }
}

/// One module × fault-model coverage curve, condensed for the advisor.
#[derive(Debug, Clone, PartialEq)]
pub struct CurveFacts {
    /// Module name.
    pub module: String,
    /// Fault model label (`SAF` / `TDF`).
    pub model: String,
    /// The curve's scalar summary.
    pub summary: CurveSummary,
}

/// Class-size distribution of a diagnostic matrix: `(class size, how many
/// classes have that size)`, ascending by size.
pub fn class_size_distribution(sizes: &[usize]) -> Vec<(usize, usize)> {
    let mut dist: Vec<(usize, usize)> = Vec::new();
    let mut sorted = sizes.to_vec();
    sorted.sort_unstable();
    for s in sorted {
        match dist.last_mut() {
            Some((sz, n)) if *sz == s => *n += 1,
            _ => dist.push((s, 1)),
        }
    }
    dist
}

/// Diagnostic resolution at one pattern budget.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolutionPoint {
    /// Patterns applied before reading the syndromes.
    pub patterns: u64,
    /// Syndrome classes observed.
    pub classes: usize,
    /// Fraction of detected faults that are uniquely identified.
    pub resolution: f64,
}

/// Everything the advisor looks at, already reduced to plain data.
#[derive(Debug, Clone, Default)]
pub struct AdvisorInput {
    /// Coverage-curve summaries, one per module × fault model.
    pub curves: Vec<CurveFacts>,
    /// Toggle heatmap rows (step 1).
    pub toggle: Vec<ToggleRow>,
    /// Modules the robust session quarantined.
    pub quarantined: Vec<String>,
    /// Retry-ladder strategies each module already consumed, in order
    /// (`RetryStrategy::name` vocabulary).
    pub strategies_tried: Vec<(String, Vec<String>)>,
}

/// One advisor suggestion: a module, a strategy from the shared
/// vocabulary, and the evidence it rests on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Advice {
    /// Module the suggestion targets.
    pub module: String,
    /// Suggested strategy (see [`strategy`]).
    pub strategy: &'static str,
    /// Human-readable evidence for the suggestion.
    pub reason: String,
}

/// Coverage below this is worth acting on.
const COVERAGE_TARGET: f64 = 90.0;
/// A tail at least this flat means more identical patterns won't pay.
const FLAT_TAIL: f64 = 0.98;
/// A module holding at least this fraction of all cold nets is the
/// concentration the paper's CG-redesign heuristic looks for.
const COLD_CONCENTRATION: f64 = 0.5;

/// Maps campaign findings onto the paper's feedback loop. Returns one
/// suggestion per `(module, strategy)` pair, quarantine findings first.
pub fn advise(input: &AdvisorInput) -> Vec<Advice> {
    let mut out: Vec<Advice> = Vec::new();
    let mut push = |module: &str, strategy: &'static str, reason: String| {
        if !out
            .iter()
            .any(|a| a.module == module && a.strategy == strategy)
        {
            out.push(Advice {
                module: module.to_owned(),
                strategy,
                reason,
            });
        }
    };

    // 1. Quarantined modules: the retry ladder ran out on silicon that
    //    keeps failing — pseudo-random tuning is done, escalate to the CG.
    for module in &input.quarantined {
        let tried = input
            .strategies_tried
            .iter()
            .find(|(m, _)| m == module)
            .map(|(_, s)| s.join(", "))
            .unwrap_or_else(|| "every ladder strategy".to_owned());
        push(
            module,
            strategy::REDESIGN_CONSTRAINT_GENERATOR,
            format!(
                "quarantined after the retry ladder ({tried}) kept failing: \
                 the defect persists under every pattern strategy — diagnose \
                 the syndrome classes and revisit this module's Constraint \
                 Generator"
            ),
        );
    }

    // 2. Coverage curves below target: flat tail → pattern-source change;
    //    still climbing → just extend the test.
    for cf in &input.curves {
        let s = &cf.summary;
        if s.final_percent >= COVERAGE_TARGET || s.faults == 0 {
            continue;
        }
        if s.tail_flatness >= FLAT_TAIL {
            let reseed_spent = input
                .strategies_tried
                .iter()
                .any(|(m, tried)| m == &cf.module && tried.iter().any(|t| t == strategy::RESEED));
            let (next, extra) = if reseed_spent {
                (
                    strategy::RECIPROCAL_POLYNOMIAL,
                    "reseeding is already spent — swap the characteristic polynomial",
                )
            } else {
                (strategy::RESEED, "reseed the ALFSR or swap its polynomial")
            };
            push(
                &cf.module,
                next,
                format!(
                    "{} coverage stuck at {:.1}% with a flat tail \
                     (flatness {:.2}): more of the same patterns won't help; {}",
                    cf.model, s.final_percent, s.tail_flatness, extra
                ),
            );
        } else {
            push(
                &cf.module,
                strategy::MORE_PATTERNS,
                format!(
                    "{} coverage {:.1}% after {} patterns and the curve is \
                     still climbing (tail flatness {:.2}): extend the test",
                    cf.model, s.final_percent, s.cycles, s.tail_flatness
                ),
            );
        }
    }

    // 3. Cold-net concentration: when one module owns most of the
    //    never-toggled nets, its Constraint Generator is starving them.
    let total_cold: usize = input.toggle.iter().map(|r| r.cold.len()).sum();
    if total_cold >= 4 {
        for row in &input.toggle {
            if row.cold.len() as f64 / total_cold as f64 > COLD_CONCENTRATION {
                push(
                    &row.module,
                    strategy::REDESIGN_CONSTRAINT_GENERATOR,
                    format!(
                        "{} of the campaign's {} never-toggled nets sit in \
                         this module (activity {:.1}%): its Constraint \
                         Generator is not exercising them",
                        row.cold.len(),
                        total_cold,
                        row.activity_percent()
                    ),
                );
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(final_percent: f64, tail_flatness: f64, cycles: u64) -> CurveSummary {
        CurveSummary {
            faults: 100,
            detected: (final_percent as usize).min(100),
            cycles,
            final_percent,
            patterns_to_90: None,
            patterns_to_final: Some(cycles),
            tail_flatness,
            milestones: Vec::new(),
        }
    }

    #[test]
    fn class_distribution_counts_sizes() {
        assert_eq!(
            class_size_distribution(&[3, 1, 1, 2, 1]),
            vec![(1, 3), (2, 1), (3, 1)]
        );
        assert!(class_size_distribution(&[]).is_empty());
    }

    #[test]
    fn quarantine_names_module_and_ladder() {
        let input = AdvisorInput {
            quarantined: vec!["CONTROL_UNIT".into()],
            strategies_tried: vec![(
                "CONTROL_UNIT".into(),
                vec![
                    "Rerun".into(),
                    "ReciprocalPolynomial".into(),
                    "Reseed".into(),
                ],
            )],
            ..Default::default()
        };
        let advice = advise(&input);
        assert_eq!(advice.len(), 1);
        assert_eq!(advice[0].module, "CONTROL_UNIT");
        assert_eq!(advice[0].strategy, strategy::REDESIGN_CONSTRAINT_GENERATOR);
        assert!(advice[0].reason.contains("Reseed"));
    }

    #[test]
    fn flat_tail_suggests_reseed_then_polynomial() {
        let mut input = AdvisorInput {
            curves: vec![CurveFacts {
                module: "CHECK_NODE".into(),
                model: "SAF".into(),
                summary: summary(62.0, 1.0, 4096),
            }],
            ..Default::default()
        };
        let advice = advise(&input);
        assert_eq!(advice[0].strategy, strategy::RESEED);
        // Once Reseed is spent, escalate to the reciprocal polynomial.
        input.strategies_tried = vec![("CHECK_NODE".into(), vec!["Reseed".into()])];
        let advice = advise(&input);
        assert_eq!(advice[0].strategy, strategy::RECIPROCAL_POLYNOMIAL);
    }

    #[test]
    fn climbing_curve_asks_for_more_patterns() {
        let input = AdvisorInput {
            curves: vec![CurveFacts {
                module: "BIT_NODE".into(),
                model: "TDF".into(),
                summary: summary(70.0, 0.5, 512),
            }],
            ..Default::default()
        };
        let advice = advise(&input);
        assert_eq!(advice[0].strategy, strategy::MORE_PATTERNS);
        assert!(advice[0].reason.contains("512"));
    }

    #[test]
    fn covered_modules_get_no_advice() {
        let input = AdvisorInput {
            curves: vec![CurveFacts {
                module: "BIT_NODE".into(),
                model: "SAF".into(),
                summary: summary(97.5, 1.0, 4096),
            }],
            ..Default::default()
        };
        assert!(advise(&input).is_empty());
    }

    #[test]
    fn cold_net_concentration_targets_the_owning_module() {
        let cold = |n: usize| (0..n).map(|i| (i as u32, format!("n{i}"))).collect();
        let input = AdvisorInput {
            toggle: vec![
                ToggleRow {
                    module: "BIT_NODE".into(),
                    nets: 100,
                    toggled: 99,
                    transitions: 500,
                    cold: cold(1),
                },
                ToggleRow {
                    module: "CONTROL_UNIT".into(),
                    nets: 40,
                    toggled: 33,
                    transitions: 80,
                    cold: cold(7),
                },
            ],
            ..Default::default()
        };
        let advice = advise(&input);
        assert_eq!(advice.len(), 1);
        assert_eq!(advice[0].module, "CONTROL_UNIT");
        assert_eq!(advice[0].strategy, strategy::REDESIGN_CONSTRAINT_GENERATOR);
        assert!(advice[0].reason.contains("7"));
    }

    #[test]
    fn duplicate_module_strategy_pairs_collapse() {
        let input = AdvisorInput {
            quarantined: vec!["CONTROL_UNIT".into()],
            toggle: vec![ToggleRow {
                module: "CONTROL_UNIT".into(),
                nets: 10,
                toggled: 2,
                transitions: 4,
                cold: (0..8).map(|i| (i as u32, format!("n{i}"))).collect(),
            }],
            ..Default::default()
        };
        let advice = advise(&input);
        // Both heuristics point at CONTROL_UNIT/RedesignCG; only one survives.
        assert_eq!(advice.len(), 1);
    }
}
