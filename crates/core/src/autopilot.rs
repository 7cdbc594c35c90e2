//! The closed-loop coverage autopilot: the paper's Fig. 4 feedback loop
//! with the designer taken out of it.
//!
//! [`crate::eval::step2`] *measures* one campaign and
//! `soctest_obs::analyze` *advises*; neither acts. [`Autopilot`] closes the
//! loop: after each fault-simulation round it reads the [`CurveSummary`]
//! and pulls the lever the paper's §3.2 feedback would have asked a
//! designer to pull — add patterns while the curve still climbs, reseed or
//! switch to the reciprocal primitive polynomial when the tail flattens
//! below target, and as the last resort synthesize a weighted-random
//! constraint generator from the module's cold-net polarity
//! ([`crate::eval::learn_input_weights`]).
//!
//! Before the loop, the DUT is screened by one single-rung
//! [`RobustSession::run`] over every module.
//!
//! The robustness contract:
//!
//! * **Typed failures** — configuration mistakes come back as
//!   [`AutopilotError`], never a panic or a hang;
//! * **Hard ceilings** — rounds per module, patterns per round, and total
//!   simulated patterns are all bounded; crossing one ends the module with
//!   [`Verdict::BudgetExhausted`];
//! * **No-progress guard** — a lever that fails to raise coverage
//!   [`AutopilotConfig::demote_after`] times is demoted and never pulled
//!   again, and each failed round reverts to the best configuration seen;
//! * **Oscillation guard** — an A/B/A/B lever cycle with no net gain
//!   terminates the module with [`Verdict::Stalled`];
//! * **Per-module isolation** — a DUT module that mismatches its golden
//!   signature in the screen (or errors mid-flight) is degraded to
//!   [`Verdict::Quarantined`] while the other modules continue to their
//!   own verdicts; a screen that fails as a whole (a hung engine, a spent
//!   TCK budget) quarantines every module;
//! * **Decision trail** — every decision is emitted as a cycle-stamped
//!   trace event (the stamp is the cumulative number of simulated
//!   patterns, so the trail is seed-deterministic and replayable) and
//!   collected into [`AutopilotReport::trail_jsonl`].

use std::fmt;

use soctest_fault::{FaultUniverse, ParallelPolicy, SeqFaultSim, SeqFaultSimConfig};
use soctest_obs::{CurveSummary, TraceEvent, TraceHandle, Tracer};

use crate::casestudy::CaseStudy;
use crate::error::SessionError;
use crate::eval;
use crate::fleet::ReplayCore;
use crate::robust::{RetryStrategy, RobustSession, SessionBudget, SessionReport};

/// Knobs of one autopilot run. Validated once by [`Autopilot::new`], so a
/// constructed autopilot never fails on configuration.
#[derive(Debug, Clone, Copy)]
pub struct AutopilotConfig {
    /// Coverage target per module, in percent (0, 100].
    pub target_percent: f64,
    /// Patterns of the first round (doubled by the add-patterns lever).
    pub start_patterns: u64,
    /// Hard ceiling on patterns per round.
    pub max_patterns: u64,
    /// Hard ceiling on rounds per module.
    pub max_rounds: u64,
    /// Hard ceiling on total simulated patterns across all modules — the
    /// wall-clock watchdog of the loop, in the loop's own deterministic
    /// time unit.
    pub max_sim_patterns: u64,
    /// Tail-flatness threshold above which the curve counts as flat and
    /// adding patterns stops looking attractive (see
    /// [`soctest_obs::CoverageCurve::tail_flatness`]).
    pub flat_tail: f64,
    /// Master seed: every derived reseed and weighted-generator seed is a
    /// pure function of this, the module index, and the round number.
    pub seed: u64,
    /// Patterns of the pre-loop defect/hang screen per module.
    pub screen_patterns: u64,
    /// Watchdog budget of the screening TAP sessions.
    pub session: SessionBudget,
    /// No-progress uses before a lever is demoted.
    pub demote_after: u32,
    /// Worker-thread policy of the fault-simulation rounds.
    pub parallel: ParallelPolicy,
}

impl Default for AutopilotConfig {
    fn default() -> Self {
        AutopilotConfig {
            target_percent: 50.0,
            start_patterns: 96,
            max_patterns: 512,
            max_rounds: 12,
            max_sim_patterns: 16_384,
            flat_tail: 0.98,
            seed: 0xA5EED,
            screen_patterns: 64,
            session: SessionBudget::default(),
            demote_after: 2,
            parallel: ParallelPolicy::default(),
        }
    }
}

/// The typed failure lattice of the autopilot.
#[derive(Debug)]
#[non_exhaustive]
pub enum AutopilotError {
    /// A configuration field failed validation.
    Config {
        /// The offending field name.
        field: &'static str,
        /// The rejected value, rendered.
        value: String,
        /// Why it was rejected.
        reason: &'static str,
    },
    /// An infrastructure failure below the per-module isolation boundary
    /// (e.g. the fault-free reference itself cannot be simulated).
    Session(SessionError),
}

impl fmt::Display for AutopilotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutopilotError::Config {
                field,
                value,
                reason,
            } => {
                write!(f, "invalid autopilot config: {field} = {value}: {reason}")
            }
            AutopilotError::Session(e) => write!(f, "autopilot session failure: {e}"),
        }
    }
}

impl std::error::Error for AutopilotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AutopilotError::Session(e) => Some(e),
            AutopilotError::Config { .. } => None,
        }
    }
}

impl From<SessionError> for AutopilotError {
    fn from(e: SessionError) -> Self {
        AutopilotError::Session(e)
    }
}

/// Terminal state of one module after the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The coverage target was reached.
    Converged,
    /// Every remaining lever was demoted, or the lever sequence started
    /// cycling with no net gain.
    Stalled,
    /// A hard ceiling (rounds, simulated patterns) fired first.
    BudgetExhausted,
    /// The module hung or mismatched its golden signature and was degraded
    /// to best-effort; the loop never ran for it.
    Quarantined,
}

impl Verdict {
    /// The verdict's mnemonic, as it appears in the decision trail.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Converged => "Converged",
            Verdict::Stalled => "Stalled",
            Verdict::BudgetExhausted => "BudgetExhausted",
            Verdict::Quarantined => "Quarantined",
        }
    }
}

/// A lever the autopilot can pull between rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lever {
    /// Round 1: the unmodified configuration.
    Baseline,
    /// Double the pattern count (Fig. 4's "add patterns").
    MorePatterns,
    /// Restart the ALFSR from a derived seed.
    Reseed,
    /// Toggle to the reciprocal primitive polynomial.
    ReciprocalPolynomial,
    /// Synthesize a weighted-random constraint generator from cold-net
    /// polarity (§3.2's "redefine the Constraints Generator").
    WeightedCg,
}

/// Number of distinct levers (sizing for per-lever bookkeeping).
const NLEVERS: usize = 5;

impl Lever {
    /// The lever's name in the shared advisor vocabulary
    /// (`soctest_obs::analyze::strategy`).
    pub fn name(self) -> &'static str {
        use soctest_obs::analyze::strategy;
        match self {
            Lever::Baseline => strategy::RERUN,
            Lever::MorePatterns => strategy::MORE_PATTERNS,
            Lever::Reseed => strategy::RESEED,
            Lever::ReciprocalPolynomial => strategy::RECIPROCAL_POLYNOMIAL,
            Lever::WeightedCg => strategy::REDESIGN_CONSTRAINT_GENERATOR,
        }
    }

    fn index(self) -> usize {
        match self {
            Lever::Baseline => 0,
            Lever::MorePatterns => 1,
            Lever::Reseed => 2,
            Lever::ReciprocalPolynomial => 3,
            Lever::WeightedCg => 4,
        }
    }
}

/// One measured round of one module.
#[derive(Debug, Clone)]
pub struct RoundRecord {
    /// Round number (1-based).
    pub round: u64,
    /// The lever that produced this round's configuration.
    pub lever: Lever,
    /// Patterns applied this round.
    pub patterns: u64,
    /// Coverage after the round, in percent.
    pub coverage_percent: f64,
    /// The full curve summary of the round.
    pub summary: CurveSummary,
}

/// The autopilot's outcome for one module.
#[derive(Debug, Clone)]
pub struct ModuleReport {
    /// Module name.
    pub module: String,
    /// Module index (hookup order).
    pub index: usize,
    /// The terminal verdict.
    pub verdict: Verdict,
    /// Every measured round, in order (empty for a quarantined module).
    pub rounds: Vec<RoundRecord>,
    /// Final coverage in percent (0 for a quarantined module).
    pub final_percent: f64,
    /// The knee: patterns to the highest milestone the final curve
    /// reached — the per-module budget a re-run should stop at.
    pub recommended_patterns: Option<u64>,
    /// Levers demoted by the no-progress guard, in demotion order.
    pub demoted: Vec<&'static str>,
}

/// The structured outcome of one autopilot run.
#[derive(Debug, Clone)]
pub struct AutopilotReport {
    /// The coverage target the run chased, in percent.
    pub target_percent: f64,
    /// Per-module outcomes, in module order.
    pub modules: Vec<ModuleReport>,
    /// The decision trail as JSONL — one cycle-stamped trace event per
    /// line, byte-deterministic in the configuration seed.
    pub trail_jsonl: String,
    /// Total simulated patterns across all modules and rounds (the cycle
    /// stamps of the trail count up to this).
    pub sim_patterns: u64,
}

impl AutopilotReport {
    /// `(module, verdict)` pairs, in module order.
    pub fn verdicts(&self) -> Vec<(&str, Verdict)> {
        self.modules
            .iter()
            .map(|m| (m.module.as_str(), m.verdict))
            .collect()
    }

    /// `true` when every non-quarantined module converged.
    pub fn all_converged(&self) -> bool {
        self.modules
            .iter()
            .filter(|m| m.verdict != Verdict::Quarantined)
            .all(|m| m.verdict == Verdict::Converged)
    }
}

/// What one module's coverage loop concluded (internal).
struct Converged {
    verdict: Verdict,
    rounds: Vec<RoundRecord>,
    final_percent: f64,
    recommended: Option<u64>,
    demoted: Vec<&'static str>,
}

/// Pattern-source configuration of one round (internal).
#[derive(Clone)]
struct LoopState {
    patterns: u64,
    variant: u8,
    seed: u64,
    weighted: Option<(Vec<f64>, u64)>,
}

/// The closed-loop controller. Build with [`Autopilot::new`], optionally
/// inject a hang for fault drills, then [`Autopilot::run`].
#[derive(Debug, Clone)]
pub struct Autopilot {
    config: AutopilotConfig,
    hang_modules: Vec<usize>,
}

impl Autopilot {
    /// Validates `config` and builds the controller.
    ///
    /// # Errors
    ///
    /// [`AutopilotError::Config`] naming the offending field.
    pub fn new(config: AutopilotConfig) -> Result<Self, AutopilotError> {
        let bad = |field: &'static str, value: String, reason: &'static str| {
            Err(AutopilotError::Config {
                field,
                value,
                reason,
            })
        };
        if !(config.target_percent > 0.0 && config.target_percent <= 100.0) {
            return bad(
                "target_percent",
                format!("{}", config.target_percent),
                "must be in (0, 100]",
            );
        }
        if config.start_patterns == 0 {
            return bad("start_patterns", "0".to_owned(), "must be at least 1");
        }
        if config.max_patterns < config.start_patterns {
            return bad(
                "max_patterns",
                format!("{}", config.max_patterns),
                "must be >= start_patterns",
            );
        }
        if config.max_rounds == 0 {
            return bad("max_rounds", "0".to_owned(), "must be at least 1");
        }
        if config.max_sim_patterns < config.start_patterns {
            return bad(
                "max_sim_patterns",
                format!("{}", config.max_sim_patterns),
                "must cover at least one round",
            );
        }
        if !(config.flat_tail > 0.0 && config.flat_tail <= 1.0) {
            return bad(
                "flat_tail",
                format!("{}", config.flat_tail),
                "must be in (0, 1]",
            );
        }
        if config.screen_patterns == 0 {
            return bad("screen_patterns", "0".to_owned(), "must be at least 1");
        }
        if config.demote_after == 0 {
            return bad("demote_after", "0".to_owned(), "must be at least 1");
        }
        Ok(Autopilot {
            config,
            hang_modules: Vec::new(),
        })
    }

    /// The validated configuration.
    pub fn config(&self) -> &AutopilotConfig {
        &self.config
    }

    /// Fault drill: module `m`'s screen is a session over a hung
    /// [`ReplayCore`] that never raises `end_test`, so the run exercises
    /// the hang→quarantine degradation without a broken netlist.
    pub fn with_injected_hang(mut self, m: usize) -> Self {
        self.hang_modules.push(m);
        self
    }

    /// Runs the closed loop: screen every DUT module for defects and
    /// hangs, then iterate each healthy module's coverage to the target
    /// (or a [`Verdict::Stalled`] / [`Verdict::BudgetExhausted`] verdict)
    /// with no human in the loop. Quarantined modules degrade to
    /// best-effort; the rest continue.
    ///
    /// The screen is one [`RobustSession::run`] over every module on a
    /// single [`RetryStrategy::Rerun`] rung, under
    /// [`AutopilotConfig::session`]'s watchdogs: a mismatching module is
    /// quarantined, and a session error (a hung engine, a spent TCK budget)
    /// quarantines every module, because the screen could vouch for none.
    ///
    /// # Errors
    ///
    /// None at present: per-module trouble, in the screen or in a round,
    /// becomes a [`Verdict::Quarantined`], not an error.
    pub fn run(
        &self,
        reference: &CaseStudy,
        dut: &CaseStudy,
    ) -> Result<AutopilotReport, AutopilotError> {
        let trace = TraceHandle::new(Tracer::default());

        let names: Vec<String> = dut.module_names().iter().map(|&s| s.to_owned()).collect();
        let nmodules = names.len();
        let target_bp = to_bp(self.config.target_percent);
        trace.emit(
            0,
            TraceEvent::AutopilotStart {
                modules: nmodules as u8,
                target_bp,
            },
        );

        // The screen: one single-rung session over every module. The
        // screener runs untraced, so the trail stays a pure record of
        // autopilot decisions, not TAP chatter.
        let screener =
            RobustSession::new(self.config.session).with_strategies(vec![RetryStrategy::Rerun]);
        let patterns = self.config.screen_patterns;
        let mut passed = screened(screener.run(reference, dut, patterns), nmodules);
        if !self.hang_modules.is_empty() {
            // Fault drill: the same session over an engine that never
            // raises `end_test` stands in for the drilled modules' screen.
            let spec = dut.spec();
            let drill = screened(
                screener.run_with(&names, patterns, |_| {
                    let hung =
                        ReplayCore::new(spec.counter_bits, Vec::new(), spec.misr_width, true);
                    Ok((Vec::new(), hung))
                }),
                nmodules,
            );
            for &m in &self.hang_modules {
                if let Some(p) = passed.get_mut(m) {
                    *p = drill[m];
                }
            }
        }

        let mut sim_patterns = 0u64;
        let mut modules = Vec::with_capacity(nmodules);
        for (m, name) in names.into_iter().enumerate() {
            let outcome = if passed[m] {
                // Mid-loop session errors degrade the module.
                self.converge_module(reference, m, &trace, &mut sim_patterns)
                    .unwrap_or_else(|_| quarantined())
            } else {
                quarantined()
            };
            trace.emit(
                sim_patterns,
                TraceEvent::AutopilotVerdict {
                    module: m as u8,
                    verdict: outcome.verdict.name(),
                    rounds: outcome.rounds.len() as u64,
                    coverage_bp: to_bp(outcome.final_percent),
                },
            );
            modules.push(ModuleReport {
                module: name,
                index: m,
                verdict: outcome.verdict,
                rounds: outcome.rounds,
                final_percent: outcome.final_percent,
                recommended_patterns: outcome.recommended,
                demoted: outcome.demoted,
            });
        }

        Ok(AutopilotReport {
            target_percent: self.config.target_percent,
            modules,
            trail_jsonl: trace.with(|t| t.to_jsonl()).unwrap_or_default(),
            sim_patterns,
        })
    }

    /// The per-module coverage loop (the heart of the controller).
    fn converge_module(
        &self,
        reference: &CaseStudy,
        m: usize,
        trace: &TraceHandle,
        sim_patterns: &mut u64,
    ) -> Result<Converged, SessionError> {
        const EPSILON: f64 = 0.1; // percentage points that count as progress

        let universe = FaultUniverse::stuck_at(&reference.modules()[m]);
        let mut state = LoopState {
            patterns: self.config.start_patterns,
            variant: 0,
            seed: 0,
            weighted: None,
        };
        let mut best = state.clone();
        let mut best_percent = 0.0f64;
        let mut last_improved_round = 0u64;
        let mut fails = [0u32; NLEVERS];
        let mut is_demoted = [false; NLEVERS];
        let mut demoted: Vec<&'static str> = Vec::new();
        let mut lever = Lever::Baseline;
        let mut history: Vec<Lever> = Vec::new();
        let mut rounds: Vec<RoundRecord> = Vec::new();
        let mut round = 0u64;

        let verdict = loop {
            round += 1;
            let pgen = match &state.weighted {
                Some((weights, seed)) => reference.weighted_pattern_generator(m, weights, *seed)?,
                None => reference.pattern_generator_variant(state.variant, state.seed)?,
            };
            let mut stim = pgen.stimulus(m, state.patterns);
            let sim = SeqFaultSim::new(
                &universe,
                SeqFaultSimConfig {
                    parallel: self.config.parallel,
                    ..Default::default()
                },
            );
            let result = sim.run(&mut stim)?;
            *sim_patterns += state.patterns;
            let summary = result.curve().summary();
            let percent = result.coverage_percent();
            trace.emit(
                *sim_patterns,
                TraceEvent::AutopilotDecision {
                    module: m as u8,
                    round,
                    lever: lever.name(),
                    coverage_bp: to_bp(percent),
                    patterns: state.patterns,
                },
            );
            history.push(lever);
            rounds.push(RoundRecord {
                round,
                lever,
                patterns: state.patterns,
                coverage_percent: percent,
                summary,
            });

            // No-progress guard: a lever that does not move the needle is
            // charged a failure, its configuration reverted to the best
            // seen, and on repeat offenses demoted for good.
            if percent > best_percent + EPSILON {
                best_percent = percent;
                best = state.clone();
                last_improved_round = round;
            } else {
                fails[lever.index()] += 1;
                state = best.clone();
                if fails[lever.index()] >= self.config.demote_after
                    && lever != Lever::Baseline
                    && !is_demoted[lever.index()]
                {
                    is_demoted[lever.index()] = true;
                    demoted.push(lever.name());
                    trace.emit(
                        *sim_patterns,
                        TraceEvent::AutopilotLeverDemoted {
                            module: m as u8,
                            lever: lever.name(),
                        },
                    );
                }
            }

            if percent >= self.config.target_percent {
                break Verdict::Converged;
            }
            if round >= self.config.max_rounds || *sim_patterns >= self.config.max_sim_patterns {
                break Verdict::BudgetExhausted;
            }
            // Oscillation guard: an A/B/A/B tail with no net gain over
            // those four rounds is a cycle, not a search.
            if history.len() >= 4 && round.saturating_sub(last_improved_round) >= 4 {
                let h = &history[history.len() - 4..];
                if h[3] == h[1] && h[2] == h[0] && h[3] != h[2] {
                    break Verdict::Stalled;
                }
            }

            let tail = rounds
                .last()
                .map(|r| r.summary.tail_flatness)
                .unwrap_or(1.0);
            let Some(next) = self.pick_lever(tail, state.patterns, &is_demoted) else {
                break Verdict::Stalled;
            };
            lever = next;
            match lever {
                Lever::Baseline => {}
                Lever::MorePatterns => {
                    state.patterns = (state.patterns * 2).min(self.config.max_patterns);
                }
                Lever::Reseed => {
                    state.seed = derive_seed(self.config.seed, m, round);
                    state.weighted = None;
                }
                Lever::ReciprocalPolynomial => {
                    state.variant ^= 1;
                    state.weighted = None;
                }
                Lever::WeightedCg => {
                    let weights = eval::learn_input_weights(reference, m, state.patterns.min(256))?;
                    state.weighted = Some((weights, derive_seed(self.config.seed, m, round)));
                }
            }
        };

        let final_percent = rounds.last().map(|r| r.coverage_percent).unwrap_or(0.0);
        let recommended = rounds
            .last()
            .and_then(|r| {
                r.summary
                    .patterns_to(self.config.target_percent.round() as u64)
            })
            .map(|(_, p)| p);
        Ok(Converged {
            verdict,
            rounds,
            final_percent,
            recommended,
            demoted,
        })
    }

    /// Chooses the next lever: keep adding patterns while the tail still
    /// climbs and headroom remains, otherwise escalate through reseed →
    /// reciprocal polynomial → weighted constraint generator, skipping
    /// demoted rungs. `None` means the toolbox is empty.
    fn pick_lever(&self, tail: f64, patterns: u64, demoted: &[bool; NLEVERS]) -> Option<Lever> {
        let more_ok = patterns < self.config.max_patterns && !demoted[Lever::MorePatterns.index()];
        if tail < self.config.flat_tail && more_ok {
            return Some(Lever::MorePatterns);
        }
        for l in [
            Lever::Reseed,
            Lever::ReciprocalPolynomial,
            Lever::WeightedCg,
        ] {
            if !demoted[l.index()] {
                return Some(l);
            }
        }
        if more_ok {
            return Some(Lever::MorePatterns);
        }
        None
    }
}

/// Which modules a screening session cleared. A session error (a hung
/// engine, a spent TCK budget, a status read with no majority) clears none:
/// the screen cannot vouch for any module it covered.
fn screened(report: Result<SessionReport, SessionError>, nmodules: usize) -> Vec<bool> {
    match report {
        Ok(report) => report.outcomes.iter().map(|o| !o.quarantined).collect(),
        Err(_) => vec![false; nmodules],
    }
}

/// A degraded (quarantined) module outcome.
fn quarantined() -> Converged {
    Converged {
        verdict: Verdict::Quarantined,
        rounds: Vec::new(),
        final_percent: 0.0,
        recommended: None,
        demoted: Vec::new(),
    }
}

/// Percent → basis points for the trail's integer-only events.
fn to_bp(percent: f64) -> u64 {
    (percent * 100.0).round().max(0.0) as u64
}

/// SplitMix64-style seed derivation: a pure function of the master seed,
/// module, and round, so every replay pulls identical levers.
fn derive_seed(master: u64, module: usize, round: u64) -> u64 {
    let mut z = master
        ^ (module as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ round.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_names_the_field() {
        let check = |cfg: AutopilotConfig, want: &str| match Autopilot::new(cfg) {
            Err(AutopilotError::Config { field, .. }) => assert_eq!(field, want),
            other => panic!("expected a config error on {want}, got {other:?}"),
        };
        check(
            AutopilotConfig {
                target_percent: 0.0,
                ..Default::default()
            },
            "target_percent",
        );
        check(
            AutopilotConfig {
                start_patterns: 0,
                ..Default::default()
            },
            "start_patterns",
        );
        check(
            AutopilotConfig {
                max_patterns: 1,
                ..Default::default()
            },
            "max_patterns",
        );
        check(
            AutopilotConfig {
                max_rounds: 0,
                ..Default::default()
            },
            "max_rounds",
        );
        check(
            AutopilotConfig {
                flat_tail: 1.5,
                ..Default::default()
            },
            "flat_tail",
        );
        check(
            AutopilotConfig {
                demote_after: 0,
                ..Default::default()
            },
            "demote_after",
        );
        let err = Autopilot::new(AutopilotConfig {
            target_percent: -3.0,
            ..Default::default()
        })
        .map(|_| ())
        .unwrap_err();
        assert!(err.to_string().contains("target_percent"));
    }

    #[test]
    fn easy_target_converges_in_one_round() {
        let case = CaseStudy::paper().unwrap();
        let pilot = Autopilot::new(AutopilotConfig {
            target_percent: 5.0,
            start_patterns: 16,
            max_patterns: 32,
            max_rounds: 2,
            screen_patterns: 32,
            ..Default::default()
        })
        .unwrap();
        let report = pilot.run(&case, &case).unwrap();
        assert_eq!(report.modules.len(), 3);
        assert!(report.all_converged(), "verdicts: {:?}", report.verdicts());
        for m in &report.modules {
            assert_eq!(m.verdict, Verdict::Converged);
            assert_eq!(m.rounds.len(), 1);
            assert_eq!(m.rounds[0].lever, Lever::Baseline);
            assert!(m.final_percent >= 5.0);
        }
        // The trail tells the whole story in order.
        assert!(report.trail_jsonl.contains("\"AutopilotStart\""));
        assert!(report.trail_jsonl.contains("\"AutopilotDecision\""));
        assert!(report.trail_jsonl.contains("\"Converged\""));
        assert!(report.sim_patterns >= 48, "3 modules x 16 patterns");
    }

    #[test]
    fn screen_quarantines_a_defective_module_and_clears_the_rest() {
        let reference = CaseStudy::paper().unwrap();
        let mut dut = CaseStudy::paper().unwrap();
        // Plant the defect: CHECK_NODE's first output net stuck at 1.
        let victim = dut.modules()[1].primary_outputs()[0];
        dut.module_mut(1).force_constant(victim, true);
        let pilot = Autopilot::new(AutopilotConfig {
            target_percent: 5.0,
            start_patterns: 16,
            max_patterns: 32,
            max_rounds: 2,
            screen_patterns: 32,
            ..Default::default()
        })
        .unwrap();
        let report = pilot.run(&reference, &dut).unwrap();
        let check_node = &report.modules[1];
        assert_eq!(check_node.module, "CHECK_NODE");
        assert_eq!(check_node.verdict, Verdict::Quarantined);
        assert!(check_node.rounds.is_empty());
        // The other two passed the screen and ran their coverage loops.
        for m in [&report.modules[0], &report.modules[2]] {
            assert_eq!(m.verdict, Verdict::Converged, "{}", m.module);
            assert_eq!(m.rounds.len(), 1);
        }
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(1, 0, 1), derive_seed(1, 0, 1));
        assert_ne!(derive_seed(1, 0, 1), derive_seed(1, 0, 2));
        assert_ne!(derive_seed(1, 0, 1), derive_seed(1, 1, 1));
        assert_ne!(derive_seed(1, 0, 1), derive_seed(2, 0, 1));
    }

    #[test]
    fn lever_names_use_the_advisor_vocabulary() {
        use soctest_obs::analyze::strategy;
        assert_eq!(Lever::Reseed.name(), strategy::RESEED);
        assert_eq!(
            Lever::WeightedCg.name(),
            strategy::REDESIGN_CONSTRAINT_GENERATOR
        );
        assert_eq!(Verdict::BudgetExhausted.name(), "BudgetExhausted");
    }
}
