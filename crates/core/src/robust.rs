//! Fault-tolerant test sessions: watchdogs, retry-with-reseed, and
//! per-module quarantine.
//!
//! A plain TAP session ([`crate::session`]) assumes everything works: the
//! engine finishes, the scans are clean, and a signature mismatch is a
//! verdict. A production ATE cannot assume any of that. [`RobustSession`]
//! wraps the same protocol in the defensive loop of the paper's Fig. 4
//! applied at *test time* instead of design time:
//!
//! * every wait on `end_test` runs under a burst budget, and the whole
//!   session under a TCK watchdog ([`SessionBudget`]) — a hung engine
//!   surfaces as a typed error, never an endless poll;
//! * WDR status reads are majority-voted
//!   ([`soctest_p1500::TapDriver::read_status_voted`]), so a transient
//!   upset on one scan cannot fail a good module;
//! * a signature mismatch is retried up the [`RetryStrategy`] ladder —
//!   re-run, switch to the reciprocal primitive polynomial, re-seed — each
//!   retry re-rehearsing the golden signature under the same knobs. Only a
//!   mismatch that *reproduces under every strategy* quarantines the
//!   module; anything that clears was aliasing or noise;
//! * the result is a structured [`SessionReport`]: per-module attempt
//!   history, the quarantine list, and the TCK/functional-cycle bill.

use soctest_bist::EngineError;
use soctest_obs::{MetricsHandle, MetricsRegistry, TraceEvent, TraceHandle};
use soctest_p1500::{BistBackend, HungBackend, PinFaults, ProtocolError, TapDriver};

use crate::casestudy::CaseStudy;
use crate::error::SessionError;
use crate::session::WrappedCore;

/// The backend surface a robust session drives beyond the raw
/// [`BistBackend`] protocol: optional engine-level tracing and waveform
/// capture. Every method defaults to a no-op, so protocol-only backends
/// (signature-replay cores, mocks) plug into [`RobustSession::run_with`]
/// without ceremony, while the gate-level [`WrappedCore`] forwards to its
/// real implementations.
pub trait SessionBackend: BistBackend {
    /// Attaches a trace handle for engine-level events, when supported.
    fn set_trace(&mut self, _trace: TraceHandle) {}

    /// Starts waveform capture, when supported.
    fn enable_vcd(&mut self) {}

    /// Returns the captured waveform, when supported.
    fn take_vcd(&mut self) -> Option<String> {
        None
    }
}

impl<B: SessionBackend> SessionBackend for HungBackend<B> {
    fn set_trace(&mut self, trace: TraceHandle) {
        self.inner_mut().set_trace(trace);
    }

    fn enable_vcd(&mut self) {
        self.inner_mut().enable_vcd();
    }

    fn take_vcd(&mut self) -> Option<String> {
        self.inner_mut().take_vcd()
    }
}

/// Watchdog and protocol budgets for one robust session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionBudget {
    /// Hard ceiling on TCK cycles across all attempts; exceeding it aborts
    /// the session with [`SessionError::TckBudgetExceeded`].
    pub max_tck: u64,
    /// Functional cycles per burst while polling `end_test`.
    pub burst: u64,
    /// Maximum polling bursts per attempt before the engine is declared
    /// hung.
    pub max_bursts: u32,
    /// WDR reads per status query; the majority value wins.
    pub status_votes: u32,
}

impl Default for SessionBudget {
    fn default() -> Self {
        SessionBudget {
            max_tck: 100_000,
            burst: 64,
            max_bursts: 80,
            status_votes: 3,
        }
    }
}

/// One rung of the retry ladder: how to re-run a session whose signature
/// mismatched, to separate real faults from aliasing and noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryStrategy {
    /// The baseline configuration (default polynomial, default seed).
    Rerun,
    /// The reciprocal primitive polynomial at the same width — a different
    /// maximal-length sequence over the same state space, so an aliasing
    /// collision under the first polynomial almost surely breaks.
    ReciprocalPolynomial,
    /// The default polynomial started from a different seed.
    Reseed(u64),
}

impl RetryStrategy {
    /// The rung's mnemonic, for trace events and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            RetryStrategy::Rerun => "Rerun",
            RetryStrategy::ReciprocalPolynomial => "ReciprocalPolynomial",
            RetryStrategy::Reseed(_) => "Reseed",
        }
    }

    /// The `(variant, seed)` engine knobs this strategy turns (see
    /// [`CaseStudy::engine_variant`]). Public so shared-cache runners (the
    /// fleet) can rehearse signatures under the exact knobs a session's
    /// ladder will replay.
    pub fn engine_knobs(self) -> (u8, u64) {
        match self {
            RetryStrategy::Rerun => (0, 0),
            RetryStrategy::ReciprocalPolynomial => (1, 0),
            RetryStrategy::Reseed(seed) => (0, seed),
        }
    }
}

/// One attempt at one module: the strategy used, the golden signature the
/// rehearsal predicted, and the signature the DUT produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptRecord {
    /// The retry rung this attempt ran under.
    pub strategy: RetryStrategy,
    /// The fault-free signature from the rehearsal.
    pub golden: u64,
    /// The signature read back from the DUT over the TAP.
    pub signature: u64,
}

impl AttemptRecord {
    /// Whether the DUT matched the rehearsal.
    pub fn matched(&self) -> bool {
        self.golden == self.signature
    }
}

/// The verdict on one module after the retry ladder.
#[derive(Debug, Clone)]
pub struct ModuleOutcome {
    /// Module name.
    pub module: String,
    /// `true` when every strategy reproduced a mismatch: the module is
    /// excluded from service pending diagnosis.
    pub quarantined: bool,
    /// Every attempt made on this module, in ladder order.
    pub attempts: Vec<AttemptRecord>,
}

/// The structured outcome of a robust session.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Per-module verdicts, in module order.
    pub outcomes: Vec<ModuleOutcome>,
    /// TCK cycles spent across all attempts.
    pub tck_spent: u64,
    /// Functional (at-speed) cycles spent across all attempts.
    pub functional_cycles: u64,
    /// Patterns per execution.
    pub patterns: u64,
    /// The DUT waveform of the last attempt, when the session ran with
    /// [`RobustSession::with_vcd`].
    pub vcd: Option<String>,
}

impl SessionReport {
    /// `true` when no module was quarantined.
    pub fn all_passed(&self) -> bool {
        self.outcomes.iter().all(|o| !o.quarantined)
    }

    /// Names of the quarantined modules.
    pub fn quarantined(&self) -> Vec<&str> {
        self.outcomes
            .iter()
            .filter(|o| o.quarantined)
            .map(|o| o.module.as_str())
            .collect()
    }

    /// The retry-ladder strategies each module consumed, in attempt order
    /// and in the shared advisor vocabulary ([`RetryStrategy::name`]).
    pub fn strategy_names(&self) -> Vec<(String, Vec<String>)> {
        self.outcomes
            .iter()
            .map(|o| {
                (
                    o.module.clone(),
                    o.attempts
                        .iter()
                        .map(|a| a.strategy.name().to_owned())
                        .collect(),
                )
            })
            .collect()
    }

    /// Seeds a feedback-advisor input with this session's outcome: the
    /// quarantined modules and the ladder strategies already consumed.
    /// Callers append coverage curves and toggle rows before calling
    /// [`soctest_obs::analyze::advise`].
    pub fn advisor_input(&self) -> soctest_obs::analyze::AdvisorInput {
        soctest_obs::analyze::AdvisorInput {
            quarantined: self.quarantined().iter().map(|&s| s.to_owned()).collect(),
            strategies_tried: self.strategy_names(),
            ..Default::default()
        }
    }

    /// Folds this session's accounting into the unified metrics registry.
    pub fn export_metrics(&self, registry: &MetricsRegistry) {
        registry.inc("session_runs_total", 1);
        registry.inc("session_tck_total", self.tck_spent);
        registry.inc("session_functional_cycles_total", self.functional_cycles);
        let attempts: u64 = self.outcomes.iter().map(|o| o.attempts.len() as u64).sum();
        registry.inc("session_attempts_total", attempts);
        registry.inc("session_quarantines_total", self.quarantined().len() as u64);
        registry.set_gauge("session_modules", self.outcomes.len() as f64);
        registry.set_gauge("session_quarantined", self.quarantined().len() as f64);
        for o in &self.outcomes {
            registry.observe("session_attempts_per_module", o.attempts.len() as u64);
        }
    }
}

/// A fault-tolerant test session runner. Build one with a budget, then
/// [`RobustSession::run`] it against a device under test.
#[derive(Debug, Clone)]
pub struct RobustSession {
    budget: SessionBudget,
    strategies: Vec<RetryStrategy>,
    trace: TraceHandle,
    metrics: MetricsHandle,
    vcd: bool,
    pin_faults: PinFaults,
}

impl Default for RobustSession {
    fn default() -> Self {
        Self::new(SessionBudget::default())
    }
}

impl RobustSession {
    /// A session with the default retry ladder: re-run, reciprocal
    /// polynomial, re-seed.
    pub fn new(budget: SessionBudget) -> Self {
        RobustSession {
            budget,
            strategies: vec![
                RetryStrategy::Rerun,
                RetryStrategy::ReciprocalPolynomial,
                RetryStrategy::Reseed(0x5EED_CAFE),
            ],
            trace: TraceHandle::none(),
            metrics: MetricsHandle::none(),
            vcd: false,
            pin_faults: PinFaults::none(),
        }
    }

    /// Attaches a trace handle: session lifecycle events (start, attempts,
    /// escalations, watchdog checks, quarantines) plus the TAP- and
    /// engine-level events of the DUT run, stamped with cumulative TCK
    /// cycles.
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// Attaches a metrics handle: protocol counters accumulate during the
    /// run and the finished [`SessionReport`] is exported on success.
    pub fn with_metrics(mut self, metrics: MetricsHandle) -> Self {
        self.metrics = metrics;
        self
    }

    /// Records a VCD waveform of the DUT modules; the last attempt's dump
    /// lands in [`SessionReport::vcd`].
    pub fn with_vcd(mut self, vcd: bool) -> Self {
        self.vcd = vcd;
        self
    }

    /// Replaces the retry ladder. An empty ladder is promoted to a single
    /// [`RetryStrategy::Rerun`] so a session always makes one attempt.
    pub fn with_strategies(mut self, strategies: Vec<RetryStrategy>) -> Self {
        self.strategies = if strategies.is_empty() {
            vec![RetryStrategy::Rerun]
        } else {
            strategies
        };
        self
    }

    /// Arms a TAP pin-fault interposer for every attempt of the session:
    /// each rung's fresh [`TapDriver`] starts with `faults` injected, so
    /// the interposer's 1-based pin-cycle schedule replays identically per
    /// attempt. This is how a transient die (e.g. a periodically upset TDO
    /// line) is modeled at session level.
    pub fn with_pin_faults(mut self, faults: PinFaults) -> Self {
        self.pin_faults = faults;
        self
    }

    /// The configured budget.
    pub fn budget(&self) -> SessionBudget {
        self.budget
    }

    /// The retry ladder, in rung order.
    pub fn strategies(&self) -> &[RetryStrategy] {
        &self.strategies
    }

    /// Runs the full session: for each rung of the retry ladder (while any
    /// module is still unresolved), rehearse the golden signatures on the
    /// fault-free `reference` hardware, run the same session on the `dut`
    /// through the TAP, and compare per-module signatures via majority-voted
    /// WDR reads. A module passes at its first matching attempt; a module
    /// whose mismatch reproduces under every strategy is quarantined.
    ///
    /// # Errors
    ///
    /// * [`SessionError::Engine`] with [`EngineError::Hung`] when the
    ///   engine (golden or DUT) never raises `end_test` within the burst
    ///   budget — a hang is an infrastructure failure, not a module
    ///   verdict;
    /// * [`SessionError::TckBudgetExceeded`] when the accumulated TCK cost
    ///   crosses [`SessionBudget::max_tck`];
    /// * protocol errors (e.g. no status-read majority) from the TAP layer.
    pub fn run(
        &self,
        reference: &CaseStudy,
        dut: &CaseStudy,
        npatterns: u64,
    ) -> Result<SessionReport, SessionError> {
        let names: Vec<String> = dut.module_names().iter().map(|&s| s.to_owned()).collect();
        self.run_with(&names, npatterns, |strategy| {
            let (variant, seed) = strategy.engine_knobs();
            // Golden signatures: a fresh rehearsal of the fault-free
            // hardware under this strategy's polynomial and seed.
            let golden_engine = reference.engine_variant(variant, seed)?;
            let mut rehearsal = WrappedCore::with_engine(reference, golden_engine)?;
            let goldens = rehearsal.rehearse(npatterns)?;
            // The DUT backend the TAP session will drive.
            let dut_engine = dut.engine_variant(variant, seed)?;
            let backend = WrappedCore::with_engine(dut, dut_engine)?;
            Ok((goldens, backend))
        })
    }

    /// The generic retry-ladder runner behind [`RobustSession::run`]: for
    /// each rung (while any module is unresolved), `make` produces that
    /// strategy's golden signatures and a fresh DUT backend, and the runner
    /// drives one TAP session against it — watchdogs, pin faults,
    /// majority-voted status reads, and per-module quarantine all included.
    ///
    /// This is the seam that lets very different backends share one session
    /// discipline: [`run`](RobustSession::run) plugs in gate-level
    /// [`WrappedCore`]s, the fleet plugs in signature-replay cores fed from
    /// a shared cache, the autopilot's hang drill plugs in a hung replay
    /// core, and test harnesses plug in
    /// [`soctest_p1500::HungBackend`]-wrapped cores.
    ///
    /// # Errors
    ///
    /// Exactly as [`RobustSession::run`], plus whatever `make` returns.
    pub fn run_with<B, F>(
        &self,
        module_names: &[String],
        npatterns: u64,
        mut make: F,
    ) -> Result<SessionReport, SessionError>
    where
        B: SessionBackend,
        F: FnMut(RetryStrategy) -> Result<(Vec<u64>, B), SessionError>,
    {
        let nmodules = module_names.len();
        let mut attempts: Vec<Vec<AttemptRecord>> = vec![Vec::new(); nmodules];
        let mut resolved: Vec<bool> = vec![false; nmodules];
        let mut tck_spent = 0u64;
        let mut functional_cycles = 0u64;
        let mut vcd_doc: Option<String> = None;

        self.trace.emit(
            0,
            TraceEvent::SessionStart {
                patterns: npatterns,
                modules: nmodules as u8,
            },
        );

        for (rung, &strategy) in self.strategies.iter().enumerate() {
            if resolved.iter().all(|&r| r) {
                break;
            }
            if rung > 0 {
                for (m, &done) in resolved.iter().enumerate() {
                    if !done {
                        self.trace.emit(
                            tck_spent,
                            TraceEvent::RetryEscalation {
                                module: m as u8,
                                strategy: strategy.name(),
                            },
                        );
                    }
                }
            }
            let (goldens, mut backend) = make(strategy)?;
            backend.set_trace(self.trace.clone());
            if self.vcd {
                backend.enable_vcd();
            }
            let mut ate = TapDriver::new(backend);
            ate.set_trace(self.trace.clone());
            ate.set_metrics(self.metrics.clone());
            ate.inject_pin_faults(self.pin_faults);
            ate.reset();
            ate.bist_load_pattern_count(npatterns);
            ate.bist_start();
            match ate.wait_for_done(self.budget.burst, self.budget.max_bursts) {
                Ok(stats) => {
                    if let Some(registry) = self.metrics.registry() {
                        stats.export_metrics(registry);
                    }
                }
                Err(ProtocolError::DoneTimeout { cycles_waited, .. }) => {
                    // At session level a timeout is a hung engine: the poll
                    // budget covered the whole pattern count.
                    self.trace.emit(
                        tck_spent + ate.tck(),
                        TraceEvent::WatchdogFired {
                            spent: cycles_waited,
                            budget: self.budget.burst * u64::from(self.budget.max_bursts),
                        },
                    );
                    return Err(EngineError::Hung {
                        cycles: cycles_waited,
                    }
                    .into());
                }
                Err(e) => return Err(e.into()),
            }

            for (m, &golden) in goldens.iter().enumerate().take(nmodules) {
                if resolved[m] {
                    continue;
                }
                ate.bist_select_result(m as u8);
                let (_, signature) = ate.read_status_voted(self.budget.status_votes)?;
                let record = AttemptRecord {
                    strategy,
                    golden,
                    signature,
                };
                self.trace.emit(
                    tck_spent + ate.tck(),
                    TraceEvent::AttemptResult {
                        module: m as u8,
                        strategy: strategy.name(),
                        golden,
                        signature,
                        matched: record.matched(),
                    },
                );
                attempts[m].push(record);
                if record.matched() {
                    resolved[m] = true;
                    self.trace.emit(
                        tck_spent + ate.tck(),
                        TraceEvent::ModuleCleared { module: m as u8 },
                    );
                }
            }

            tck_spent += ate.tck();
            functional_cycles += ate.functional_cycles();
            if self.vcd {
                vcd_doc = ate.backend_mut().take_vcd();
            }
            if tck_spent > self.budget.max_tck {
                self.trace.emit(
                    tck_spent,
                    TraceEvent::WatchdogFired {
                        spent: tck_spent,
                        budget: self.budget.max_tck,
                    },
                );
                return Err(SessionError::TckBudgetExceeded {
                    spent: tck_spent,
                    budget: self.budget.max_tck,
                });
            }
            self.trace.emit(
                tck_spent,
                TraceEvent::WatchdogCheck {
                    spent: tck_spent,
                    budget: self.budget.max_tck,
                },
            );
        }

        for (m, &passed) in resolved.iter().enumerate() {
            if !passed {
                self.trace
                    .emit(tck_spent, TraceEvent::Quarantine { module: m as u8 });
            }
        }

        let outcomes = module_names
            .iter()
            .zip(attempts)
            .zip(&resolved)
            .map(|((name, attempts), &passed)| ModuleOutcome {
                module: name.clone(),
                quarantined: !passed,
                attempts,
            })
            .collect();
        let report = SessionReport {
            outcomes,
            tck_spent,
            functional_cycles,
            patterns: npatterns,
            vcd: vcd_doc,
        };
        if let Some(registry) = self.metrics.registry() {
            report.export_metrics(registry);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_hardware_passes_on_the_first_rung() {
        let reference = CaseStudy::paper().unwrap();
        let dut = CaseStudy::paper().unwrap();
        let report = RobustSession::default().run(&reference, &dut, 64).unwrap();
        assert!(report.all_passed());
        assert!(report.quarantined().is_empty());
        for outcome in &report.outcomes {
            assert_eq!(outcome.attempts.len(), 1, "no retries needed");
            assert_eq!(outcome.attempts[0].strategy, RetryStrategy::Rerun);
            assert!(outcome.attempts[0].matched());
        }
        assert!(report.tck_spent > 0);
        assert!(report.functional_cycles >= 64);
        assert_eq!(report.patterns, 64);
    }

    #[test]
    fn tck_watchdog_aborts_an_over_budget_session() {
        let reference = CaseStudy::paper().unwrap();
        let dut = CaseStudy::paper().unwrap();
        let session = RobustSession::new(SessionBudget {
            max_tck: 10,
            ..SessionBudget::default()
        });
        match session.run(&reference, &dut, 64) {
            Err(SessionError::TckBudgetExceeded { spent, budget }) => {
                assert!(spent > budget);
                assert_eq!(budget, 10);
            }
            other => panic!("expected a budget error, got {other:?}"),
        }
    }

    #[test]
    fn zero_patterns_hang_is_typed() {
        let reference = CaseStudy::paper().unwrap();
        let dut = CaseStudy::paper().unwrap();
        match RobustSession::default().run(&reference, &dut, 0) {
            Err(SessionError::Engine(EngineError::Hung { .. })) => {}
            other => panic!("expected a Hung error, got {other:?}"),
        }
    }

    #[test]
    fn traced_session_tells_the_quarantine_story() {
        use soctest_obs::{MetricsRegistry, TraceRecord, Tracer, VcdReader};
        use std::sync::Arc;

        let reference = CaseStudy::paper().unwrap();
        let mut dut = CaseStudy::paper().unwrap();
        let victim = dut.modules()[2].primary_outputs()[0];
        dut.module_mut(2).force_constant(victim, true);

        let trace = TraceHandle::new(Tracer::default());
        let registry = Arc::new(MetricsRegistry::new());
        let session = RobustSession::default()
            .with_trace(trace.clone())
            .with_metrics(MetricsHandle::from_arc(Arc::clone(&registry)))
            .with_vcd(true);
        let report = session.run(&reference, &dut, 64).unwrap();
        assert_eq!(report.quarantined(), vec!["CONTROL_UNIT"]);

        let recs: Vec<TraceRecord> = trace.with(|t| t.records().copied().collect()).unwrap();
        let names: Vec<&str> = recs.iter().map(|r| r.event.name()).collect();
        assert_eq!(names[0], "SessionStart");
        assert!(names.contains(&"AttemptResult"));
        assert!(names.contains(&"RetryEscalation"));
        assert!(names.contains(&"WatchdogCheck"));
        assert!(names.contains(&"Quarantine"));
        assert!(names.contains(&"ModuleCleared"));
        // The full ladder ran for the bad module: one escalation per
        // remaining rung.
        let escalations = recs
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::RetryEscalation { module: 2, .. }))
            .count();
        assert_eq!(escalations, 2);
        // Session-level stamps (cumulative TCK) never go backwards; the
        // engine- and TAP-level events in between run on their own clock
        // domains and restart each rung.
        let session_cycles: Vec<u64> = recs
            .iter()
            .filter(|r| {
                matches!(
                    r.event,
                    TraceEvent::SessionStart { .. }
                        | TraceEvent::AttemptResult { .. }
                        | TraceEvent::RetryEscalation { .. }
                        | TraceEvent::WatchdogCheck { .. }
                        | TraceEvent::Quarantine { .. }
                        | TraceEvent::ModuleCleared { .. }
                )
            })
            .map(|r| r.cycle)
            .collect();
        assert!(session_cycles.windows(2).all(|w| w[0] <= w[1]));

        // Metrics saw both the protocol counters and the session summary.
        let snap = registry.snapshot();
        assert_eq!(snap.counters.get("session_runs_total"), Some(&1));
        assert_eq!(snap.counters.get("session_quarantines_total"), Some(&1));
        assert!(
            snap.counters
                .get("tap_tck_cycles_total")
                .copied()
                .unwrap_or(0)
                > 0
        );
        assert_eq!(
            snap.counters.get("session_tck_total"),
            Some(&report.tck_spent)
        );

        // The waveform of the last attempt is attached and loadable.
        let vcd = report.vcd.as_deref().expect("vcd requested");
        let reader = VcdReader::parse(vcd).unwrap();
        let port = dut.modules()[2].ports()[0].name().to_owned();
        assert!(
            reader
                .value_at(&format!("m2_CONTROL_UNIT.{port}"), 1)
                .is_some(),
            "waveform carries module 2's ports"
        );
    }

    #[test]
    fn untraced_session_report_has_no_vcd() {
        let reference = CaseStudy::paper().unwrap();
        let dut = CaseStudy::paper().unwrap();
        let report = RobustSession::default().run(&reference, &dut, 64).unwrap();
        assert!(report.vcd.is_none());
    }

    #[test]
    fn empty_ladder_is_promoted_to_one_attempt() {
        let session = RobustSession::default().with_strategies(Vec::new());
        let reference = CaseStudy::paper().unwrap();
        let dut = CaseStudy::paper().unwrap();
        let report = session.run(&reference, &dut, 64).unwrap();
        assert!(report.all_passed());
        assert_eq!(report.outcomes[0].attempts.len(), 1);
    }
}
