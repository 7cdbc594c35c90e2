//! `gate-sessions`: one gate-level `RobustSession` per die over
//! `WrappedCore` — the paper's TAP → P1500 → BIST → core flow, with no
//! signature cache. Dies come from a 50 %-defective fleet; each defect is
//! planted for real, as the conformance oracle does: `force_constant` for
//! a stuck-at, a TDO pin fault for a transient, `HungBackend` for a hung
//! engine. Every die's verdict and TCK bill must equal what the fleet's
//! independent replay path (`Fleet::simulate_die`) concludes.
//!
//! One operation is one die. The dies are a fixed class mix drawn from
//! the seed's fleet (see [`picks`]); operations cycle over them, and the
//! first full pass is fingerprinted and always completes, however slow
//! the host.

use std::cell::Cell;

use soctest_bist::BistCommand;
use soctest_core::casestudy::CaseStudy;
use soctest_core::fleet::{verdict_of, DefectClass, DefectProfile, DieVerdict, Fleet, FleetConfig};
use soctest_core::robust::{RetryStrategy, RobustSession, SessionBackend, SessionReport};
use soctest_core::session::WrappedCore;
use soctest_core::SessionError;
use soctest_p1500::{BistBackend, HungBackend, PinFault, PinFaults, TapDriver};

use crate::fleet;
use crate::run::{time, Ctx, Deadline, Outcome, Workload};
use crate::spans::Spans;
use crate::stats::{ratio, Fnv};

/// BIST protocol traffic seen by [`Counted`] backends.
#[derive(Debug, Default)]
struct BistCounts {
    /// Commands decoded from the WCDR.
    commands: Cell<u64>,
    /// Functional clocks delivered.
    clocks: Cell<u64>,
    /// Signatures captured through the output selector.
    reads: Cell<u64>,
}

fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

/// A session backend that counts the protocol traffic it forwards.
#[derive(Debug)]
struct Counted<'a, B> {
    inner: B,
    counts: &'a BistCounts,
}

impl<'a, B> Counted<'a, B> {
    /// Wraps `inner`, counting into `counts`.
    fn new(inner: B, counts: &'a BistCounts) -> Self {
        Counted { inner, counts }
    }
}

impl<B: BistBackend> BistBackend for Counted<'_, B> {
    fn command(&mut self, cmd: BistCommand) {
        bump(&self.counts.commands);
        self.inner.command(cmd);
    }

    fn functional_clock(&mut self) {
        bump(&self.counts.clocks);
        self.inner.functional_clock();
    }

    fn end_test(&self) -> bool {
        self.inner.end_test()
    }

    fn selected_signature(&self) -> u64 {
        bump(&self.counts.reads);
        self.inner.selected_signature()
    }

    fn signature_width(&self) -> usize {
        self.inner.signature_width()
    }
}

impl<B: SessionBackend> SessionBackend for Counted<'_, B> {}

/// The transient defect class: TDO inverted every `period`-th TCK.
fn tdo_flip(period: u64) -> PinFaults {
    PinFaults {
        tdo: Some(PinFault::FlipEvery(period)),
        ..PinFaults::none()
    }
}

/// Retry-ladder accounting over traced robust sessions.
#[derive(Debug, Default)]
struct Tally {
    /// Sessions run.
    sessions: u64,
    /// Ladder rungs entered (backend builds).
    rungs: u64,
    /// Module attempts, over sessions that returned a report.
    attempts: u64,
    /// Modules resolved (cleared), over the same sessions.
    resolved: u64,
}

impl Tally {
    /// Folds one session result in.
    fn record(&mut self, result: &Result<SessionReport, SessionError>) {
        self.sessions += 1;
        if let Ok(report) = result {
            self.attempts += report
                .outcomes
                .iter()
                .map(|o| o.attempts.len() as u64)
                .sum::<u64>();
            self.resolved += report.outcomes.iter().filter(|o| !o.quarantined).count() as u64;
        }
    }
}

/// Per-die span names, by `DefectClass::index`.
const DIE_SPANS: [&str; 4] = [
    "gate.die.clean",
    "gate.die.stuck_at",
    "gate.die.transient",
    "gate.die.hung",
];

/// The untraced session: `RobustSession::run`, or `run_with` over a
/// `HungBackend` for a hung engine.
fn session(
    case: &CaseStudy,
    fleet: &Fleet,
    cfg: &FleetConfig,
    names: &[String],
    profile: DefectProfile,
) -> Result<SessionReport, SessionError> {
    let session = RobustSession::new(cfg.budget);
    match profile {
        DefectProfile::Clean => session.run(case, case, cfg.patterns),
        DefectProfile::StuckAt { site } => session.run(
            case,
            &fleet::planted(case, fleet.sites()[site]),
            cfg.patterns,
        ),
        DefectProfile::Transient { period } => {
            session
                .with_pin_faults(tdo_flip(period))
                .run(case, case, cfg.patterns)
        }
        DefectProfile::Hung => session.run_with(names, cfg.patterns, |strategy| {
            let (variant, seed) = strategy.engine_knobs();
            let goldens = WrappedCore::with_engine(case, case.engine_variant(variant, seed)?)?
                .rehearse(cfg.patterns)?;
            let backend = WrappedCore::with_engine(case, case.engine_variant(variant, seed)?)?;
            Ok((goldens, HungBackend::new(backend)))
        }),
    }
}

/// One traced rung: the golden rehearsal and the DUT backend build that
/// `RobustSession::run` makes, under `robust.make` / `bist.rehearse`.
#[allow(clippy::too_many_arguments)]
fn traced_rung<'c, B>(
    case: &'c CaseStudy,
    dut: &'c CaseStudy,
    strategy: RetryStrategy,
    patterns: u64,
    spans: &mut Spans,
    op: u64,
    tally: &mut Tally,
    wrap: impl FnOnce(WrappedCore<'c>) -> B,
) -> Result<(Vec<u64>, B), SessionError> {
    tally.rungs += 1;
    let make = spans.open("robust.make", op);
    let (variant, seed) = strategy.engine_knobs();
    let rehearse = spans.open("bist.rehearse", op);
    let goldens = case
        .engine_variant(variant, seed)
        .map_err(SessionError::from)
        .and_then(|engine| WrappedCore::with_engine(case, engine))
        .and_then(|mut core| core.rehearse(patterns));
    spans.close(rehearse);
    let backend = dut
        .engine_variant(variant, seed)
        .map_err(SessionError::from)
        .and_then(|engine| WrappedCore::with_engine(dut, engine));
    spans.close(make);
    Ok((goldens?, wrap(backend?)))
}

/// The traced session: the body of `RobustSession::run` through
/// `run_with`, with counting backends.
#[allow(clippy::too_many_arguments)]
fn traced_session(
    case: &CaseStudy,
    dut: &CaseStudy,
    cfg: &FleetConfig,
    names: &[String],
    profile: DefectProfile,
    spans: &mut Spans,
    op: u64,
    counts: &BistCounts,
    tally: &mut Tally,
) -> Result<SessionReport, SessionError> {
    let mut session = RobustSession::new(cfg.budget);
    if let DefectProfile::Transient { period } = profile {
        session = session.with_pin_faults(tdo_flip(period));
    }
    let p = cfg.patterns;
    let span = spans.open("robust.session", op);
    let result = if profile == DefectProfile::Hung {
        session.run_with(names, p, |st| {
            traced_rung(case, dut, st, p, spans, op, tally, |core| {
                Counted::new(HungBackend::new(core), counts)
            })
        })
    } else {
        session.run_with(names, p, |st| {
            traced_rung(case, dut, st, p, spans, op, tally, |core| {
                Counted::new(core, counts)
            })
        })
    };
    spans.close(span);
    tally.record(&result);
    result
}

fn verdict_code(v: DieVerdict) -> u64 {
    match v {
        DieVerdict::Passed => 0,
        DieVerdict::Quarantined { modules } => 1 | (u64::from(modules) << 8),
        DieVerdict::Hung => 2,
        DieVerdict::Protocol => 3,
    }
}

/// The dies a run visits: the lowest-numbered dies of each defect class,
/// as many of each as the mix gives that class out of `dies`. A fixed
/// class mix keeps the work per die from following the seed's draw; what
/// still varies is which stuck-at sites the seed's pool holds.
fn picks(fleet: &Fleet, cfg: &FleetConfig, dies: u64) -> Vec<u64> {
    let mut quota = [0u64; 4];
    for class in DefectClass::ALL {
        let p = cfg
            .mix
            .class_probability(class, fleet.sites().len(), cfg.transient_periods.len());
        quota[class.index()] = (p * dies as f64).round() as u64;
    }
    let mut taken = [0u64; 4];
    let mut picks = Vec::new();
    let mut die = 0;
    while taken != quota {
        let c = fleet.profile_of(die).class().index();
        if taken[c] < quota[c] {
            taken[c] += 1;
            picks.push(die);
        }
        die += 1;
    }
    picks
}

/// Runs the `gate-sessions` workload.
pub fn run(ctx: &mut Ctx, out: &mut Outcome) -> Result<(), String> {
    let cfg = fleet::config(ctx.size.gate_dies, ctx.seed, 0.5, ctx.size.sites_per_module);
    let (case, fleet, hung) = ctx.setup(|spans| {
        let (case, fleet) = fleet::build(spans, &cfg)?;
        // A hung session returns an error, which carries no TCK. Its bill
        // is what the session spends until the done-watchdog fires, here
        // measured on the gate-level core, so that checking it against
        // the fleet's bill (taken on its replay core) means something.
        let span = spans.open("gate.hung_probe", 0);
        let hung = case
            .engine_variant(0, 0)
            .map_err(SessionError::from)
            .and_then(|engine| WrappedCore::with_engine(&case, engine))
            .map(|core| {
                let mut ate = TapDriver::new(HungBackend::new(core));
                ate.reset();
                ate.bist_load_pattern_count(cfg.patterns);
                ate.bist_start();
                let _ = ate.wait_for_done(cfg.budget.burst, cfg.budget.max_bursts);
                ate.tck()
            });
        spans.close(span);
        let hung = hung.map_err(|e| e.to_string())?;
        Ok((case, fleet, hung))
    })?;
    let names: Vec<String> = case.module_names().iter().map(|&s| s.to_owned()).collect();
    let picks = picks(&fleet, &cfg, ctx.size.gate_dies);
    let dies = picks.len() as u64;
    // First-pass records, by position in `picks`.
    let mut first: Vec<Option<(DieVerdict, u64)>> = vec![None; picks.len()];
    let bill = |result: &Result<SessionReport, SessionError>| {
        let verdict = verdict_of(result);
        let tck = match (result, verdict) {
            (Ok(report), _) => report.tck_spent,
            (_, DieVerdict::Hung) => hung,
            _ => 0,
        };
        (verdict, tck)
    };
    // Checks a die against the fleet's replay and its own first pass.
    let check = |first: &mut Vec<Option<(DieVerdict, u64)>>, i: u64, got: (DieVerdict, u64)| {
        let die = picks[i as usize];
        let oracle = fleet.simulate_die(die);
        let want = *first[i as usize].get_or_insert(got);
        if (oracle.verdict, oracle.tck) != got {
            Err(format!(
                "die {die} ({:?}): gate-level {got:?}, fleet replay ({:?}, {})",
                oracle.profile, oracle.verdict, oracle.tck
            ))
        } else if want != got {
            Err(format!("die {die}: {got:?}, first pass gave {want:?}"))
        } else {
            Ok(())
        }
    };

    // Warm-up: the first pick, untimed.
    let warm = bill(&session(
        &case,
        &fleet,
        &cfg,
        &names,
        fleet.profile_of(picks[0]),
    ));
    ctx.verify(check(&mut first, 0, warm));

    let mut op = 0u64;
    let mut deadline = Deadline::new(ctx.phase_seconds(), dies - 1);
    while deadline.next() {
        op += 1;
        let profile = fleet.profile_of(picks[(op % dies) as usize]);
        let result = time(&mut ctx.untraced, 1, || {
            session(&case, &fleet, &cfg, &names, profile)
        });
        ctx.verify(check(&mut first, op % dies, bill(&result)));
    }

    let mut fp = Fnv::default();
    let mut tck_sum = 0u64;
    let mut classes = [0u64; 4];
    let mut billed = Vec::with_capacity(picks.len());
    for (&die, rec) in picks.iter().zip(&first) {
        let (verdict, tck) = rec.ok_or("first pass incomplete")?;
        fp.write_u64(die);
        fp.write_u64(verdict_code(verdict));
        fp.write_u64(tck);
        tck_sum += tck;
        let profile = fleet.profile_of(die);
        classes[profile.class().index()] += 1;
        billed.push((profile, verdict, tck));
    }
    ctx.verify(crate::pins::bills(billed));
    let tck_per_die = ratio(tck_sum as f64, dies as f64);
    out.set("sim_cycles_per_item", tck_per_die);

    if ctx.trace {
        ctx.begin_trace(&case, out)?;
        let counts = BistCounts::default();
        let mut tally = Tally::default();
        let mut traced_dies = 0u64;
        let mut deadline = Deadline::new(ctx.phase_seconds(), 1);
        while deadline.next() {
            op += 1;
            traced_dies += 1;
            let profile = fleet.profile_of(picks[(op % dies) as usize]);
            let spans = &mut ctx.spans;
            let result = time(&mut ctx.traced, 1, || {
                let span = spans.open(DIE_SPANS[profile.class().index()], op);
                let dut = match profile {
                    DefectProfile::StuckAt { site } => {
                        Some(fleet::planted(&case, fleet.sites()[site]))
                    }
                    _ => None,
                };
                let result = traced_session(
                    &case,
                    dut.as_ref().unwrap_or(&case),
                    &cfg,
                    &names,
                    profile,
                    spans,
                    op,
                    &counts,
                    &mut tally,
                );
                spans.close(span);
                result
            });
            ctx.verify(check(&mut first, op % dies, bill(&result)));
        }
        let per_die = |n: &Cell<u64>| ratio(n.get() as f64, traced_dies as f64);
        out.set("p1500.tck_per_die", tck_per_die);
        out.set("bist.functional_clocks_per_die", per_die(&counts.clocks));
        out.set("bist.commands_per_die", per_die(&counts.commands));
        out.set("bist.signature_reads_per_die", per_die(&counts.reads));
        out.set(
            "robust.rungs_per_session",
            ratio(tally.rungs as f64, tally.sessions as f64),
        );
        out.set(
            "robust.resolved_per_attempt",
            ratio(tally.resolved as f64, tally.attempts as f64),
        );
        out.set(
            "robust.make_share",
            ratio(
                ctx.spans.agg("robust.make").total_ns as f64,
                ctx.spans.agg("robust.session").total_ns as f64,
            ),
        );
    }

    ctx.fingerprint(Workload::GateSessions, out, fp.finish());
    out.line(format!(
        "test_tck_per_die {tck_per_die:.3} over {dies} dies up to die {} (simulated TCK); classes clean/stuck_at/transient/hung {classes:?}",
        picks.last().copied().unwrap_or(0)
    ));
    Ok(())
}
