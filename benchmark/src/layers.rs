//! Standalone layer probes.
//!
//! Every traced run measures the same five probes on the case study —
//! kernel compile and evaluation (L0), a TAP script over a replay core
//! (L2), a golden rehearsal (L3) and a clean robust session over a replay
//! core (L4) — so those per-layer costs are known on every workload,
//! including the ones that never enter the layer.

use std::hint::black_box;
use std::time::Instant;

use soctest_core::casestudy::CaseStudy;
use soctest_core::fleet::ReplayCore;
use soctest_core::robust::{RobustSession, SessionBudget};
use soctest_core::session::WrappedCore;
use soctest_fault::SeqStimulus;
use soctest_netlist::compile;
use soctest_p1500::TapDriver;

use crate::run::{Ctx, Outcome};
use crate::stats::{median, ratio, Fnv};

/// Patterns per session, as the fleet and the gate-level sessions run.
const SESSION_PATTERNS: u64 = 64;

/// Golden signatures of the default engine, one rehearsal.
fn goldens(case: &CaseStudy, patterns: u64) -> Result<Vec<u64>, String> {
    let engine = case.engine_variant(0, 0).map_err(|e| e.to_string())?;
    let mut core = WrappedCore::with_engine(case, engine).map_err(|e| e.to_string())?;
    core.rehearse(patterns).map_err(|e| e.to_string())
}

/// Runs the five layer probes and sets their metrics.
pub fn probe(case: &CaseStudy, ctx: &mut Ctx, out: &mut Outcome) -> Result<(), String> {
    let reps = ctx.size.probe_reps.max(1);
    let spec = case.spec();
    let golden = goldens(case, SESSION_PATTERNS)?;
    let mut problems = Vec::new();

    // L0: compile the three modules.
    let mut compile_ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let span = ctx.spans.open("netlist.compile", 0);
        let t0 = Instant::now();
        for module in case.modules() {
            black_box(compile(module).map_err(|e| e.to_string())?);
        }
        compile_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        ctx.spans.close(span);
    }
    out.set("netlist.compile_ms", median(&compile_ms));

    // L0: one combinational kernel sweep per module over the paper's
    // stimulus, 64 consecutive cycles packed into the 64 lanes of a word
    // (flip-flop outputs stay at their reset value).
    let pgen = case.pattern_generator();
    let mut kernels = Vec::new();
    for (m, module) in case.modules().iter().enumerate() {
        let kernel = compile(module).map_err(|e| e.to_string())?;
        let npi = module.primary_inputs().len().min(kernel.pis().len());
        let mut stim = pgen.stimulus(m, ctx.size.campaign_patterns);
        let mut row = vec![false; module.primary_inputs().len()];
        let mut blocks = Vec::new();
        for base in (0..ctx.size.campaign_patterns).step_by(64) {
            let mut words = vec![0u64; npi];
            for lane in 0..64.min(ctx.size.campaign_patterns - base) {
                stim.fill(base + lane, &mut row);
                for (w, &bit) in words.iter_mut().zip(&row) {
                    *w |= u64::from(bit) << lane;
                }
            }
            blocks.push(words);
        }
        kernels.push((kernel, blocks));
    }
    let (mut evals, mut eval_ns, mut sweep_fp) = (0u64, 0u64, None);
    for _ in 0..reps {
        let span = ctx.spans.open("netlist.eval_sweep", 0);
        let t0 = Instant::now();
        let mut h = Fnv::default();
        for (kernel, blocks) in &kernels {
            let mut values = kernel.fresh_values();
            for words in blocks {
                for (&pi, &w) in kernel.pis().iter().zip(words) {
                    values[pi as usize] = w;
                }
                kernel.eval(&mut values);
                for &po in kernel.pos() {
                    h.write_u64(values[po as usize]);
                }
                evals += kernel.ops() as u64 * 64;
            }
        }
        eval_ns += t0.elapsed().as_nanos() as u64;
        ctx.spans.close(span);
        let fp = h.finish();
        if *sweep_fp.get_or_insert(fp) != fp {
            problems.push("kernel sweep output changed between repetitions".to_owned());
        }
    }
    out.set(
        "netlist.gate_evals_per_s",
        ratio(evals as f64, eval_ns as f64 / 1e9),
    );

    // L2: a complete TAP session script over a replay core.
    let budget = SessionBudget::default();
    let (mut tck, mut tap_ns) = (0u64, 0u64);
    let span = ctx.spans.open("p1500.tap_script", 0);
    for _ in 0..reps * 200 {
        let core = ReplayCore::new(spec.counter_bits, golden.clone(), spec.misr_width, false);
        let t0 = Instant::now();
        let mut ate = TapDriver::new(core);
        ate.reset();
        ate.bist_load_pattern_count(SESSION_PATTERNS);
        ate.bist_start();
        let waited = ate.wait_for_done(budget.burst, budget.max_bursts);
        let mut sigs = Vec::with_capacity(golden.len());
        for m in 0..golden.len() {
            ate.bist_select_result(m as u8);
            sigs.push(ate.read_status().1);
        }
        tap_ns += t0.elapsed().as_nanos() as u64;
        tck += ate.tck();
        if waited.is_err() || sigs != golden {
            problems.push(format!("TAP script read {sigs:x?}, expected {golden:x?}"));
        }
    }
    ctx.spans.close(span);
    out.set("p1500.ns_per_tck", ratio(tap_ns as f64, tck as f64));

    // L3: the golden rehearsal a session makes per retry rung.
    let mut rehearse_ms = Vec::with_capacity(reps);
    for _ in 0..reps * 4 {
        let engine = case.engine_variant(0, 0).map_err(|e| e.to_string())?;
        let mut core = WrappedCore::with_engine(case, engine).map_err(|e| e.to_string())?;
        let span = ctx.spans.open("bist.rehearse", 0);
        let t0 = Instant::now();
        let sigs = core.rehearse(SESSION_PATTERNS).map_err(|e| e.to_string())?;
        rehearse_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        ctx.spans.close(span);
        if sigs != golden {
            problems.push("rehearsal signatures changed between repetitions".to_owned());
        }
    }
    out.set("bist.rehearse_ms", median(&rehearse_ms));

    // L4: a clean die's robust session over a replay core, which is what
    // a fleet's clean die runs inside `Fleet::simulate_die`.
    let names: Vec<String> = case.module_names().iter().map(|&s| s.to_owned()).collect();
    let mut session_ns = 0u64;
    let span = ctx.spans.open("robust.replay_session", 0);
    for _ in 0..reps * 200 {
        let t0 = Instant::now();
        let result = RobustSession::new(budget).run_with(&names, SESSION_PATTERNS, |_| {
            let core = ReplayCore::new(spec.counter_bits, golden.clone(), spec.misr_width, false);
            Ok((golden.clone(), core))
        });
        session_ns += t0.elapsed().as_nanos() as u64;
        if !result.as_ref().is_ok_and(|r| r.all_passed()) {
            problems.push(format!("clean replay session gave {result:?}"));
        }
    }
    ctx.spans.close(span);
    out.set(
        "robust.replay_session_us",
        session_ns as f64 / (reps * 200) as f64 / 1e3,
    );

    problems.dedup();
    ctx.verify(match problems.first() {
        None => Ok(()),
        Some(p) => Err(format!("layer probe: {p}")),
    });
    Ok(())
}
