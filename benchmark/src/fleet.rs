//! `fleet-screen` and `fleet-defective`: one operation is one
//! `Fleet::run` over the same fixed set of dies, on one worker.
//!
//! The traced run drives the same dies itself: each `Fleet::simulate_die`
//! sits in a span named after the die's `profile_of` class, and
//! `Fleet::summarize` in its own, and the records and report must equal
//! the untraced ones byte for byte.

use std::time::Instant;

use soctest_core::casestudy::CaseStudy;
use soctest_core::fleet::{DefectMix, DefectSite, DieRecord, Fleet, FleetConfig};

use crate::run::{time, Ctx, Deadline, Outcome, Workload};
use crate::spans::Spans;
use crate::stats::{fnv64, ratio, summary};

/// Per-die span names, by `DefectClass::index`.
const DIE_SPANS: [&str; 4] = [
    "fleet.die.clean",
    "fleet.die.stuck_at",
    "fleet.die.transient",
    "fleet.die.hung",
];

/// The per-class throughput metrics, in the same order.
const DIE_RATES: [&str; 4] = [
    "fleet.dies_per_s.clean",
    "fleet.dies_per_s.stuck_at",
    "fleet.dies_per_s.transient",
    "fleet.dies_per_s.hung",
];

/// The fleet configuration of both fleet workloads (and the oracle fleet
/// of `gate-sessions`): one worker, the default mix at `defect_rate`.
pub fn config(dies: u64, seed: u64, defect_rate: f64, sites_per_module: usize) -> FleetConfig {
    let mut cfg = FleetConfig::new(dies, seed);
    cfg.workers = 1;
    cfg.sites_per_module = sites_per_module;
    cfg.mix = DefectMix {
        defect_rate,
        ..DefectMix::default()
    };
    cfg
}

/// Set-up shared with `gate-sessions`: the case study and its fleet.
pub fn build(spans: &mut Spans, cfg: &FleetConfig) -> Result<(CaseStudy, Fleet), String> {
    let span = spans.open("case.paper", 0);
    let case = CaseStudy::paper();
    spans.close(span);
    let case = case.map_err(|e| e.to_string())?;
    let span = spans.open("fleet.new", 0);
    let fleet = Fleet::new(&case, cfg.clone());
    spans.close(span);
    Ok((case, fleet.map_err(|e| e.to_string())?))
}

/// The case study with one stuck-at site of the fleet's pool planted.
pub fn planted(case: &CaseStudy, site: DefectSite) -> CaseStudy {
    let mut defective = case.clone();
    defective
        .module_mut(site.module)
        .force_constant(site.net, site.value);
    defective
}

/// Compares two renderings and names the first differing line.
pub fn same_text(got: &str, want: &str) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    Err(format!(
        "report differs at line {}: got {:?}, want {:?}",
        line + 1,
        got.lines().nth(line).unwrap_or(""),
        want.lines().nth(line).unwrap_or("")
    ))
}

fn same_records(got: &[DieRecord], want: &[DieRecord]) -> Result<(), String> {
    match got.iter().zip(want).find(|(a, b)| a != b) {
        Some((a, b)) => Err(format!("die {}: got {a:?}, want {b:?}", b.die)),
        None if got.len() != want.len() => {
            Err(format!("{} die records, want {}", got.len(), want.len()))
        }
        None => Ok(()),
    }
}

/// Runs one fleet workload.
pub fn run(
    ctx: &mut Ctx,
    workload: Workload,
    defect_rate: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let dies = ctx.size.fleet_dies;
    let cfg = config(dies, ctx.seed, defect_rate, ctx.size.sites_per_module);
    let (case, fleet) = ctx.setup(|spans| build(spans, &cfg))?;

    let warm = fleet.run();
    let reference = warm.report.to_json();
    ctx.fingerprint(workload, out, fnv64(reference.as_bytes()));
    ctx.verify(crate::pins::bills(
        warm.dies.iter().map(|d| (d.profile, d.verdict, d.tck)),
    ));
    let tck_per_die = ratio(
        warm.dies.iter().map(|d| d.tck as f64).sum(),
        warm.dies.len() as f64,
    );
    out.set("sim_cycles_per_item", tck_per_die);

    let mut deadline = Deadline::new(ctx.phase_seconds(), 1);
    while deadline.next() {
        let outcome = time(&mut ctx.untraced, dies, || fleet.run());
        ctx.verify(same_text(&outcome.report.to_json(), &reference));
    }

    if ctx.trace {
        ctx.begin_trace(&case, out)?;
        let mut deadline = Deadline::new(ctx.phase_seconds(), 1);
        let mut op = 0;
        while deadline.next() {
            op += 1;
            let spans = &mut ctx.spans;
            let (records, report) = time(&mut ctx.traced, dies, || {
                let span = spans.open("fleet.run", op);
                let t0 = Instant::now();
                let records: Vec<DieRecord> = (0..dies)
                    .map(|die| {
                        let class = fleet.profile_of(die).class();
                        let span = spans.open(DIE_SPANS[class.index()], op);
                        let record = fleet.simulate_die(die);
                        spans.close(span);
                        record
                    })
                    .collect();
                let summarize = spans.open("fleet.summarize", op);
                let report = fleet.summarize(&records, t0.elapsed().as_nanos() as u64);
                spans.close(summarize);
                spans.close(span);
                (records, report)
            });
            ctx.verify(
                same_records(&records, &warm.dies)
                    .and_then(|()| same_text(&report.to_json(), &reference)),
            );
        }
        out.set("p1500.tck_per_die", tck_per_die);
        let agg = |name: &str| ctx.spans.agg(name);
        let mut die_ns = 0u64;
        for (name, rate) in DIE_SPANS.iter().zip(DIE_RATES) {
            let a = agg(name);
            die_ns += a.total_ns;
            out.set(rate, ratio(a.count as f64, a.total_ns as f64 / 1e9));
        }
        // The robust session of a clean die is what the replay-session
        // probe times; the rest of the die's span is the fleet's own.
        let clean = agg(DIE_SPANS[0]);
        let clean_ns = ratio(clean.total_ns as f64, clean.count as f64);
        let session_ns = out
            .values
            .get("robust.replay_session_us")
            .copied()
            .unwrap_or(0.0)
            * 1e3;
        out.set(
            "fleet.overhead_share",
            ratio(clean_ns - session_ns, clean_ns),
        );
        let ns_per_die = ratio(die_ns as f64, (op * dies) as f64);
        let ns_per_tck = out.values.get("p1500.ns_per_tck").copied().unwrap_or(0.0);
        out.set(
            "fleet.tap_share",
            ratio(tck_per_die * ns_per_tck, ns_per_die),
        );
        out.set(
            "fleet.summarize_share",
            ratio(
                agg("fleet.summarize").total_ns as f64,
                agg("fleet.run").total_ns as f64,
            ),
        );
    }

    let rates: Vec<f64> = ctx
        .untraced
        .iter()
        .map(|s| s.items as f64 / (s.wall_ns as f64 / 1e9))
        .collect();
    let r = &warm.report;
    out.line(format!(
        "dies_per_s (per run of {dies} dies): {}",
        summary(&rates)
    ));
    out.line(format!(
        "test_tck_per_die {tck_per_die:.3} (simulated TCK; p50 {} p95 {} p99 {})",
        r.tck.p50, r.tck.p95, r.tck.p99
    ));
    out.line(format!(
        "yield {:.3}%, escapes {}, overkill {}, hung {}, recovered {}, quarantined {}",
        r.yield_percent(),
        r.escapes,
        r.overkill,
        r.hung,
        r.recovered,
        r.quarantined
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_fingerprint_is_worker_count_invariant() {
        let case = CaseStudy::paper().unwrap();
        let fingerprint = |workers: usize| {
            let mut cfg = config(2000, 42, 0.5, 8);
            cfg.workers = workers;
            let report = Fleet::new(&case, cfg).unwrap().run().report;
            fnv64(report.to_json().as_bytes())
        };
        assert_eq!(fingerprint(1), fingerprint(2));
    }

    #[test]
    fn same_text_names_the_first_differing_line() {
        assert!(same_text("a\nb\n", "a\nb\n").is_ok());
        let err = same_text("a\nx\n", "a\nb\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }
}
