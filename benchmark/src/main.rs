//! The soctest benchmark: one workload per invocation, end to end or
//! traced layer by layer.
//!
//! ```text
//! benchmark --workload W [--seed S] [--seconds N] [--trace 0|1]
//! benchmark --smoke
//! ```
//!
//! Everything runs in one process on one thread (fleet `workers = 1`,
//! serial fault simulation), so the numbers measure the program and not
//! the scheduler. The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed`, and `metrics` — every end-to-end
//! metric, or with `--trace 1` every per-layer metric. A JSON record of
//! the run (and, traced, a span file) is written under `target/benchmark/`.
//! See README.md for the workloads and what each metric means.

mod campaign;
mod fleet;
mod gate;
mod host;
mod layers;
mod pins;
mod run;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::process::ExitCode;

use run::{Ctx, Outcome, Size, Workload};
use stats::summary;

/// End-to-end metrics `(name, unit)`: what a user of the flow sees.
/// `BENCHMARK.json` lists the same names with their bounds.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("items_per_s", "1/s"),
    ("sim_cycles_per_item", "cycles"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by the traced run. A layer
/// the workload never enters reads 0; every time-valued one is a probe
/// that runs on every workload.
const PER_LAYER: [(&str, &str); 30] = [
    ("netlist.compile_ms", "ms"),
    ("netlist.gate_evals_per_s", "1/s"),
    ("fault.fault_cycles", "count"),
    ("fault.good_cycles", "count"),
    ("fault.fault_cycles_per_s", "1/s"),
    ("fault.check_node_share", "frac"),
    ("fault.detected_per_kcycle", "1/kcycle"),
    ("fault.saf_coverage_gap_pp", "pp"),
    ("fault.tdf_coverage_gap_pp", "pp"),
    ("p1500.tck_per_die", "TCK"),
    ("p1500.ns_per_tck", "ns"),
    ("bist.functional_clocks_per_die", "count"),
    ("bist.commands_per_die", "count"),
    ("bist.signature_reads_per_die", "count"),
    ("bist.rehearse_ms", "ms"),
    ("robust.rungs_per_session", "count"),
    ("robust.resolved_per_attempt", "frac"),
    ("robust.make_share", "frac"),
    ("robust.replay_session_us", "us"),
    ("fleet.cache_build_share", "frac"),
    ("fleet.dies_per_s.clean", "1/s"),
    ("fleet.dies_per_s.stuck_at", "1/s"),
    ("fleet.dies_per_s.transient", "1/s"),
    ("fleet.dies_per_s.hung", "1/s"),
    ("fleet.overhead_share", "frac"),
    ("fleet.tap_share", "frac"),
    ("fleet.summarize_share", "frac"),
    ("host.wait_frac", "frac"),
    ("host.cpu_frac", "frac"),
    ("trace_overhead_pct", "%"),
];

/// The metrics a run prints: per-layer when traced, else end-to-end.
fn listed(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    Smoke,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 42u64, 10.0f64, false);
    let mut smoke = false;
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_owned());
                }
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if smoke {
        return Ok(Command::Smoke);
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// Runs one workload and fills every metric it measures.
fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
) -> Result<(Ctx, Outcome), String> {
    let mut ctx = Ctx::new(seed, seconds, trace, size);
    let mut out = Outcome::default();
    match workload {
        Workload::FleetScreen => fleet::run(&mut ctx, workload, 0.05, &mut out)?,
        Workload::FleetDefective => fleet::run(&mut ctx, workload, 0.5, &mut out)?,
        Workload::BistCampaign => campaign::run(&mut ctx, &mut out)?,
        Workload::GateSessions => gate::run(&mut ctx, &mut out)?,
    }
    ctx.finish(&mut out);
    out.set(
        "peak_rss_mb",
        host::peak_rss_mb().ok_or("peak RSS (VmHWM) is unavailable")?,
    );
    let listed = listed(trace);
    for &(name, _) in listed {
        let value = *out.values.entry(name).or_insert(0.0);
        if !value.is_finite() {
            ctx.verify(Err(format!("metric {name} is {value}")));
        }
    }
    Ok((ctx, out))
}

/// The result line: the listed metrics with their units.
fn result_line(ctx: &Ctx, out: &Outcome) -> String {
    let listed = listed(ctx.trace);
    let metrics: Vec<String> = listed
        .iter()
        .map(|&(name, unit)| {
            let v = out.values.get(name).copied().filter(|v| v.is_finite());
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                v.unwrap_or(0.0)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ctx.failed == 0,
        ctx.attempted.max(1),
        ctx.failed,
        metrics.join(", ")
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Prints the human-readable report and writes the run record; returns
/// the report text.
fn report(workload: Workload, ctx: &Ctx, out: &Outcome, load_start: &str) -> String {
    let (wait, _) = ctx.host_shares();
    let noisy = wait > host::NOISY_WAIT_FRAC;
    let ms: Vec<f64> = ctx
        .untraced
        .iter()
        .map(|s| s.wall_ns as f64 / 1e6)
        .collect();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "benchmark {} seed {} seconds {} trace {}",
        workload.name(),
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    let _ = writeln!(
        text,
        "host: nproc {}, loadavg {load_start} -> {}, wait share {wait:.4}{}",
        host::nproc(),
        host::loadavg(),
        if noisy { " (noisy)" } else { "" }
    );
    let _ = writeln!(text, "setup_s: {}", summary(&ctx.setup));
    let _ = writeln!(text, "op_ms ({}): {}", workload.operation(), summary(&ms));
    for line in &out.lines {
        let _ = writeln!(text, "{line}");
    }
    let listed = listed(ctx.trace);
    for &(name, unit) in listed {
        let v = out.values.get(name).copied().unwrap_or(0.0);
        let _ = writeln!(text, "  {name} = {v} {unit}");
    }
    let _ = writeln!(
        text,
        "failed_frac = {} ({} of {} checks failed){}",
        stats::ratio(ctx.failed as f64, ctx.attempted.max(1) as f64),
        ctx.failed,
        ctx.attempted,
        ctx.first_failure
            .as_ref()
            .map_or(String::new(), |f| format!("; first: {f}"))
    );

    let tag = format!(
        "{}-seed{}{}",
        workload.name(),
        ctx.seed,
        if ctx.trace { "-trace" } else { "" }
    );
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"noisy\": {noisy}, \"wait_frac\": {wait}, \"fingerprint\": {}, \"result\": {}, \"report\": {}}}\n",
        json_str(workload.name()),
        ctx.seed,
        ctx.seconds,
        ctx.trace,
        host::nproc(),
        out.fingerprint
            .map_or("null".to_owned(), |f| json_str(&format!("{f:#018x}"))),
        result_line(ctx, out),
        json_str(&text),
    );
    let dir = std::path::Path::new("target").join("benchmark");
    let mut written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{tag}.json")), &record));
    if ctx.trace {
        let header = format!(
            "\"workload\": {}, \"seed\": {}",
            json_str(workload.name()),
            ctx.seed
        );
        written = written.and_then(|()| {
            std::fs::write(
                dir.join(format!("{tag}.spans.jsonl")),
                ctx.spans.to_jsonl(&header),
            )
        });
    }
    if let Err(e) = written {
        eprintln!("warning: could not write the run record under target/benchmark: {e}");
    }
    text
}

/// The `(name, unit)` pairs listed under `key` in a `BENCHMARK.json` text.
fn listed_metrics(json: &str, key: &str) -> Vec<(String, String)> {
    let Some(start) = json.find(&format!("\"{key}\"")) else {
        return Vec::new();
    };
    let rest = &json[start..];
    let body = match (rest.find('['), rest.find(']')) {
        (Some(a), Some(b)) if a < b => &rest[a..b],
        _ => return Vec::new(),
    };
    let field = |object: &str, name: &str| {
        object
            .split(&format!("\"{name}\""))
            .nth(1)
            .and_then(|s| s.split('"').nth(1))
            .unwrap_or_default()
            .to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|object| (field(object, "name"), field(object, "unit")))
        .collect()
}

/// Runs every workload at smoke size, untraced and traced, and checks that
/// the metric lists (names and units) here and in `bench_json` agree and
/// that every metric is printed.
fn smoke(bench_json: &str, seconds: f64) -> Result<(), String> {
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let want: Vec<(String, String)> = table
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        let got = listed_metrics(bench_json, key);
        if got != want {
            return Err(format!(
                "BENCHMARK.json {key} lists {got:?}, the binary {want:?}"
            ));
        }
    }
    for workload in Workload::ALL {
        for trace in [false, true] {
            let (ctx, out) = measure(workload, 42, seconds, trace, Size::SMOKE)?;
            let line = result_line(&ctx, &out);
            let table = listed(trace);
            if let Some((name, _)) = table
                .iter()
                .find(|(n, _)| !line.contains(&format!("\"{n}\": {{\"value\": ")))
            {
                return Err(format!("{}: metric {name} not printed", workload.name()));
            }
            if ctx.failed > 0 {
                return Err(format!(
                    "{} (trace {trace}): {}",
                    workload.name(),
                    ctx.first_failure.unwrap_or_default()
                ));
            }
            println!("smoke {} trace {}: ok", workload.name(), u8::from(trace));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Command::Run(args)) => args,
        Ok(Command::Smoke) => {
            let json = std::fs::read_to_string("BENCHMARK.json").unwrap_or_default();
            return match smoke(&json, 0.2) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("smoke: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: benchmark --workload <fleet-screen|fleet-defective|bist-campaign|gate-sessions> [--seed N] [--seconds N] [--trace 0|1] | --smoke"
            );
            return ExitCode::from(2);
        }
    };
    let load_start = host::loadavg();
    match measure(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Size::FULL,
    ) {
        Ok((ctx, out)) => {
            print!("{}", report(args.workload, &ctx, &out, &load_start));
            println!("{}", result_line(&ctx, &out));
            if ctx.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_pass_prints_every_listed_metric() {
        let json = include_str!("../../BENCHMARK.json");
        smoke(json, 0.05).unwrap();
    }

    #[test]
    fn listed_metrics_reads_each_section() {
        let json = r#"{"end_to_end": [{"name": "a", "unit": "s", "bound": 0.1}, {"unit": "1/s", "name": "b"}],
                      "per_layer": [{"name": "c", "unit": "count"}]}"#;
        let pair = |n: &str, u: &str| (n.to_owned(), u.to_owned());
        assert_eq!(
            listed_metrics(json, "end_to_end"),
            [pair("a", "s"), pair("b", "1/s")]
        );
        assert_eq!(listed_metrics(json, "per_layer"), [pair("c", "count")]);
        assert!(listed_metrics(json, "missing").is_empty());
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        match args("--workload gate-sessions --seed 7 --seconds 3 --trace 1") {
            Ok(Command::Run(a)) => {
                assert_eq!(a.workload, Workload::GateSessions);
                assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
            }
            _ => panic!("valid arguments rejected"),
        }
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload bist-campaign --trace 2").is_err());
    }
}
