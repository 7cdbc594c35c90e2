//! The perf-regression gate over the committed bench history. The
//! synopsis is [`USAGE`].
//!
//! Reads the slim throughput records `repro --bench-faultsim` emits —
//! one JSON line per run with per-module `kernel_wall_s` / `faults_per_s`
//! and the fleet's `dies_per_s` — takes the **median** of every metric
//! across the committed history (so one noisy historical run cannot move
//! the baseline), and compares the fresh `BENCH_current.json` against it.
//!
//! The gate fails (exit 1) when any metric regresses more than 25 %
//! beyond the noise floor:
//!
//! - a module's `kernel_wall_s` grows past `median × 1.25` **and** the
//!   absolute growth exceeds 20 ms (short quick-budget runs on a loaded
//!   host jitter by more than any ratio; the floor matches the monitor
//!   and profiler overhead gates' in `repro --bench-faultsim`),
//! - a module's `faults_per_s` or the fleet's `dies_per_s` falls below
//!   `median ÷ 1.25`, unless the absolute wall impact is under the same
//!   20 ms floor,
//! - the health monitor's `monitor_overhead_pct` grows past
//!   `max(median × 1.25, 2 %)` with the absolute overhead over the 20 ms
//!   floor, or its `detect_latency_batches` grows past
//!   `max(median × 1.25, 8)` — both compared only when the history
//!   carries the columns, so pre-monitor history lines stay valid,
//! - the current record lacks a column the history carries
//!   (`monitor_overhead_s`, `monitor_overhead_pct`,
//!   `detect_latency_batches`): a record that drops one would otherwise
//!   pass unchecked.
//!
//! Only history records with the same `patterns` budget as the current
//! run are compared; with no comparable history the gate passes with a
//! warning so a fresh clone is never blocked.
//!
//! `--self-test` skips `BENCH_current.json` and instead synthesizes a
//! run that is exactly 2× slower than the history median on every
//! metric. The gate must reject it; the self-test exits 0 **iff** the
//! rejection fired, proving the gate can actually fail.
//!
//! An unknown argument or a malformed `--max-regression-pct=` value
//! prints the error and the usage and exits 2.

use std::process::ExitCode;

use soctest_obs::json::{self, JsonValue};

/// Absolute noise floor: wall-clock deltas below this are measurement
/// jitter on a loaded host, never a regression.
const ABS_FLOOR_S: f64 = 0.02;

/// One slim bench record (a single line of `BENCH_history.jsonl`).
#[derive(Debug, Clone)]
struct Record {
    patterns: u64,
    /// `(module, kernel_wall_s, faults_per_s)`.
    modules: Vec<(String, f64, f64)>,
    fleet_dies_per_s: f64,
    /// Health-monitor columns — absent in pre-monitor history lines, so
    /// optional: the gate only compares them when both sides carry them.
    monitor_overhead_s: Option<f64>,
    monitor_overhead_pct: Option<f64>,
    detect_latency_batches: Option<f64>,
}

fn parse_record(line: &str) -> Result<Record, String> {
    let v = json::parse(line)?;
    let patterns = v
        .get("patterns")
        .and_then(JsonValue::as_u64)
        .ok_or("record missing \"patterns\"")?;
    let mut modules = Vec::new();
    for m in v
        .get("modules")
        .and_then(JsonValue::as_array)
        .ok_or("record missing \"modules\"")?
    {
        let name = m
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("module missing \"name\"")?
            .to_owned();
        let wall = m
            .get("kernel_wall_s")
            .and_then(JsonValue::as_f64)
            .ok_or("module missing \"kernel_wall_s\"")?;
        let rate = m
            .get("faults_per_s")
            .and_then(JsonValue::as_f64)
            .ok_or("module missing \"faults_per_s\"")?;
        modules.push((name, wall, rate));
    }
    let fleet_dies_per_s = v
        .get("fleet_dies_per_s")
        .and_then(JsonValue::as_f64)
        .ok_or("record missing \"fleet_dies_per_s\"")?;
    Ok(Record {
        patterns,
        modules,
        fleet_dies_per_s,
        monitor_overhead_s: v.get("monitor_overhead_s").and_then(JsonValue::as_f64),
        monitor_overhead_pct: v.get("monitor_overhead_pct").and_then(JsonValue::as_f64),
        detect_latency_batches: v.get("detect_latency_batches").and_then(JsonValue::as_f64),
    })
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    if xs.is_empty() {
        0.0
    } else {
        xs[xs.len() / 2]
    }
}

/// The history baseline: per-metric medians over comparable records.
struct Baseline {
    runs: usize,
    /// `(module, median_wall_s, median_faults_per_s)`.
    modules: Vec<(String, f64, f64)>,
    fleet_dies_per_s: f64,
    /// Medians over the history lines that carry the monitor columns
    /// (None when no comparable line does).
    monitor_overhead_pct: Option<f64>,
    detect_latency_batches: Option<f64>,
}

fn baseline(history: &[Record], patterns: u64) -> Option<Baseline> {
    let comparable: Vec<&Record> = history.iter().filter(|r| r.patterns == patterns).collect();
    let first = comparable.first()?;
    let mut modules = Vec::new();
    for (name, _, _) in &first.modules {
        let mut walls: Vec<f64> = comparable
            .iter()
            .flat_map(|r| r.modules.iter())
            .filter(|(n, _, _)| n == name)
            .map(|&(_, w, _)| w)
            .collect();
        let mut rates: Vec<f64> = comparable
            .iter()
            .flat_map(|r| r.modules.iter())
            .filter(|(n, _, _)| n == name)
            .map(|&(_, _, f)| f)
            .collect();
        modules.push((name.clone(), median(&mut walls), median(&mut rates)));
    }
    let mut fleet: Vec<f64> = comparable.iter().map(|r| r.fleet_dies_per_s).collect();
    let optional_median = |pick: fn(&Record) -> Option<f64>| {
        let mut xs: Vec<f64> = comparable.iter().filter_map(|r| pick(r)).collect();
        if xs.is_empty() {
            None
        } else {
            Some(median(&mut xs))
        }
    };
    Some(Baseline {
        runs: comparable.len(),
        modules,
        fleet_dies_per_s: median(&mut fleet),
        monitor_overhead_pct: optional_median(|r| r.monitor_overhead_pct),
        detect_latency_batches: optional_median(|r| r.detect_latency_batches),
    })
}

/// Checks `current` against `base`; prints one greppable verdict line per
/// metric and returns the number of failed metrics.
fn gate(base: &Baseline, current: &Record, max_regression_pct: f64) -> usize {
    let ratio = 1.0 + max_regression_pct / 100.0;
    let mut failures = 0usize;
    let mut check = |metric: &str, ok: bool, detail: String| {
        println!(
            "bench-gate: {} {metric} — {detail}",
            if ok { "PASS" } else { "FAIL" }
        );
        if !ok {
            failures += 1;
        }
    };

    for (name, wall, rate) in &current.modules {
        let Some((_, base_wall, base_rate)) = base.modules.iter().find(|(n, _, _)| n == name)
        else {
            check(
                &format!("{name}.kernel_wall_s"),
                true,
                "no history for this module, skipped".into(),
            );
            continue;
        };
        // Wall growth: relative threshold AND the absolute noise floor —
        // both must be exceeded before a slowdown counts.
        let wall_ok = *wall <= base_wall * ratio || wall - base_wall < ABS_FLOOR_S;
        check(
            &format!("{name}.kernel_wall_s"),
            wall_ok,
            format!(
                "current {wall:.4}s vs median {base_wall:.4}s over {} run(s)",
                base.runs
            ),
        );
        // Throughput drop: the wall-side noise floor applies here too —
        // a rate halving on a 5 ms run is jitter, not a regression.
        let rate_ok = *rate >= base_rate / ratio || wall - base_wall < ABS_FLOOR_S;
        check(
            &format!("{name}.faults_per_s"),
            rate_ok,
            format!("current {rate:.0} vs median {base_rate:.0}"),
        );
    }
    // The fleet runs long enough (100k dies) that the ratio alone is
    // trustworthy.
    let fleet_ok = current.fleet_dies_per_s >= base.fleet_dies_per_s / ratio;
    check(
        "fleet.dies_per_s",
        fleet_ok,
        format!(
            "current {:.0} vs median {:.0}",
            current.fleet_dies_per_s, base.fleet_dies_per_s
        ),
    );
    // Health-monitor columns, compared when the history carries them; the
    // current record must then carry them too. The overhead gate has an
    // absolute ceiling as well: whatever the history says, the monitor may
    // never cost more than 2 % — unless the whole delta is under the
    // wall-clock noise floor.
    const MISSING: &str = "missing from the current record, which the history carries";
    if let Some(base_pct) = base.monitor_overhead_pct {
        match (current.monitor_overhead_pct, current.monitor_overhead_s) {
            (Some(pct), Some(delta_s)) => check(
                "fleet.monitor_overhead_pct",
                pct <= (base_pct * ratio).max(2.0) || delta_s < ABS_FLOOR_S,
                format!("current {pct:.2}% vs median {base_pct:.2}% (ceiling 2%)"),
            ),
            _ => check("fleet.monitor_overhead_pct", false, MISSING.into()),
        }
    }
    // Detection latency is measured in batches — deterministic, no noise
    // floor needed. The 8-batch contract is the absolute ceiling.
    if let Some(base_lat) = base.detect_latency_batches {
        match current.detect_latency_batches {
            Some(lat) => check(
                "fleet.detect_latency_batches",
                lat <= (base_lat * ratio).max(8.0),
                format!("current {lat:.0} vs median {base_lat:.0} (ceiling 8)"),
            ),
            None => check("fleet.detect_latency_batches", false, MISSING.into()),
        }
    }
    failures
}

/// A synthetic run exactly 2× slower than the baseline on every metric —
/// the self-test input the gate must reject.
fn synthetic_slowdown(base: &Baseline, patterns: u64) -> Record {
    Record {
        patterns,
        modules: base
            .modules
            .iter()
            // Past both the ratio and the absolute floor, whatever the
            // baseline's scale.
            .map(|(n, w, f)| (n.clone(), w * 2.0 + ABS_FLOOR_S * 2.0, f / 2.0))
            .collect(),
        fleet_dies_per_s: base.fleet_dies_per_s / 2.0,
        // Past the 2 % ceiling, the history ratio, and the noise floor.
        monitor_overhead_s: base.monitor_overhead_pct.map(|_| ABS_FLOOR_S * 2.0),
        monitor_overhead_pct: base.monitor_overhead_pct.map(|p| (p * 2.0).max(5.0)),
        // Past both the history ratio and the 8-batch contract.
        detect_latency_batches: base.detect_latency_batches.map(|l| l * 2.0 + 16.0),
    }
}

/// The synopsis printed with every argument error.
const USAGE: &str = "\
usage: bench_gate [--history=BENCH_history.jsonl] [--current=BENCH_current.json]
                  [--max-regression-pct=25] [--self-test]";

/// The gate's arguments, every one checked before any file is read.
struct Args {
    history_path: String,
    current_path: String,
    max_regression_pct: f64,
    self_test: bool,
}

/// Parses the arguments; an unknown one or a malformed value is an error,
/// never a silent default.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        history_path: "BENCH_history.jsonl".into(),
        current_path: "BENCH_current.json".into(),
        max_regression_pct: 25.0,
        self_test: false,
    };
    for a in args {
        match a.split_once('=') {
            Some(("--history", v)) => parsed.history_path = v.into(),
            Some(("--current", v)) => parsed.current_path = v.into(),
            Some(("--max-regression-pct", v)) => {
                parsed.max_regression_pct =
                    v.parse().map_err(|e| format!("bad value in `{a}`: {e}"))?;
            }
            None if a == "--self-test" => parsed.self_test = true,
            _ => return Err(format!("unknown argument `{a}`")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        history_path,
        current_path,
        max_regression_pct,
        self_test,
    } = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench-gate: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let Ok(history_text) = std::fs::read_to_string(&history_path) else {
        eprintln!("bench-gate: cannot read history at {history_path}");
        return ExitCode::FAILURE;
    };
    let mut history = Vec::new();
    for (i, line) in history_text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_record(line) {
            Ok(r) => history.push(r),
            Err(e) => {
                eprintln!("bench-gate: {history_path}:{}: {e}", i + 1);
                return ExitCode::FAILURE;
            }
        }
    }
    if history.is_empty() {
        eprintln!("bench-gate: {history_path} holds no records");
        return ExitCode::FAILURE;
    }

    if self_test {
        // Prove the gate can fail: a 2× slowdown against the history's
        // own (first) patterns budget must be rejected.
        let patterns = history[0].patterns;
        let Some(base) = baseline(&history, patterns) else {
            eprintln!("bench-gate: self-test found no comparable history");
            return ExitCode::FAILURE;
        };
        let synthetic = synthetic_slowdown(&base, patterns);
        let failures = gate(&base, &synthetic, max_regression_pct);
        if failures > 0 {
            println!(
                "bench-gate: self-test OK — synthetic 2x slowdown rejected \
                 ({failures} failing metric(s))"
            );
            return ExitCode::SUCCESS;
        }
        eprintln!("bench-gate: self-test FAILED — a 2x slowdown passed the gate");
        return ExitCode::FAILURE;
    }

    let current = match std::fs::read_to_string(&current_path) {
        Ok(text) => match parse_record(text.trim()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("bench-gate: {current_path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(_) => {
            eprintln!(
                "bench-gate: cannot read {current_path} — run `repro --bench-faultsim` first"
            );
            return ExitCode::FAILURE;
        }
    };
    let Some(base) = baseline(&history, current.patterns) else {
        println!(
            "bench-gate: PASS (no history at {} patterns to compare against)",
            current.patterns
        );
        return ExitCode::SUCCESS;
    };
    let failures = gate(&base, &current, max_regression_pct);
    if failures == 0 {
        println!(
            "bench-gate: PASS — no metric regressed more than {max_regression_pct:.0}% \
             vs the {}-run history median",
            base.runs
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("bench-gate: FAIL — {failures} metric(s) regressed");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record `slowdown` times slower than the reference run, with or
    /// without the health-monitor columns.
    fn record(slowdown: f64, monitor: bool) -> Record {
        Record {
            patterns: 192,
            modules: [
                ("BIT_NODE", 0.016, 190_000.0),
                ("CHECK_NODE", 0.105, 130_000.0),
            ]
            .iter()
            .map(|&(n, wall, rate)| (n.to_owned(), wall * slowdown, rate / slowdown))
            .collect(),
            fleet_dies_per_s: 100_000.0 / slowdown,
            monitor_overhead_s: monitor.then_some(0.003),
            monitor_overhead_pct: monitor.then_some(1.5),
            detect_latency_batches: monitor.then_some(2.0),
        }
    }

    /// A three-run history around the reference run.
    fn history(monitor: bool) -> Vec<Record> {
        [0.9, 1.0, 1.1].map(|s| record(s, monitor)).to_vec()
    }

    #[test]
    fn a_run_at_the_median_passes() {
        let base = baseline(&history(true), 192).expect("comparable history");
        assert_eq!(gate(&base, &record(1.0, true), 25.0), 0);
    }

    #[test]
    fn a_2x_slowdown_fails() {
        let base = baseline(&history(true), 192).expect("comparable history");
        // CHECK_NODE's wall and rate and the fleet rate; BIT_NODE's 16 ms
        // of growth stays under the 20 ms noise floor.
        assert_eq!(gate(&base, &record(2.0, true), 25.0), 3);
    }

    #[test]
    fn a_monitor_column_the_history_carries_must_be_in_the_current_record() {
        let base = baseline(&history(true), 192).expect("comparable history");
        let drops: [fn(&mut Record); 3] = [
            |r| r.monitor_overhead_s = None,
            |r| r.monitor_overhead_pct = None,
            |r| r.detect_latency_batches = None,
        ];
        for drop in drops {
            let mut current = record(1.0, true);
            drop(&mut current);
            assert_eq!(gate(&base, &current, 25.0), 1);
        }
    }

    #[test]
    fn a_history_without_monitor_columns_passes_a_record_without_them() {
        let base = baseline(&history(false), 192).expect("comparable history");
        assert_eq!(gate(&base, &record(1.0, false), 25.0), 0);
    }

    #[test]
    fn unknown_flag_or_malformed_value_is_an_error() {
        let args = |list: &[&str]| list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        let parsed = parse_args(&args(&["--self-test", "--max-regression-pct=10"]));
        assert_eq!(
            parsed.map(|a| (a.self_test, a.max_regression_pct)),
            Ok((true, 10.0))
        );
        for bad in [
            "--max-regression-pct=abc",
            "--max-regresion-pct=10",
            "--self-tset",
            "--history",
        ] {
            assert!(parse_args(&args(&[bad])).is_err(), "{bad}");
        }
    }
}
