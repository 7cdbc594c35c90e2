//! Regenerates every table and figure of the paper.
//!
//! The synopsis is [`USAGE`]; [`MODES`] lists the flags each mode reads.
//! An unknown flag or table name, more than one mode flag, a flag or table
//! name the selected mode does not read, or a malformed or out-of-range
//! value prints the error and the usage and exits 2 before any work.
//! Every mode asserts its own contract, so a violation panics and the
//! process exits non-zero.
//!
//! `--quick` uses the reduced experiment budget (CI-sized); without it the
//! paper's configuration runs (4,096 BIST patterns etc.) — build with
//! `--release` for that.
//!
//! `--bench-faultsim` skips the tables and instead benchmarks the
//! fault-simulation hot path per module — one serial and one all-cores
//! stuck-at campaign each, asserting bit-identical detections, per-window
//! survivors and coverage curves before timing is trusted — and writes
//! the measurements to `BENCH_faultsim.json`, including the fleet's
//! health-monitor and profiler overhead gates (each ≤ 2 % or under a
//! 20 ms floor against one shared plain baseline) and the drift
//! detection-latency column (an injected 3× defect-rate step must be
//! flagged within 8 batches).
//!
//! `--trace=FILE` / `--metrics=FILE` / `--vcd=FILE` skip the tables and
//! run the observability demo instead: a fault-tolerant session against a
//! DUT carrying a planted stuck-at defect, with the JSON-Lines event
//! trace, the Prometheus metrics snapshot, and the DUT waveform written to
//! the given files. Every artifact is validated with the in-tree parsers
//! before the process exits 0.
//!
//! `--report=FILE` runs the full campaign cockpit against the same
//! planted-defect DUT and writes one self-contained HTML report (inline
//! SVG coverage curves, toggle heatmap, diagnosis histogram, feedback
//! advisor, session timeline). The curve endpoints are asserted
//! bit-identical to `FaultSimResult::coverage_percent`, the advisor must
//! name the quarantined module, and the document must carry no external
//! reference before the process exits 0.
//!
//! `--autopilot` flies the closed-loop coverage controller instead of the
//! tables: every module is screened for defects and hangs, then iterated
//! to the coverage target (default 50 %, override with `--target=`) with
//! no human in the loop, each module ending on a terminal verdict
//! (`Converged` / `Stalled` / `BudgetExhausted` / `Quarantined`). Knobs:
//! `--max-patterns=` (per-round ceiling), `--seed=` (master seed),
//! `--inject-hang=M` (drive module M's screen against a backend that
//! never finishes, to drill the quarantine degradation), `--trail=FILE`
//! (write the decision trail as validated JSONL; the trail must hold the
//! start, decision and verdict events either way). Composes with
//! `--report=FILE`: the cockpit report then carries an Autopilot section
//! with the verdicts, the decision table, and the greppable trail.
//!
//! `--fleet` runs a population-scale campaign instead of the tables:
//! `--dies=N` simulated dies (default 10,000) drawing seed-deterministic
//! defect profiles (`--seed=S`, `--defect-rate=R`) run the full
//! TAP→P1500→BIST session protocol against the shared signature cache,
//! fanned over `--workers=W` threads. Prints greppable `fleet:` summary
//! lines (yield, escapes, overkill, TCK percentiles, throughput), streams
//! the aggregate into a metrics registry, and with `--report=FILE` writes
//! the cockpit report with a batch-by-batch Fleet section.
//!
//! Observatory flags (compose with `--fleet`): `--profile=FILE` attaches
//! the hierarchical self-profiler and writes the phase tree as JSON plus
//! a flamegraph-compatible `FILE.collapsed` sibling, asserting the
//! top-level phases cover ≥ 95 % of the measured build+run wall;
//! `--sample-dies=N` traces every Nth die (plus a per-class quota of 2,
//! so rare defect classes are always captured) into bounded rings;
//! `--traces=FILE` writes the sampled-die traces as validated JSONL.
//! With `--report=FILE` the cockpit report gains an Observatory section
//! (phase attribution, sampled-die timeline, dies/s per batch).
//!
//! Health flags (compose with `--fleet`): `--monitor` arms the
//! SPC health monitor (EWMA + CUSUM on yield and recovered rate) and
//! prints greppable `health:` lines;
//! `--batch=N` overrides the monitoring batch size;
//! `--inject-drift=BATCH:RATE` steps the defect rate at that batch
//! (implies `--monitor`) and asserts detection within 8 batches with a
//! quiet clean prefix and a `stuck_at` attribution; `--excursions=FILE`
//! writes the byte-deterministic excursion ledger as validated JSONL.
//! With `--report=FILE` the cockpit report gains a Health section
//! (control charts with signal markers, excursion table, verdict tiles).

use std::fmt::{Display, Write as _};
use std::str::FromStr;
use std::time::Instant;

use soctest_bench::{
    render_fig3, render_fig4, render_table1, render_table2, render_table3, render_table4,
    render_table5,
};
use soctest_core::autopilot::{Autopilot, AutopilotConfig, Verdict};
use soctest_core::casestudy::CaseStudy;
use soctest_core::cockpit;
use soctest_core::experiments::{self, Budget};
use soctest_core::fleet::{DefectMix, DriftSpec, Fleet, FleetConfig};
use soctest_core::health::HealthConfig;
use soctest_core::robust::RobustSession;
use soctest_fault::{FaultUniverse, ParallelPolicy, SeqFaultSim, SeqFaultSimConfig};
use soctest_obs::json::{self, JsonValue};
use soctest_obs::{
    MetricsHandle, MetricsRegistry, MetricsSnapshot, ProfileHandle, SamplerPolicy, TraceHandle,
    Tracer, VcdReader,
};
use soctest_tech::Library;

/// One module's serial-vs-parallel measurement for `BENCH_faultsim.json`.
struct FaultSimBench {
    name: &'static str,
    patterns: u64,
    faults: usize,
    serial_wall_s: f64,
    parallel_wall_s: f64,
    /// Worker count the serial policy actually resolved to (always 1).
    serial_threads: usize,
    /// Worker count the default parallel policy actually resolved to —
    /// equal to `serial_threads` on a single-core host, in which case the
    /// serial-vs-parallel "speedup" is just measurement noise.
    threads: usize,
    curve: soctest_obs::CurveSummary,
}

impl FaultSimBench {
    /// Serial vs parallel walls resolve to *different* worker counts, so
    /// their ratio measures parallelism rather than noise.
    fn speedup_comparable(&self) -> bool {
        self.threads != self.serial_threads
    }

    fn speedup(&self) -> f64 {
        if self.parallel_wall_s > 0.0 {
            self.serial_wall_s / self.parallel_wall_s
        } else {
            0.0
        }
    }

    fn faults_per_s(&self) -> f64 {
        if self.parallel_wall_s > 0.0 {
            self.faults as f64 / self.parallel_wall_s
        } else {
            0.0
        }
    }
}

/// Runs every job `rounds` times, interleaved, and returns each job's
/// fastest wall in seconds. Round `r` starts at job `r` (jobs `r, r+1, …`
/// mod N), so no job always runs first. Interleaving keeps a load spike on
/// the host from charging one job only.
fn fastest_interleaved<const N: usize>(rounds: usize, jobs: [&dyn Fn() -> f64; N]) -> [f64; N] {
    let mut fastest = [f64::INFINITY; N];
    for r in 0..rounds {
        for k in 0..N {
            let j = (r + k) % N;
            fastest[j] = fastest[j].min(jobs[j]());
        }
    }
    fastest
}

/// One instrumentation-overhead measurement: the fastest wall with the
/// instrumentation off vs on.
struct Overhead {
    off_s: f64,
    on_s: f64,
}

impl Overhead {
    fn delta_s(&self) -> f64 {
        self.on_s - self.off_s
    }

    fn pct(&self) -> f64 {
        if self.off_s > 0.0 {
            100.0 * self.delta_s() / self.off_s
        } else {
            0.0
        }
    }

    /// The overhead rule: within 2 % relative, or under the 20 ms
    /// absolute noise floor of short runs on a loaded host.
    fn ok(&self) -> bool {
        self.pct() <= 2.0 || self.delta_s() < 0.02
    }

    /// Prints the greppable `fleet: <what> overhead` line and asserts the
    /// rule.
    fn gate(&self, what: &str, dies: u64) {
        println!(
            "fleet: {what} overhead {dies} dies, off {:.4}s vs on {:.4}s ({:+.2}%) — {}",
            self.off_s,
            self.on_s,
            self.pct(),
            if self.ok() {
                "within budget"
            } else {
                "OVER BUDGET"
            }
        );
        assert!(
            self.ok(),
            "{what} overhead {:.2}% exceeds the 2% budget \
             (absolute delta {:.4}s over the 0.02s floor)",
            self.pct(),
            self.delta_s()
        );
    }
}

/// Runs the serial and parallel stuck-at campaigns for every module,
/// prints the per-run [`soctest_fault::FaultSimStats`], and writes
/// `BENCH_faultsim.json` (hand-rendered; the workspace has no serde).
fn bench_faultsim(case: &CaseStudy, patterns: u64) {
    let host_threads = ParallelPolicy::default().effective_threads();
    let pgen = case.pattern_generator();
    let mut rows: Vec<FaultSimBench> = Vec::new();

    for (m, name) in ["BIT_NODE", "CHECK_NODE", "CONTROL_UNIT"]
        .iter()
        .enumerate()
    {
        let universe = FaultUniverse::stuck_at(&case.modules()[m]);

        let run = |policy: ParallelPolicy| {
            let mut stim = pgen.stimulus(m, patterns);
            let cfg = SeqFaultSimConfig {
                parallel: policy,
                ..Default::default()
            };
            SeqFaultSim::new(&universe, cfg)
                .run(&mut stim)
                .expect("fault sim")
        };

        let serial = run(ParallelPolicy::serial());
        let parallel = run(ParallelPolicy::default());
        println!("{name}: serial   {}", serial.stats);
        println!("{name}: parallel {}", parallel.stats);

        let serial_wall = || run(ParallelPolicy::serial()).stats.wall.as_secs_f64();
        let parallel_wall = || run(ParallelPolicy::default()).stats.wall.as_secs_f64();
        let [serial_wall_s, parallel_wall_s] =
            fastest_interleaved(3, [&serial_wall, &parallel_wall]);

        // The bit-identity contract, asserted on real workloads: thread
        // count must not change the detections, the per-window survivor
        // trajectory, or any work counter — both passes' routes included.
        // (Correctness against the naive reference is `difftest`'s
        // case-study leg.)
        let (s, p) = (&serial.stats, &parallel.stats);
        let identical = serial.detection == parallel.detection
            && s.survivors == p.survivors
            && (s.windows, s.good_cycles, s.faulty_cycles)
                == (p.windows, p.good_cycles, p.faulty_cycles)
            && (s.settled_fault_windows, s.handed_back_fault_windows)
                == (p.settled_fault_windows, p.handed_back_fault_windows);
        assert!(identical, "{name}: parallel run diverged from serial");
        // The coverage curves must also compare bit-identical — detection
        // indices are absolute, so thread count cannot reshape the curve.
        assert_eq!(
            serial.curve(),
            parallel.curve(),
            "{name}: parallel coverage curve diverged from serial"
        );
        println!("{name}: identical: {identical} (serial vs parallel)");
        let curve_summary = parallel.curve().summary();

        rows.push(FaultSimBench {
            name,
            patterns,
            faults: universe.len(),
            serial_wall_s,
            parallel_wall_s,
            serial_threads: serial.stats.threads,
            threads: parallel.stats.threads,
            curve: curve_summary,
        });
        let r = rows.last().expect("just pushed");
        println!("{name}: kernel {parallel_wall_s:.4}s");
        if r.speedup_comparable() {
            println!(
                "{name}: serial/parallel speedup {:.2}x on {} thread(s)",
                r.speedup(),
                r.threads
            );
        } else {
            println!(
                "{name}: serial/parallel speedup not comparable — both policies \
                 resolved to {} worker(s)",
                r.threads
            );
        }
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"host_threads\": {host_threads},");
    json.push_str("  \"modules\": [\n");
    for (i, r) in rows.iter().enumerate() {
        // The knee: patterns to the highest milestone this curve actually
        // reached, so sub-90% modules report a number instead of null.
        let knee = r
            .curve
            .patterns_to(90)
            .map(|(t, p)| format!("{{\"percent\": {t}, \"patterns\": {p}}}"))
            .unwrap_or_else(|| "null".into());
        // A serial-vs-parallel "speedup" measured at equal worker counts
        // is noise, not parallelism — publish null instead of a number.
        let speedup = if r.speedup_comparable() {
            format!("{:.3}", r.speedup())
        } else {
            "null".into()
        };
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"patterns\": {}, \"faults\": {}, \
             \"serial_wall_s\": {:.6}, \"parallel_wall_s\": {:.6}, \
             \"kernel_wall_s\": {:.6}, \
             \"serial_threads\": {}, \"threads\": {}, \
             \"speedup_comparable\": {}, \"speedup\": {}, \
             \"faults_per_s\": {:.1}, \
             \"identical\": true, \"knee\": {}, \"curve\": {}}}",
            r.name,
            r.patterns,
            r.faults,
            r.serial_wall_s,
            r.parallel_wall_s,
            r.parallel_wall_s,
            r.serial_threads,
            r.threads,
            r.speedup_comparable(),
            speedup,
            r.faults_per_s(),
            knee,
            r.curve.to_json(),
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");

    // A population-scale fleet flight over the cached replay protocol:
    // 100k dies is enough for stable percentiles, and the ≥1000 dies/s
    // line is the bench contract for the shared-cache architecture.
    let fleet_dies = 100_000u64;
    let fleet = Fleet::new_profiled(
        case,
        FleetConfig::new(fleet_dies, 42),
        ProfileHandle::enabled(),
    )
    .expect("fleet cache builds");
    let flight = fleet.run();
    let fr = &flight.report;
    println!(
        "fleet: {} dies, yield {:.2}%, {:.0} dies/s, session tck p50={} p99={}",
        fr.dies,
        fr.yield_percent(),
        fr.dies_per_sec(),
        fr.tck.p50,
        fr.tck.p99
    );
    assert!(
        fr.dies_per_sec() >= 1000.0,
        "fleet throughput {:.0} dies/s is below the 1000 dies/s contract",
        fr.dies_per_sec()
    );
    // The instrumentation-overhead gates: the same flight plain, with the
    // health monitor armed, and with the profiler attached, each
    // instrumented side measured against the one shared plain baseline.
    let overhead_dies = 20_000u64;
    let cfg = FleetConfig::new(overhead_dies, 42);
    let plain = Fleet::new(case, cfg.clone()).expect("fleet cache builds");
    let monitored = Fleet::new(case, cfg.clone())
        .expect("fleet cache builds")
        .with_monitor(HealthConfig::default());
    let profiled =
        Fleet::new_profiled(case, cfg, ProfileHandle::enabled()).expect("fleet cache builds");
    let flight_wall = |fleet: &Fleet| {
        let started = Instant::now();
        let outcome = fleet.run();
        assert_eq!(
            outcome.report.dies, overhead_dies,
            "flight must cover every die"
        );
        started.elapsed().as_secs_f64()
    };
    let [off_s, monitor_on_s, profiler_on_s] = fastest_interleaved(
        3,
        [
            &|| flight_wall(&plain),
            &|| flight_wall(&monitored),
            &|| flight_wall(&profiled),
        ],
    );
    let monitor = Overhead {
        off_s,
        on_s: monitor_on_s,
    };
    monitor.gate("monitor", overhead_dies);
    Overhead {
        off_s,
        on_s: profiler_on_s,
    }
    .gate("profiler", overhead_dies);
    let (monitor_overhead_s, monitor_overhead_pct) = (monitor.delta_s(), monitor.pct());

    // The detection-latency column: a drifted monitored flight (3× the
    // default defect rate stepped mid-run) must flag within 8 batches.
    let mut drift_cfg = FleetConfig::new(4_000, 42);
    drift_cfg.batch = 100;
    drift_cfg.inject_drift = Some(DriftSpec {
        batch: 20,
        mix: DefectMix {
            defect_rate: (drift_cfg.mix.defect_rate * 3.0).min(1.0),
            ..drift_cfg.mix
        },
    });
    let drifted = Fleet::new(case, drift_cfg)
        .expect("fleet cache builds")
        .with_monitor(HealthConfig::default());
    let health = drifted.run().health.expect("monitor was armed");
    let detect_latency_batches = health
        .detection_latency(20)
        .expect("injected drift must be flagged");
    println!(
        "fleet: injected 3x defect-rate drift detected in {detect_latency_batches} batch(es) \
         ({} excursion(s))",
        health.excursions.len()
    );
    assert!(
        detect_latency_batches <= 8,
        "drift detection latency {detect_latency_batches} batches exceeds the 8-batch bound"
    );

    let _ = writeln!(
        json,
        "  \"fleet\": {{\"dies\": {}, \"seed\": {}, \"dies_per_s\": {:.1}, \
         \"yield_percent\": {:.4}, \"escapes\": {}, \"overkill\": {}, \
         \"session_tck_p50\": {}, \"session_tck_p99\": {}, \"wall_s\": {:.3}, \
         \"monitor_overhead_s\": {:.4}, \"monitor_overhead_pct\": {:.2}, \
         \"detect_latency_batches\": {}}},",
        fr.dies,
        fr.seed,
        fr.dies_per_sec(),
        fr.yield_percent(),
        fr.escapes,
        fr.overkill,
        fr.tck.p50,
        fr.tck.p99,
        fr.elapsed_ns as f64 / 1e9,
        monitor_overhead_s,
        monitor_overhead_pct,
        detect_latency_batches
    );

    // The slim bench-history record: only the throughput figures the
    // regression gate (`bench_gate`) compares, one JSON line. Always
    // written to BENCH_current.json for the gate to pick up; appended to
    // the committed BENCH_history.jsonl only under UPDATE_BENCH_HISTORY=1
    // (same convention as UPDATE_GOLDEN for the conformance vectors).
    let prof = fleet.profile().snapshot();
    let mut record = format!("{{\"schema\": 1, \"patterns\": {patterns}, \"modules\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            record,
            "{}{{\"name\": \"{}\", \"kernel_wall_s\": {:.6}, \"faults_per_s\": {:.1}}}",
            if i > 0 { ", " } else { "" },
            r.name,
            r.parallel_wall_s,
            r.faults_per_s()
        );
    }
    let _ = write!(
        record,
        "], \"fleet_dies_per_s\": {:.1}, \"monitor_overhead_s\": {monitor_overhead_s:.4}, \
         \"monitor_overhead_pct\": {monitor_overhead_pct:.2}, \
         \"detect_latency_batches\": {detect_latency_batches}, \"phase_shares\": {{",
        fr.dies_per_sec()
    );
    if let Some(p) = &prof {
        let total = p.total_wall_ns().max(1) as f64;
        for (i, (name, wall, _)) in p.phases().iter().enumerate() {
            let _ = write!(
                record,
                "{}\"{name}\": {:.4}",
                if i > 0 { ", " } else { "" },
                *wall as f64 / total
            );
        }
    }
    record.push_str("}}");
    json::parse(&record).expect("bench-history record parses");
    std::fs::write("BENCH_current.json", format!("{record}\n")).expect("write BENCH_current.json");
    println!("bench: wrote BENCH_current.json");
    if std::env::var("UPDATE_BENCH_HISTORY").is_ok_and(|v| v == "1") {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open("BENCH_history.jsonl")
            .expect("open BENCH_history.jsonl");
        writeln!(f, "{record}").expect("append BENCH_history.jsonl");
        println!("bench: appended record to BENCH_history.jsonl");
    }

    // One quick closed-loop flight, so the bench file also records what
    // the controller does with this host's budget: per-module verdicts,
    // rounds consumed, and the final coverage each loop reached.
    let pilot = Autopilot::new(AutopilotConfig {
        target_percent: 30.0,
        start_patterns: 96,
        max_patterns: patterns.max(96),
        ..Default::default()
    })
    .expect("valid bench autopilot config");
    let flight = pilot.run(case, case).expect("bench autopilot terminates");
    let _ = writeln!(
        json,
        "  \"autopilot\": {{\"target_percent\": {:.1}, \"sim_patterns\": {}, \"modules\": [",
        flight.target_percent, flight.sim_patterns
    );
    for (i, m) in flight.modules.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"verdict\": \"{}\", \"rounds\": {}, \
             \"final_percent\": {:.3}, \"recommended_patterns\": {}}}",
            m.module,
            m.verdict.name(),
            m.rounds.len(),
            m.final_percent,
            m.recommended_patterns
                .map(|p| p.to_string())
                .unwrap_or_else(|| "null".into()),
        );
        json.push_str(if i + 1 < flight.modules.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ]}\n}\n");
    std::fs::write("BENCH_faultsim.json", &json).expect("write BENCH_faultsim.json");
    println!("\nwrote BENCH_faultsim.json ({host_threads} host thread(s) available)");
}

/// The observability demo behind `--trace/--metrics/--vcd`: one robust
/// session against a DUT whose CONTROL_UNIT carries a planted stuck-at-1
/// defect, so the artifacts show the full watchdog/retry/quarantine story.
/// Each requested artifact is validated with the in-tree parsers and
/// written before the process exits.
fn obs_demo(
    reference: &CaseStudy,
    case_patterns: u64,
    trace_path: Option<&str>,
    metrics_path: Option<&str>,
    vcd_path: Option<&str>,
) {
    use std::fs;

    let dut = planted_dut(reference);
    let trace = match trace_path {
        Some(_) => TraceHandle::new(Tracer::default()),
        None => TraceHandle::none(),
    };
    let mut session = RobustSession::default()
        .with_vcd(vcd_path.is_some())
        .with_trace(trace.clone());
    let registry = std::sync::Arc::new(MetricsRegistry::new());
    if metrics_path.is_some() {
        session = session.with_metrics(MetricsHandle::from_arc(std::sync::Arc::clone(&registry)));
    }

    let report = session
        .run(reference, &dut, case_patterns)
        .expect("robust session");
    println!(
        "observability demo: {case_patterns} patterns, {} TCK, quarantined: {:?}",
        report.tck_spent,
        report.quarantined()
    );
    if let Some(path) = trace_path {
        let text = trace.with(|t| t.to_jsonl()).unwrap_or_default();
        jsonl_artifact(
            "trace",
            &text,
            &[
                "SessionStart",
                "AttemptResult",
                "RetryEscalation",
                "Quarantine",
            ],
            Some(path),
        );
    }
    assert_eq!(
        report.quarantined(),
        vec!["CONTROL_UNIT"],
        "the planted defect must quarantine CONTROL_UNIT"
    );

    if let Some(path) = metrics_path {
        let snap = registry.snapshot();
        let prom = snap.to_prometheus();
        fs::write(path, &prom).expect("write metrics");
        let parsed = MetricsSnapshot::parse_prometheus(&prom).expect("snapshot round-trips");
        assert_eq!(
            parsed.counters.get("session_quarantines_total"),
            Some(&1),
            "metrics record the quarantine"
        );
        json::parse(&snap.to_json()).expect("JSON exposition parses");
        println!(
            "wrote {path} ({} counters, {} gauges, {} histograms; Prometheus + JSON validated)",
            snap.counters.len(),
            snap.gauges.len(),
            snap.histograms.len()
        );
    }

    if let Some(path) = vcd_path {
        let vcd = report.vcd.as_deref().expect("session recorded a waveform");
        fs::write(path, vcd).expect("write vcd");
        let reader = VcdReader::parse(vcd).expect("waveform loads");
        println!(
            "wrote {path} ({} signals, VCD validated)",
            reader.vars.len()
        );
    }
}

/// Everything `--fleet` accepts, parsed before any work starts.
struct FleetArgs {
    dies: u64,
    seed: u64,
    defect_rate: Option<Rate>,
    workers: Option<usize>,
    batch: Option<u64>,
    report_path: Option<String>,
    profile_path: Option<String>,
    sample_dies: Option<u64>,
    traces_path: Option<String>,
    /// Arm the health monitor (`--monitor`).
    monitor: bool,
    /// `--inject-drift=BATCH:RATE` — step the defect rate at a batch.
    inject_drift: Option<Drift>,
    /// `--excursions=FILE` — write the excursion ledger JSONL.
    excursions_path: Option<String>,
}

/// The population campaign behind `--fleet`: builds the shared signature
/// cache once, streams every die through the cached session protocol,
/// prints greppable `fleet:` summary lines, folds the aggregate into a
/// metrics registry, and (with `--report=FILE`) writes the cockpit report
/// with its Fleet section. Determinism is asserted structurally: the
/// aggregate JSON is a pure function of `(dies, seed, config)`.
///
/// With `--monitor` the health monitor rides along: greppable
/// `health:` lines (baseline, excursion count, per-excursion attribution),
/// the excursion ledger (`--excursions=FILE`), and a Health section in the
/// cockpit report.
/// With `--inject-drift=BATCH:RATE` the defect rate steps at that batch
/// and the demo asserts detection within 8 batches, zero excursions on
/// the clean prefix, and a `stuck_at` attribution (the dominant class of
/// the default mix).
fn fleet_demo(case: &CaseStudy, budget: &Budget, fa: &FleetArgs) {
    let mut cfg = FleetConfig::new(fa.dies, fa.seed);
    if let Some(Rate(rate)) = fa.defect_rate {
        cfg.mix.defect_rate = rate;
    }
    if let Some(w) = fa.workers {
        cfg.workers = w;
    }
    if let Some(b) = fa.batch {
        cfg.batch = b;
    }
    if let Some(Drift { batch, rate }) = fa.inject_drift {
        cfg.inject_drift = Some(DriftSpec {
            batch,
            mix: DefectMix {
                defect_rate: rate.0,
                ..cfg.mix
            },
        });
    }
    let profile = if fa.profile_path.is_some() {
        ProfileHandle::enabled()
    } else {
        ProfileHandle::none()
    };
    let wall_started = Instant::now();
    let build_started = Instant::now();
    let mut fleet = Fleet::new_profiled(case, cfg, profile.clone()).expect("fleet cache builds");
    if let Some(every) = fa.sample_dies {
        // Stride sampling plus a per-class quota of 2, so rare Hung /
        // StuckAt dies are always captured even when the stride misses
        // every one of them.
        fleet = fleet.with_trace_sampling(SamplerPolicy::new(every, 2), 0);
    }
    if fa.monitor {
        fleet = fleet.with_monitor(HealthConfig::default());
    }
    println!(
        "fleet: cache built in {:.2?} ({} stuck-at sites, {} ladder rungs)",
        build_started.elapsed(),
        fleet.sites().len(),
        fleet.strategies().len()
    );

    let outcome = fleet.run();
    let measured_wall_ns = wall_started.elapsed().as_nanos() as u64;
    let r = &outcome.report;
    println!(
        "fleet: dies {} seed {} patterns {} defect-rate {:.4}",
        r.dies, r.seed, r.patterns, r.defect_rate
    );
    println!(
        "fleet: yield {:.4}% ({} passed / {} dies)",
        r.yield_percent(),
        r.passed,
        r.dies
    );
    println!(
        "fleet: escapes {} ({:.4}% of stuck-at dies)",
        r.escapes,
        r.escape_percent()
    );
    println!(
        "fleet: overkill {} ({:.4}% of clean dies)",
        r.overkill,
        r.overkill_percent()
    );
    println!(
        "fleet: quarantined {} hung {} protocol {} recovered {}",
        r.quarantined, r.hung, r.protocol, r.recovered
    );
    for c in &r.classes {
        println!(
            "fleet: class {} sampled {} passed {} quarantined {} hung {}",
            c.class.name(),
            c.sampled,
            c.passed,
            c.quarantined,
            c.hung
        );
    }
    println!(
        "fleet: tck p50={} p95={} p99={}",
        r.tck.p50, r.tck.p95, r.tck.p99
    );
    println!(
        "fleet: throughput {:.0} dies/s ({:.3}s wall)",
        r.dies_per_sec(),
        r.elapsed_ns as f64 / 1e9
    );

    // The health monitor: greppable `health:` lines, the
    // excursion ledger, and — under injected drift — the detection
    // contract (flagged within 8 batches, clean prefix stays quiet,
    // attribution names the dominant class of the stepped mix).
    if let Some(health) = &outcome.health {
        println!(
            "health: batches={} baseline-yield={:.4} baseline-recovered={:.4} \
             excursions={} in_control={}",
            health.batches,
            health.baseline_yield,
            health.baseline_recovered,
            health.excursions.len(),
            health.in_control()
        );
        for e in &health.excursions {
            println!(
                "health: excursion batch={} metric={} direction={} magnitude={:.2}sigma \
                 chart={} attributed_class={} class_delta={:+.2}pp \
                 attributed_module={} module_delta={:+.2}pp",
                e.spc.batch,
                e.spc.metric,
                e.spc.direction.name(),
                e.spc.magnitude_sigma,
                e.spc.chart,
                e.attributed_class,
                e.class_delta_pp,
                e.attributed_module,
                e.module_delta_pp
            );
            println!("health: advice {}", e.advice);
        }
        if let Some(Drift {
            batch,
            rate: Rate(rate),
        }) = fa.inject_drift
        {
            println!("health: injected drift batch={batch} defect-rate={rate:.4}");
            assert!(
                health.excursions.iter().all(|e| e.spc.batch >= batch),
                "clean prefix before the injected drift must stay quiet"
            );
            let latency = health
                .detection_latency(batch)
                .expect("injected drift must be flagged");
            println!("health: detect_latency_batches={latency}");
            assert!(
                latency <= 8,
                "drift detection latency {latency} batches exceeds the 8-batch bound"
            );
            // A defect-rate step moves both charts: the yield drop is a
            // stuck_at story, the recovered-rate rise a transient one.
            // The attribution must tell each correctly.
            for e in &health.excursions {
                let expected = match e.spc.metric.as_str() {
                    "yield" => "stuck_at",
                    _ => "transient",
                };
                assert_eq!(
                    e.attributed_class, expected,
                    "a defect-rate step must attribute {expected} on the {} chart",
                    e.spc.metric
                );
            }
            assert!(
                health.excursions.iter().any(|e| e.spc.metric == "yield"),
                "a 3x defect-rate step must flag the yield chart"
            );
        }
        jsonl_artifact(
            "excursion",
            &health.to_jsonl(),
            &[],
            fa.excursions_path.as_deref(),
        );
    }

    // The aggregate streams into the unified metrics registry, same as
    // sessions and TAP protocol counters do.
    let registry = MetricsRegistry::new();
    outcome.export_metrics(&registry);
    let snap = registry.snapshot();
    assert_eq!(
        snap.counters.get("fleet_dies_total"),
        Some(&r.dies),
        "metrics registry must carry the fleet aggregate"
    );
    if outcome.health.is_some() {
        assert!(
            snap.gauges.contains_key("fleet_health_in_control"),
            "metrics registry must carry the fleet_health_* family"
        );
        println!(
            "health: metrics registry carries {} fleet_health gauges",
            snap.gauges
                .keys()
                .filter(|k| k.starts_with("fleet_health_"))
                .count()
        );
    }
    println!(
        "fleet: metrics registry carries {} fleet counters",
        snap.counters
            .keys()
            .filter(|k| k.starts_with("fleet_"))
            .count()
    );

    // The self-profiler artifact: phase tree as JSON plus a
    // flamegraph-compatible collapsed-stack sibling, with the coverage
    // contract (top-level phases ≥ 95 % of the measured build+run wall)
    // asserted before either file is trusted.
    if let Some(path) = fa.profile_path.as_deref() {
        let prof = fleet
            .profile()
            .snapshot()
            .expect("profiling was enabled for --profile=");
        let covered = prof.total_wall_ns() as f64 / measured_wall_ns.max(1) as f64 * 100.0;
        for (name, wall, entries) in prof.phases() {
            println!(
                "profile: phase {name} {:.4}s over {entries} entr{}",
                wall as f64 / 1e9,
                if entries == 1 { "y" } else { "ies" }
            );
        }
        println!("profile: top-level phases cover {covered:.1}% of measured wall");
        assert!(
            covered >= 95.0,
            "profiler top-level phases cover only {covered:.1}% of the measured wall \
             (contract: >= 95%)"
        );
        let tree = prof.to_json();
        json::parse(&tree).expect("profile JSON parses");
        std::fs::write(path, &tree).expect("write profile");
        let collapsed_path = format!("{}.collapsed", path.strip_suffix(".json").unwrap_or(path));
        let collapsed = prof.to_collapsed();
        assert!(
            collapsed.lines().all(|l| l
                .rsplit_once(' ')
                .is_some_and(|(_, us)| us.parse::<u64>().is_ok())),
            "collapsed-stack lines must end in an integer self-time"
        );
        std::fs::write(&collapsed_path, &collapsed).expect("write collapsed stacks");
        println!(
            "wrote {path} + {collapsed_path} ({} top-level phases, JSON + collapsed validated)",
            prof.phases().len()
        );
    }

    // Sampled-die traces: one bounded JSONL block per sampled die,
    // validated line by line with the in-tree parser.
    if fa.sample_dies.is_some() {
        println!(
            "fleet: sampled {} dies for tracing, {} trace event(s) dropped",
            outcome.traces.len(),
            outcome.trace_dropped_events()
        );
    }
    let traces: String = outcome.traces.iter().map(|t| t.to_jsonl()).collect();
    jsonl_artifact("sampled-trace", &traces, &[], fa.traces_path.as_deref());

    if let Some(path) = fa.report_path.as_deref() {
        let mut data =
            cockpit::run_campaign(case, &planted_dut(case), budget).expect("campaign runs");
        data.fleet = Some(r.clone());
        data.observatory = Some(cockpit::ObservatoryData {
            profiler: fleet.profile().snapshot(),
            traces: outcome.traces.clone(),
            batch_walls: outcome.batch_walls.clone(),
            trace_dropped_events: outcome.trace_dropped_events(),
        });
        data.health = outcome.health.clone();
        let mut sections = vec![">Fleet<", "Yield per batch", ">Observatory<"];
        if data.health.is_some() {
            sections.extend([">Health<", "control chart"]);
        }
        if !outcome.traces.is_empty() {
            sections.push("Sampled die");
        }
        write_report(path, &data, &sections);
    }
}

/// The campaign cockpit behind `--report=FILE`: runs the full evaluation
/// loop against the planted-defect DUT and writes one self-contained HTML
/// report. The curve endpoints, the advisor's verdict, and the document's
/// self-containment are all asserted before the process exits.
fn report_demo(case: &CaseStudy, budget: &Budget, path: &str) {
    let data = cockpit::run_campaign(case, &planted_dut(case), budget).expect("campaign runs");

    // The streaming curve's endpoint is the coverage figure — exactly, to
    // the bit, per module and fault model.
    for c in &data.curves {
        assert_eq!(
            c.curve.final_percent().to_bits(),
            c.coverage_percent.to_bits(),
            "{} {}: curve endpoint diverged from coverage_percent",
            c.module,
            c.model
        );
        let s = c.curve.summary();
        println!(
            "{:<12} {} {:>5.1}%  to90={} tofinal={} tail={:.2}",
            c.module,
            c.model,
            c.coverage_percent,
            s.patterns_to_90.map_or("—".into(), |v| v.to_string()),
            s.patterns_to_final.map_or("—".into(), |v| v.to_string()),
            s.tail_flatness,
        );
    }
    assert!(
        data.advice.iter().any(|a| a.module == "CONTROL_UNIT"),
        "the advisor must name the module carrying the planted defect"
    );
    for a in &data.advice {
        println!("advice: [{}] {} — {}", a.strategy, a.module, a.reason);
    }
    write_report(path, &data, &[]);
}

/// The closed-loop demo behind `--autopilot`: screen, iterate, verdict —
/// no human in the loop. Prints one greppable line per module, runs the
/// weighted-CG attack on CHECK_NODE's quick-coverage baseline, checks the
/// decision trail, and optionally writes it (`--trail=`) and a cockpit
/// report with the Autopilot section (`--report=`). `pilot` was built and
/// validated, `inject_hang` included, before any work started.
fn autopilot_demo(
    case: &CaseStudy,
    budget: &Budget,
    pilot: &Autopilot,
    inject_hang: Option<usize>,
    trail_path: Option<&str>,
    report_path: Option<&str>,
) {
    let started = Instant::now();
    let flight = pilot.run(case, case).expect("autopilot terminates");
    let cfg = pilot.config();
    println!(
        "# autopilot — target {:.1}%, max {} patterns/round, seed {:#x}\n",
        cfg.target_percent, cfg.max_patterns, cfg.seed
    );
    for m in &flight.modules {
        let levers: Vec<&str> = m.rounds.iter().map(|r| r.lever.name()).collect();
        println!(
            "autopilot: {:<12} verdict={:<15} rounds={} final={:.1}% knee={} levers=[{}]",
            m.module,
            m.verdict.name(),
            m.rounds.len(),
            m.final_percent,
            m.recommended_patterns
                .map(|p| p.to_string())
                .unwrap_or_else(|| "—".into()),
            levers.join(", "),
        );
    }
    println!(
        "(wall {:.1?}, {} simulated patterns)\n",
        started.elapsed(),
        flight.sim_patterns
    );
    assert_eq!(flight.modules.len(), 3, "one verdict per module");
    if let Some(m) = inject_hang {
        assert_eq!(
            flight.modules[m].verdict,
            Verdict::Quarantined,
            "a hung module must degrade, not wedge the loop"
        );
        assert!(
            flight
                .modules
                .iter()
                .filter(|r| r.index != m)
                .all(|r| r.verdict != Verdict::Quarantined),
            "isolation: the other modules keep flying"
        );
    }

    // The weighted-CG attack: CHECK_NODE's 192-pattern quick-coverage
    // baseline vs the same budget under learned per-input 1-probabilities.
    let universe = FaultUniverse::stuck_at(&case.modules()[1]);
    let coverage = |pgen: &soctest_bist::PatternGenerator| {
        let mut stim = pgen.stimulus(1, 192);
        SeqFaultSim::new(
            &universe,
            SeqFaultSimConfig {
                parallel: budget.parallel,
                ..Default::default()
            },
        )
        .run(&mut stim)
        .expect("fault sim")
        .coverage_percent()
    };
    let base = coverage(&case.pattern_generator());
    let weights = soctest_core::eval::learn_input_weights(case, 1, 192).expect("weights learn");
    let weighted = coverage(
        &case
            .weighted_pattern_generator(1, &weights, cfg.seed)
            .expect("weighted generator builds"),
    );
    println!(
        "weighted-CG attack: CHECK_NODE {base:.1}% -> {weighted:.1}% at 192 patterns ({:+.1} pp)",
        weighted - base
    );
    assert!(
        weighted > base,
        "the learned weights must beat the plain ALFSR baseline on CHECK_NODE"
    );

    jsonl_artifact(
        "decision",
        &flight.trail_jsonl,
        &["AutopilotStart", "AutopilotDecision", "AutopilotVerdict"],
        trail_path,
    );

    if let Some(path) = report_path {
        let mut data = cockpit::run_campaign(case, case, budget).expect("campaign runs");
        data.autopilot = Some(flight);
        write_report(path, &data, &["AutopilotDecision", "AutopilotVerdict"]);
    }
}

/// The demos' DUT: the case study with CONTROL_UNIT's first output stuck
/// at 1, so a session shows the full watchdog/retry/quarantine story.
fn planted_dut(case: &CaseStudy) -> CaseStudy {
    let mut dut = case.clone();
    let victim = dut.modules()[2].primary_outputs()[0];
    dut.module_mut(2).force_constant(victim, true);
    dut
}

/// Renders the cockpit report, asserts it is self-contained and carries
/// every named section marker, writes it to `path` and says so.
fn write_report(path: &str, data: &cockpit::CampaignData, sections: &[&str]) {
    let html = cockpit::render_report(data);
    assert!(
        soctest_obs::report::is_self_contained(&html),
        "report carries an external reference"
    );
    for s in sections {
        assert!(html.contains(s), "report must carry `{s}`");
    }
    std::fs::write(path, &html).expect("write report");
    println!(
        "wrote {path} ({} bytes; self-containment and {} section marker(s) validated)",
        html.len(),
        sections.len()
    );
}

/// Checks a JSONL artifact before anything is written: every line parses
/// as JSON, and when `events` is not empty every line names its event and
/// each of `events` occurs. Given a path, writes the artifact there and
/// says so. Returns the line count.
fn jsonl_artifact(what: &str, text: &str, events: &[&str], path: Option<&str>) -> usize {
    let lines: Vec<JsonValue> = text
        .lines()
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("{what} line is not JSON: {e}")))
        .collect();
    if !events.is_empty() {
        let names: Vec<&str> = lines
            .iter()
            .map(|v| {
                v.get("event")
                    .and_then(JsonValue::as_str)
                    .unwrap_or_else(|| panic!("a {what} line names no event"))
            })
            .collect();
        for e in events {
            assert!(names.contains(e), "the {what} lines hold no {e} event");
        }
    }
    if let Some(path) = path {
        std::fs::write(path, text).expect("write JSONL artifact");
        println!(
            "wrote {path} ({} {what} line(s), JSONL validated)",
            lines.len()
        );
    }
    lines.len()
}

/// The synopsis printed with every argument error.
const USAGE: &str = "\
usage: repro [--quick] [table1 table2 table3 table4 table5 fig3 fig4 | all]
       repro [--quick] --bench-faultsim
       repro [--quick] [--trace=FILE] [--metrics=FILE] [--vcd=FILE]
       repro [--quick] --report=FILE
       repro [--quick] --autopilot [--target=PCT] [--max-patterns=N] [--seed=S]
             [--inject-hang=M] [--trail=FILE] [--report=FILE]
       repro [--quick] --fleet [--dies=N] [--seed=S] [--defect-rate=R] [--workers=W]
             [--batch=N] [--profile=FILE] [--sample-dies=N] [--traces=FILE]
             [--monitor] [--inject-drift=BATCH:RATE] [--excursions=FILE] [--report=FILE]";

/// Which work `repro` does; [`MODES`] lists the flags each one reads.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    BenchFaultsim,
    Autopilot,
    Fleet,
    Report,
    Obs,
    Tables,
}

/// The mode table, in selection order: each mode, the flags that select
/// it, and every other flag it reads (a trailing `=` marks a flag that
/// takes a value). Every mode also reads `--quick`. The first mode with a
/// selector present runs; the tables mode has none, and only it takes
/// table names.
const MODES: [(Mode, &[&str], &[&str]); 6] = [
    (Mode::BenchFaultsim, &["--bench-faultsim"], &[]),
    (
        Mode::Autopilot,
        &["--autopilot"],
        &[
            "--target=",
            "--max-patterns=",
            "--seed=",
            "--inject-hang=",
            "--trail=",
            "--report=",
        ],
    ),
    (
        Mode::Fleet,
        &["--fleet"],
        &[
            "--dies=",
            "--seed=",
            "--defect-rate=",
            "--workers=",
            "--batch=",
            "--profile=",
            "--sample-dies=",
            "--traces=",
            "--monitor",
            "--inject-drift=",
            "--excursions=",
            "--report=",
        ],
    ),
    (Mode::Report, &["--report="], &[]),
    (Mode::Obs, &["--trace=", "--metrics=", "--vcd="], &[]),
    (Mode::Tables, &[], &[]),
];

/// What a positional argument may name.
const TABLES: &[&str] = &[
    "table1", "table2", "table3", "table4", "table5", "fig3", "fig4", "all",
];

/// Selects the mode from the table and rejects every argument it does not
/// read: an unknown flag or table name, a second mode flag, or a flag of
/// another mode.
fn select_mode(args: &[String]) -> Result<Mode, String> {
    let reads = |flags: &[&str], a: &str| {
        flags
            .iter()
            .any(|f| a == *f || (f.ends_with('=') && a.starts_with(f)))
    };
    let (mode, selectors, flags) = MODES
        .iter()
        .find(|(_, sel, _)| sel.is_empty() || args.iter().any(|a| reads(sel, a)))
        .expect("the tables mode has no selector");
    for a in args {
        let read = if a.starts_with("--") {
            a == "--quick" || reads(selectors, a) || reads(flags, a)
        } else {
            *mode == Mode::Tables && TABLES.contains(&a.as_str())
        };
        if !read {
            let known = TABLES.contains(&a.as_str())
                || MODES
                    .iter()
                    .any(|(_, sel, fl)| reads(sel, a) || reads(fl, a));
            return Err(if known {
                format!("the {mode:?} mode does not read `{a}`")
            } else {
                format!("unknown argument `{a}`")
            });
        }
    }
    Ok(*mode)
}

/// The value after `prefix` (e.g. `--dies=`) parsed as `T`, or `None` when
/// the flag is absent. A value that does not parse is an error, never a
/// silent default.
fn parse_flag<T: FromStr>(args: &[String], prefix: &str) -> Result<Option<T>, String>
where
    T::Err: Display,
{
    args.iter()
        .find_map(|a| a.strip_prefix(prefix))
        .map(|v| {
            v.parse()
                .map_err(|e| format!("bad value in `{prefix}{v}`: {e}"))
        })
        .transpose()
}

/// A defect rate: a probability, so a value outside [0, 1] does not parse.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Rate(f64);

impl FromStr for Rate {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let rate: f64 = s.parse().map_err(|e| format!("rate `{s}`: {e}"))?;
        if (0.0..=1.0).contains(&rate) {
            Ok(Rate(rate))
        } else {
            Err(format!("rate {rate} is outside [0, 1]"))
        }
    }
}

/// The `--inject-drift=BATCH:RATE` spec: step the defect rate to `rate`
/// at `batch`.
#[derive(Debug, PartialEq)]
struct Drift {
    batch: u64,
    rate: Rate,
}

impl FromStr for Drift {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let (batch, rate) = s.split_once(':').ok_or("expected BATCH:RATE")?;
        Ok(Drift {
            batch: batch.parse().map_err(|e| format!("batch `{batch}`: {e}"))?,
            rate: rate.parse()?,
        })
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("repro: {e}\n\n{USAGE}");
        std::process::exit(2);
    }
}

/// Selects the mode, parses and checks every value it reads before any
/// work starts, then runs it.
fn run(args: &[String]) -> Result<(), String> {
    let mode = select_mode(args)?;
    let quick = args.iter().any(|a| a == "--quick");
    let budget = if quick {
        Budget::quick()
    } else {
        Budget::paper()
    };
    let seed: Option<u64> = parse_flag(args, "--seed=")?;
    let report_path: Option<String> = parse_flag(args, "--report=")?;
    let case = CaseStudy::paper().expect("case study builds");

    match mode {
        Mode::BenchFaultsim => {
            let patterns = if quick { 192 } else { 4096 };
            println!("# soctest fault-sim bench — {patterns} patterns/module\n");
            bench_faultsim(&case, patterns);
        }
        Mode::Autopilot => {
            let mut pilot = Autopilot::new(AutopilotConfig {
                target_percent: parse_flag(args, "--target=")?.unwrap_or(50.0),
                max_patterns: parse_flag(args, "--max-patterns=")?.unwrap_or(512),
                seed: seed.unwrap_or(0xA5EED),
                parallel: budget.parallel,
                ..Default::default()
            })
            .map_err(|e| e.to_string())?;
            let inject_hang: Option<usize> = parse_flag(args, "--inject-hang=")?;
            if let Some(m) = inject_hang {
                let modules = case.modules().len();
                if m >= modules {
                    return Err(format!(
                        "`--inject-hang={m}` names no module: the case study has {modules}"
                    ));
                }
                pilot = pilot.with_injected_hang(m);
            }
            let trail_path: Option<String> = parse_flag(args, "--trail=")?;
            autopilot_demo(
                &case,
                &budget,
                &pilot,
                inject_hang,
                trail_path.as_deref(),
                report_path.as_deref(),
            );
        }
        Mode::Fleet => {
            let inject_drift: Option<Drift> = parse_flag(args, "--inject-drift=")?;
            let fa = FleetArgs {
                dies: parse_flag(args, "--dies=")?.unwrap_or(10_000),
                seed: seed.unwrap_or(42),
                defect_rate: parse_flag(args, "--defect-rate=")?,
                workers: parse_flag(args, "--workers=")?,
                batch: parse_flag(args, "--batch=")?,
                report_path,
                profile_path: parse_flag(args, "--profile=")?,
                sample_dies: parse_flag(args, "--sample-dies=")?,
                traces_path: parse_flag(args, "--traces=")?,
                monitor: args.iter().any(|a| a == "--monitor") || inject_drift.is_some(),
                inject_drift,
                excursions_path: parse_flag(args, "--excursions=")?,
            };
            fleet_demo(&case, &budget, &fa);
        }
        Mode::Report => {
            let path = report_path.expect("--report= selects the report mode");
            report_demo(&case, &budget, &path);
        }
        Mode::Obs => {
            let trace_path: Option<String> = parse_flag(args, "--trace=")?;
            let metrics_path: Option<String> = parse_flag(args, "--metrics=")?;
            let vcd_path: Option<String> = parse_flag(args, "--vcd=")?;
            obs_demo(
                &case,
                if quick { 64 } else { 256 },
                trace_path.as_deref(),
                metrics_path.as_deref(),
                vcd_path.as_deref(),
            );
        }
        Mode::Tables => tables(&case, &budget, quick, args),
    }
    Ok(())
}

/// The paper's tables and figures: every one, or the ones `args` names.
fn tables(case: &CaseStudy, budget: &Budget, quick: bool, args: &[String]) {
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let all = wanted.is_empty() || wanted.contains(&"all");
    let want = |name: &str| all || wanted.contains(&name);
    let lib = Library::cmos_130nm();

    println!(
        "# soctest repro — budget: {} ({} BIST patterns)\n",
        if quick { "quick" } else { "paper" },
        budget.bist_patterns
    );

    if want("table1") {
        println!("{}", render_table1(&experiments::table1(case)));
    }
    if want("table2") {
        let t = experiments::table2(case, &lib).expect("table 2");
        println!("{}", render_table2(&t));
    }
    if want("table3") {
        let started = Instant::now();
        let rows = experiments::table3(case, budget).expect("table 3");
        println!("{}", render_table3(&rows));
        println!("(table 3 total wall time: {:.1?})\n", started.elapsed());
    }
    if want("table4") {
        let t = experiments::table4(case, &lib).expect("table 4");
        println!("{}", render_table4(&t));
    }
    if want("table5") {
        let started = Instant::now();
        let rows = experiments::table5(case, budget).expect("table 5");
        println!("{}", render_table5(&rows));
        println!("(table 5 total wall time: {:.1?})\n", started.elapsed());
    }
    if want("fig3") {
        let checkpoints: Vec<u64> = if quick {
            vec![64, 128, 256]
        } else {
            vec![256, 512, 1024, 2048, 4096]
        };
        let pts = experiments::fig3(case, &checkpoints).expect("fig 3");
        println!("{}", render_fig3(&pts));
    }
    if want("fig4") {
        let max = if quick { 256 } else { budget.bist_patterns };
        for (m, name) in ["BIT_NODE", "CHECK_NODE", "CONTROL_UNIT"]
            .iter()
            .enumerate()
        {
            let curve = experiments::fig4(case, m, max, 8).expect("fig 4");
            println!("{}", render_fig4(name, &curve));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn interleaved_rounds_rotate_the_first_job() {
        let calls = std::cell::RefCell::new(Vec::new());
        let job = |j: usize| {
            let calls = &calls;
            move || {
                calls.borrow_mut().push(j);
                j as f64
            }
        };
        let (a, b, c) = (job(0), job(1), job(2));
        assert_eq!(fastest_interleaved(3, [&a, &b, &c]), [0.0, 1.0, 2.0]);
        assert_eq!(calls.into_inner(), [0, 1, 2, 1, 2, 0, 2, 0, 1]);
    }

    #[test]
    fn malformed_flag_value_is_an_error() {
        assert_eq!(
            parse_flag::<u64>(&args(&["--fleet", "--dies=4000"]), "--dies="),
            Ok(Some(4000))
        );
        assert_eq!(parse_flag::<u64>(&args(&["--fleet"]), "--dies="), Ok(None));
        let bad = args(&["--fleet", "--dies=1e4"]);
        assert_eq!(select_mode(&bad), Ok(Mode::Fleet));
        assert!(parse_flag::<u64>(&bad, "--dies=").is_err());
        // Rejected before any work starts, whichever mode is selected.
        assert!(run(&bad).is_err());
        assert!(run(&args(&["--quick", "--seed=abc", "--fleet"])).is_err());
    }

    #[test]
    fn unknown_flag_or_table_is_an_error() {
        assert_eq!(
            select_mode(&args(&["--quick", "table3", "fig4"])),
            Ok(Mode::Tables)
        );
        for bad in [
            &["--quik"][..],
            &["--quick", "tabel3"],
            &["--fleet", "--dies", "4000"],
            &["--quick=1"],
        ] {
            let e = select_mode(&args(bad)).expect_err("rejected");
            assert!(e.starts_with("unknown argument"), "{bad:?}: {e}");
            assert!(run(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn a_flag_the_selected_mode_does_not_read_is_an_error() {
        for (bad, mode) in [
            // A flag or table name of another mode, or a second mode flag.
            (
                &[
                    "--quick",
                    "--fleet",
                    "--dies=10",
                    "--target=40",
                    "--trail=t.jsonl",
                ][..],
                Mode::Fleet,
            ),
            (
                &["--quick", "--fleet", "--autopilot", "--dies=10"],
                Mode::Autopilot,
            ),
            (&["--quick", "--fleet", "--dies=10", "table3"], Mode::Fleet),
            (
                &["--quick", "--report=r.html", "--trace=t.jsonl"],
                Mode::Report,
            ),
            (&["--bench-faultsim", "--seed=7"], Mode::BenchFaultsim),
            (&["--quick", "--seed=7", "table1"], Mode::Tables),
        ] {
            let e = select_mode(&args(bad)).expect_err("rejected");
            assert!(
                e.starts_with(&format!("the {mode:?} mode does not read")),
                "{bad:?}: {e}"
            );
            assert!(run(&args(bad)).is_err(), "{bad:?}");
        }
        // Every mode's own flags pass, `--report=` included where it is read.
        for (ok, mode) in [
            (&["--quick", "--bench-faultsim"][..], Mode::BenchFaultsim),
            (
                &["--autopilot", "--seed=42", "--trail=t", "--report=r"],
                Mode::Autopilot,
            ),
            (
                &[
                    "--fleet",
                    "--monitor",
                    "--inject-drift=20:0.15",
                    "--report=r",
                ],
                Mode::Fleet,
            ),
            (&["--report=r"], Mode::Report),
            (&["--trace=t", "--metrics=m", "--vcd=v"], Mode::Obs),
            (&["all"], Mode::Tables),
        ] {
            assert_eq!(select_mode(&args(ok)), Ok(mode), "{ok:?}");
        }
    }

    #[test]
    fn bad_drift_spec_is_an_error() {
        assert_eq!(
            parse_flag(&args(&["--inject-drift=20:0.15"]), "--inject-drift="),
            Ok(Some(Drift {
                batch: 20,
                rate: Rate(0.15)
            }))
        );
        for bad in ["20:0.15x", "20", "x:0.15", "20:", "", "20:9", "20:-0.1"] {
            let a = args(&["--fleet", &format!("--inject-drift={bad}")]);
            assert!(parse_flag::<Drift>(&a, "--inject-drift=").is_err(), "{bad}");
            assert!(run(&a).is_err(), "{bad}");
        }
    }

    #[test]
    fn defect_rate_outside_the_unit_interval_is_an_error() {
        for ok in ["0", "0.5", "1"] {
            assert!(ok.parse::<Rate>().is_ok(), "{ok}");
        }
        for bad in ["7", "-0.01", "1.5", "NaN"] {
            let a = args(&["--fleet", &format!("--defect-rate={bad}")]);
            assert!(parse_flag::<Rate>(&a, "--defect-rate=").is_err(), "{bad}");
            assert!(run(&a).is_err(), "{bad}");
        }
    }

    #[test]
    fn invalid_autopilot_config_is_an_error() {
        for bad in [
            &["--autopilot", "--target=150"][..],
            &["--autopilot", "--target=0"],
            &["--autopilot", "--max-patterns=0"],
            &["--autopilot", "--inject-hang=3"],
            &["--autopilot", "--inject-hang=5"],
        ] {
            let e = run(&args(bad)).expect_err("rejected before the flight");
            assert!(
                e.contains("inject-hang") || e.contains("autopilot config"),
                "{bad:?}: {e}"
            );
        }
    }
}
