//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--quick] [--bench-faultsim]
//!       [--trace=FILE] [--metrics=FILE] [--vcd=FILE] [--report=FILE]
//!       [--fleet --dies=N --seed=S [--defect-rate=R] [--workers=W]
//!        [--monitor] [--batch=N] [--inject-drift=B:R] [--excursions=FILE]]
//!       [table1 table2 table3 table4 table5 fig3 fig4 | all]
//! ```
//!
//! `--quick` uses the reduced experiment budget (CI-sized); without it the
//! paper's configuration runs (4,096 BIST patterns etc.) — build with
//! `--release` for that.
//!
//! `--bench-faultsim` skips the tables and instead benchmarks the
//! fault-simulation hot path per module — one serial and one all-cores
//! stuck-at campaign each, asserting bit-identical detection before timing
//! is trusted — and writes the measurements to `BENCH_faultsim.json`,
//! including traced-vs-untraced wall columns with a ≤ 2 % instrumentation
//! overhead check, a health-monitor overhead column under the same gate,
//! and the drift detection-latency column (an injected 3× defect-rate
//! step must be flagged within 8 batches).
//!
//! `--trace=FILE` / `--metrics=FILE` / `--vcd=FILE` skip the tables and
//! run the observability demo instead: a fault-tolerant session against a
//! DUT carrying a planted stuck-at defect, with the JSON-Lines event
//! trace, the Prometheus metrics snapshot, and the DUT waveform written to
//! the given files. Every artifact is re-read and validated before the
//! process exits 0.
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
//! (write the decision trail as validated JSONL). Composes with
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
//! `--traces=FILE` streams the sampled-die traces as validated JSONL.
//! With `--report=FILE` the cockpit report gains an Observatory section
//! (phase attribution, sampled-die timeline, dies/s per batch).
//!
//! Health flags (compose with `--fleet`): `--monitor` arms the streaming
//! SPC health monitor (EWMA + CUSUM on yield and recovered rate, P²
//! TCK quantile sketch) and prints greppable `health:` lines;
//! `--batch=N` overrides the monitoring batch size;
//! `--inject-drift=BATCH:RATE` steps the defect rate at that batch
//! (implies `--monitor`) and asserts detection within 8 batches with a
//! quiet clean prefix and a `stuck_at` attribution; `--excursions=FILE`
//! writes the byte-deterministic excursion ledger as validated JSONL.
//! With `--report=FILE` the cockpit report gains a Health section
//! (control charts with signal markers, excursion table, verdict tiles).

use std::fmt::Write as _;
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
use soctest_obs::{
    json, CountingSink, JsonLinesSink, MetricsHandle, MetricsRegistry, MetricsSnapshot,
    ProfileHandle, SamplerPolicy, TraceHandle, Tracer, VcdReader,
};
use soctest_tech::Library;

/// One module's serial-vs-parallel measurement for `BENCH_faultsim.json`.
struct FaultSimBench {
    name: &'static str,
    patterns: u64,
    faults: usize,
    serial_wall_s: f64,
    parallel_wall_s: f64,
    untraced_wall_s: f64,
    traced_wall_s: f64,
    /// Worker count the serial policy actually resolved to (always 1).
    serial_threads: usize,
    /// Worker count the default parallel policy actually resolved to —
    /// equal to `serial_threads` on a single-core host, in which case the
    /// serial-vs-parallel "speedup" is just measurement noise.
    threads: usize,
    identical: bool,
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

    fn trace_overhead_pct(&self) -> f64 {
        if self.untraced_wall_s > 0.0 {
            100.0 * (self.traced_wall_s - self.untraced_wall_s) / self.untraced_wall_s
        } else {
            0.0
        }
    }

    /// The overhead gate: within 2 % relative, or within the absolute
    /// noise floor of short runs on a loaded host.
    fn trace_overhead_ok(&self) -> bool {
        self.trace_overhead_pct() <= 2.0 || self.traced_wall_s - self.untraced_wall_s < 0.02
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

        // De-noise the headline walls the same way as the trace-overhead
        // pair below: min-of-3, interleaved, so a load spike on this
        // (possibly single-core) host cannot charge one policy only.
        let mut serial_wall_s = serial.stats.wall.as_secs_f64();
        let mut parallel_wall_s = parallel.stats.wall.as_secs_f64();
        for _ in 0..2 {
            serial_wall_s =
                serial_wall_s.min(run(ParallelPolicy::serial()).stats.wall.as_secs_f64());
            parallel_wall_s =
                parallel_wall_s.min(run(ParallelPolicy::default()).stats.wall.as_secs_f64());
        }

        // The bit-identity contract, asserted on real workloads: thread
        // count must not change results. (Correctness against the naive
        // reference is `difftest`'s case-study leg.)
        let identical = serial.detection == parallel.detection
            && serial.stats.survivors == parallel.stats.survivors;
        assert!(
            serial.detection == parallel.detection,
            "{name}: parallel run diverged from serial"
        );
        // The coverage curves must also compare bit-identical — detection
        // indices are absolute, so thread count cannot reshape the curve.
        assert_eq!(
            serial.curve(),
            parallel.curve(),
            "{name}: parallel coverage curve diverged from serial"
        );
        // CI greps for one of these per module.
        println!("{name}: identical: {identical} (serial vs parallel)");
        let curve_summary = parallel.curve().summary();

        // Instrumentation-overhead measurement: the same campaign with the
        // trace handle disabled (the no-op path every production run takes)
        // vs enabled with a counting sink. Min-of-5 each, interleaved, so a
        // background-load spike cannot charge one side only (min-of-3 still
        // flaked past the 2% gate on loaded single-core hosts).
        let timed = |trace: &TraceHandle| {
            let mut stim = pgen.stimulus(m, patterns);
            let cfg = SeqFaultSimConfig {
                trace: trace.clone(),
                ..Default::default()
            };
            SeqFaultSim::new(&universe, cfg)
                .run(&mut stim)
                .expect("fault sim")
                .stats
                .wall
                .as_secs_f64()
        };
        let disabled = TraceHandle::none();
        let mut tracer = Tracer::new(64);
        tracer.add_sink(Box::new(CountingSink::new()));
        let enabled = TraceHandle::new(tracer);
        let mut untraced_wall_s = f64::INFINITY;
        let mut traced_wall_s = f64::INFINITY;
        for _ in 0..5 {
            untraced_wall_s = untraced_wall_s.min(timed(&disabled));
            traced_wall_s = traced_wall_s.min(timed(&enabled));
        }

        rows.push(FaultSimBench {
            name,
            patterns,
            faults: universe.len(),
            serial_wall_s,
            parallel_wall_s,
            untraced_wall_s,
            traced_wall_s,
            serial_threads: serial.stats.threads,
            threads: parallel.stats.threads,
            identical,
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
        println!(
            "{name}: trace overhead {:+.2}% (untraced {:.4}s, traced {:.4}s)",
            r.trace_overhead_pct(),
            untraced_wall_s,
            traced_wall_s
        );
        assert!(
            r.trace_overhead_ok(),
            "{name}: tracing overhead {:.2}% exceeds the 2% budget",
            r.trace_overhead_pct()
        );
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
             \"untraced_wall_s\": {:.6}, \"traced_wall_s\": {:.6}, \
             \"trace_overhead_pct\": {:.3}, \"trace_overhead_ok\": {}, \
             \"serial_threads\": {}, \"threads\": {}, \
             \"speedup_comparable\": {}, \"speedup\": {}, \
             \"faults_per_s\": {:.1}, \
             \"identical\": {}, \"knee\": {}, \"curve\": {}}}",
            r.name,
            r.patterns,
            r.faults,
            r.serial_wall_s,
            r.parallel_wall_s,
            r.parallel_wall_s,
            r.untraced_wall_s,
            r.traced_wall_s,
            r.trace_overhead_pct(),
            r.trace_overhead_ok(),
            r.serial_threads,
            r.threads,
            r.speedup_comparable(),
            speedup,
            r.faults_per_s(),
            r.identical,
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
    // The monitor-overhead column: the same flight with the health
    // monitor off vs armed, min-of-3 interleaved so a load spike cannot
    // charge one side only. Same gate discipline as the tracer and
    // profiler: ≤ 2 % relative, or under the 20 ms noise floor.
    let monitor_dies = 20_000u64;
    let plain = Fleet::new(case, FleetConfig::new(monitor_dies, 42)).expect("fleet cache builds");
    let monitored = Fleet::new(case, FleetConfig::new(monitor_dies, 42))
        .expect("fleet cache builds")
        .with_monitor(HealthConfig::default());
    let timed = |fleet: &Fleet| {
        let started = Instant::now();
        let outcome = fleet.run();
        assert_eq!(
            outcome.report.dies, monitor_dies,
            "flight must cover every die"
        );
        started.elapsed().as_secs_f64()
    };
    let mut monitor_off_s = f64::INFINITY;
    let mut monitor_on_s = f64::INFINITY;
    for _ in 0..3 {
        monitor_off_s = monitor_off_s.min(timed(&plain));
        monitor_on_s = monitor_on_s.min(timed(&monitored));
    }
    let monitor_overhead_s = monitor_on_s - monitor_off_s;
    let monitor_overhead_pct = if monitor_off_s > 0.0 {
        100.0 * monitor_overhead_s / monitor_off_s
    } else {
        0.0
    };
    let monitor_ok = monitor_overhead_pct <= 2.0 || monitor_overhead_s < 0.02;
    println!(
        "fleet: monitor overhead {monitor_dies} dies, off {monitor_off_s:.4}s vs on \
         {monitor_on_s:.4}s ({monitor_overhead_pct:+.2}%) — {}",
        if monitor_ok {
            "within budget"
        } else {
            "OVER BUDGET"
        }
    );
    assert!(
        monitor_ok,
        "health-monitor overhead {monitor_overhead_pct:.2}% exceeds the 2% budget \
         (absolute delta {monitor_overhead_s:.4}s over the 0.02s floor)"
    );

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
/// Each requested artifact is written, re-read, and validated with the
/// in-tree parsers before the process exits.
fn obs_demo(
    case_patterns: u64,
    trace_path: Option<&str>,
    metrics_path: Option<&str>,
    vcd_path: Option<&str>,
) {
    use std::fs;
    use std::io::BufWriter;

    let reference = CaseStudy::paper().expect("case study builds");
    let mut dut = CaseStudy::paper().expect("case study builds");
    let victim = dut.modules()[2].primary_outputs()[0];
    dut.module_mut(2).force_constant(victim, true);

    let mut session = RobustSession::default().with_vcd(vcd_path.is_some());
    if let Some(path) = trace_path {
        let file = fs::File::create(path).expect("create trace file");
        let mut tracer = Tracer::new(soctest_obs::DEFAULT_CAPACITY);
        tracer.add_sink(Box::new(JsonLinesSink::new(BufWriter::new(file))));
        session = session.with_trace(TraceHandle::new(tracer));
    }
    let registry = std::sync::Arc::new(MetricsRegistry::new());
    if metrics_path.is_some() {
        session = session.with_metrics(MetricsHandle::from_arc(std::sync::Arc::clone(&registry)));
    }

    let report = session
        .run(&reference, &dut, case_patterns)
        .expect("robust session");
    println!(
        "observability demo: {case_patterns} patterns, {} TCK, quarantined: {:?}",
        report.tck_spent,
        report.quarantined()
    );
    assert_eq!(
        report.quarantined(),
        vec!["CONTROL_UNIT"],
        "the planted defect must quarantine CONTROL_UNIT"
    );

    if let Some(path) = trace_path {
        let text = fs::read_to_string(path).expect("read trace back");
        let mut names = Vec::new();
        for line in text.lines() {
            let v = json::parse(line).expect("every trace line is valid JSON");
            let event = v
                .get("event")
                .and_then(|e| e.as_str())
                .expect("trace line carries an event name")
                .to_owned();
            names.push(event);
        }
        for needed in [
            "SessionStart",
            "AttemptResult",
            "RetryEscalation",
            "Quarantine",
        ] {
            assert!(
                names.iter().any(|n| n == needed),
                "trace must contain {needed}"
            );
        }
        println!("wrote {path} ({} events, JSONL validated)", names.len());
    }

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

/// Everything `--fleet` accepts, parsed once in `main`.
#[derive(Default)]
struct FleetArgs {
    dies: u64,
    seed: u64,
    defect_rate: Option<f64>,
    workers: Option<usize>,
    batch: Option<u64>,
    report_path: Option<String>,
    profile_path: Option<String>,
    sample_dies: Option<u64>,
    traces_path: Option<String>,
    /// Arm the streaming health monitor (`--monitor`).
    monitor: bool,
    /// `--inject-drift=BATCH:RATE` — step the defect rate at a batch.
    inject_drift: Option<(u64, f64)>,
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
/// With `--monitor` the streaming health monitor rides along: greppable
/// `health:` lines (baseline, excursion count, per-excursion attribution,
/// sketch-vs-exact TCK percentiles), the excursion ledger
/// (`--excursions=FILE`), and a Health section in the cockpit report.
/// With `--inject-drift=BATCH:RATE` the defect rate steps at that batch
/// and the demo asserts detection within 8 batches, zero excursions on
/// the clean prefix, and a `stuck_at` attribution (the dominant class of
/// the default mix).
fn fleet_demo(budget: &Budget, fa: &FleetArgs) {
    let (dies, seed) = (fa.dies, fa.seed);
    let report_path = fa.report_path.as_deref();
    let case = CaseStudy::paper().expect("case study builds");
    let mut cfg = FleetConfig::new(dies, seed);
    if let Some(rate) = fa.defect_rate {
        cfg.mix.defect_rate = rate.clamp(0.0, 1.0);
    }
    if let Some(w) = fa.workers {
        cfg.workers = w;
    }
    if let Some(b) = fa.batch {
        cfg.batch = b;
    }
    if let Some((batch, rate)) = fa.inject_drift {
        cfg.inject_drift = Some(DriftSpec {
            batch,
            mix: DefectMix {
                defect_rate: rate.clamp(0.0, 1.0),
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
    let mut fleet = Fleet::new_profiled(&case, cfg, profile.clone()).expect("fleet cache builds");
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

    // The streaming health monitor: greppable `health:` lines, the
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
        let (p50, p95, p99) = health.tck_sketch;
        println!(
            "health: tck sketch p50={p50:.1} p95={p95:.1} p99={p99:.1} \
             (exact p50={} p95={} p99={})",
            r.tck.p50, r.tck.p95, r.tck.p99
        );
        if let Some((drift_batch, drift_rate)) = fa.inject_drift {
            println!("health: injected drift batch={drift_batch} defect-rate={drift_rate:.4}");
            assert!(
                health.excursions.iter().all(|e| e.spc.batch >= drift_batch),
                "clean prefix before the injected drift must stay quiet"
            );
            let latency = health
                .detection_latency(drift_batch)
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
        if let Some(path) = fa.excursions_path.as_deref() {
            let ledger = health.to_jsonl();
            for line in ledger.lines() {
                json::parse(line).expect("every excursion ledger line is valid JSON");
            }
            std::fs::write(path, &ledger).expect("write excursion ledger");
            println!(
                "wrote {path} ({} excursion(s), JSONL validated)",
                ledger.lines().count()
            );
        }
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
            snap.gauges.contains_key("fleet_health_in_control")
                && snap.gauges.contains_key("fleet_tck_p95_sketch"),
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
    if let Some(path) = fa.traces_path.as_deref() {
        let mut out = String::new();
        for t in &outcome.traces {
            out.push_str(&t.to_jsonl());
        }
        for line in out.lines() {
            json::parse(line).expect("every sampled-trace line is valid JSON");
        }
        std::fs::write(path, &out).expect("write traces");
        println!(
            "wrote {path} ({} sampled dies, {} lines, JSONL validated)",
            outcome.traces.len(),
            out.lines().count()
        );
    }

    if let Some(path) = report_path {
        let reference = CaseStudy::paper().expect("case study builds");
        let mut dut = CaseStudy::paper().expect("case study builds");
        let victim = dut.modules()[2].primary_outputs()[0];
        dut.module_mut(2).force_constant(victim, true);
        let mut data = cockpit::run_campaign(&reference, &dut, budget).expect("campaign runs");
        data.fleet = Some(r.clone());
        data.observatory = Some(cockpit::ObservatoryData {
            profiler: fleet.profile().snapshot(),
            traces: outcome.traces.clone(),
            batch_walls: outcome.batch_walls.clone(),
            trace_dropped_events: outcome.trace_dropped_events(),
        });
        data.health = outcome.health.clone();
        let html = cockpit::render_report(&data);
        assert!(
            soctest_obs::report::is_self_contained(&html),
            "report carries an external reference"
        );
        assert!(
            html.contains(">Fleet<") && html.contains("Yield per batch"),
            "report must carry the fleet section"
        );
        assert!(
            html.contains(">Observatory<"),
            "report must carry the observatory section"
        );
        if data.health.is_some() {
            assert!(
                html.contains(">Health<") && html.contains("control chart"),
                "report must carry the health section"
            );
        }
        if !outcome.traces.is_empty() {
            assert!(
                html.contains("Sampled die"),
                "report must carry a sampled-die timeline"
            );
        }
        std::fs::write(path, &html).expect("write report");
        println!(
            "wrote {path} ({} bytes; fleet + observatory sections, self-containment validated)",
            html.len()
        );
    }
}

/// The profiler-overhead gate behind `--profile-overhead`: the same
/// fleet flight with the profiler disabled (the no-op handle every
/// production run takes) vs enabled, min-of-3 interleaved so a load
/// spike cannot charge one side only. The gate is the same discipline as
/// the tracer's: ≤ 2 % relative, or under the 20 ms absolute noise floor
/// of short runs on a loaded host.
fn profile_overhead_gate(dies: u64, seed: u64) {
    let case = CaseStudy::paper().expect("case study builds");
    let cfg = FleetConfig::new(dies, seed);
    let plain = Fleet::new(&case, cfg.clone()).expect("fleet cache builds");
    let profiled =
        Fleet::new_profiled(&case, cfg, ProfileHandle::enabled()).expect("fleet cache builds");

    let timed = |fleet: &Fleet| {
        let started = Instant::now();
        let outcome = fleet.run();
        assert!(outcome.report.dies == dies, "flight must cover every die");
        started.elapsed().as_secs_f64()
    };
    let mut off_wall_s = f64::INFINITY;
    let mut on_wall_s = f64::INFINITY;
    for _ in 0..3 {
        off_wall_s = off_wall_s.min(timed(&plain));
        on_wall_s = on_wall_s.min(timed(&profiled));
    }
    let overhead_pct = if off_wall_s > 0.0 {
        100.0 * (on_wall_s - off_wall_s) / off_wall_s
    } else {
        0.0
    };
    let ok = overhead_pct <= 2.0 || on_wall_s - off_wall_s < 0.02;
    println!(
        "profile-overhead: {dies} dies, off {off_wall_s:.4}s vs on {on_wall_s:.4}s \
         ({overhead_pct:+.2}%) — {}",
        if ok { "within budget" } else { "OVER BUDGET" }
    );
    assert!(
        ok,
        "profiler overhead {overhead_pct:.2}% exceeds the 2% budget \
         (absolute delta {:.4}s over the 0.02s floor)",
        on_wall_s - off_wall_s
    );
}

/// The campaign cockpit behind `--report=FILE`: runs the full evaluation
/// loop against the planted-defect DUT and writes one self-contained HTML
/// report. The curve endpoints, the advisor's verdict, and the document's
/// self-containment are all asserted before the process exits.
fn report_demo(budget: &Budget, path: &str) {
    let reference = CaseStudy::paper().expect("case study builds");
    let mut dut = CaseStudy::paper().expect("case study builds");
    let victim = dut.modules()[2].primary_outputs()[0];
    dut.module_mut(2).force_constant(victim, true);

    let data = cockpit::run_campaign(&reference, &dut, budget).expect("campaign runs");

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

    let html = cockpit::render_report(&data);
    assert!(
        soctest_obs::report::is_self_contained(&html),
        "report carries an external reference"
    );
    std::fs::write(path, &html).expect("write report");
    println!(
        "wrote {path} ({} bytes; self-containment, curve endpoints, and advisor validated)",
        html.len()
    );
}

/// The closed-loop demo behind `--autopilot`: screen, iterate, verdict —
/// no human in the loop. Prints one greppable line per module, runs the
/// weighted-CG attack on CHECK_NODE's quick-coverage baseline, and
/// optionally writes the decision trail (`--trail=`) and a cockpit report
/// with the Autopilot section (`--report=`).
#[allow(clippy::too_many_arguments)]
fn autopilot_demo(
    budget: &Budget,
    target: f64,
    max_patterns: u64,
    seed: u64,
    inject_hang: Option<usize>,
    trail_path: Option<&str>,
    report_path: Option<&str>,
) {
    let reference = CaseStudy::paper().expect("case study builds");
    let dut = CaseStudy::paper().expect("case study builds");

    let mut pilot = Autopilot::new(AutopilotConfig {
        target_percent: target,
        max_patterns,
        seed,
        parallel: budget.parallel,
        ..Default::default()
    })
    .expect("valid autopilot config");
    if let Some(m) = inject_hang {
        pilot = pilot.with_injected_hang(m);
    }

    let started = Instant::now();
    let flight = pilot.run(&reference, &dut).expect("autopilot terminates");
    println!(
        "# autopilot — target {target:.1}%, max {max_patterns} patterns/round, seed {seed:#x}\n"
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
    let universe = FaultUniverse::stuck_at(&reference.modules()[1]);
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
    let base = coverage(&reference.pattern_generator());
    let weights =
        soctest_core::eval::learn_input_weights(&reference, 1, 192).expect("weights learn");
    let weighted = coverage(
        &reference
            .weighted_pattern_generator(1, &weights, seed)
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

    if let Some(path) = trail_path {
        std::fs::write(path, &flight.trail_jsonl).expect("write trail");
        let mut events = 0usize;
        for line in flight.trail_jsonl.lines() {
            json::parse(line).expect("every trail line is valid JSON");
            events += 1;
        }
        println!("wrote {path} ({events} decisions, JSONL validated)");
    }

    if let Some(path) = report_path {
        let mut data = cockpit::run_campaign(&reference, &dut, budget).expect("campaign runs");
        data.autopilot = Some(flight);
        let html = cockpit::render_report(&data);
        assert!(
            soctest_obs::report::is_self_contained(&html),
            "report carries an external reference"
        );
        assert!(
            html.contains("AutopilotDecision") && html.contains("AutopilotVerdict"),
            "the report must carry the greppable decision trail"
        );
        std::fs::write(path, &html).expect("write report");
        println!(
            "wrote {path} ({} bytes; Autopilot section + trail validated)",
            html.len()
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let all = wanted.is_empty() || wanted.contains(&"all");
    let want = |name: &str| all || wanted.contains(&name);

    let budget = if quick {
        Budget::quick()
    } else {
        Budget::paper()
    };
    let lib = Library::cmos_130nm();
    let case = CaseStudy::paper().expect("case study builds");

    if args.iter().any(|a| a == "--bench-faultsim") {
        let patterns = if quick { 192 } else { 4096 };
        println!("# soctest fault-sim bench — {patterns} patterns/module\n");
        bench_faultsim(&case, patterns);
        return;
    }

    let flag_value = |prefix: &str| {
        args.iter()
            .find_map(|a| a.strip_prefix(prefix).map(str::to_owned))
    };
    if args.iter().any(|a| a == "--autopilot") {
        let target = flag_value("--target=")
            .and_then(|v| v.parse().ok())
            .unwrap_or(50.0);
        let max_patterns = flag_value("--max-patterns=")
            .and_then(|v| v.parse().ok())
            .unwrap_or(512);
        let seed = flag_value("--seed=")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0xA5EED);
        let inject_hang = flag_value("--inject-hang=").and_then(|v| v.parse().ok());
        autopilot_demo(
            &budget,
            target,
            max_patterns,
            seed,
            inject_hang,
            flag_value("--trail=").as_deref(),
            flag_value("--report=").as_deref(),
        );
        return;
    }
    if args.iter().any(|a| a == "--profile-overhead") {
        let dies = flag_value("--dies=")
            .and_then(|v| v.parse().ok())
            .unwrap_or(20_000);
        let seed = flag_value("--seed=")
            .and_then(|v| v.parse().ok())
            .unwrap_or(42);
        profile_overhead_gate(dies, seed);
        return;
    }
    if args.iter().any(|a| a == "--fleet") {
        let dies = flag_value("--dies=")
            .and_then(|v| v.parse().ok())
            .unwrap_or(10_000);
        let seed = flag_value("--seed=")
            .and_then(|v| v.parse().ok())
            .unwrap_or(42);
        let inject_drift = flag_value("--inject-drift=").and_then(|v| {
            let (b, r) = v.split_once(':')?;
            Some((b.parse().ok()?, r.parse().ok()?))
        });
        let monitor = args.iter().any(|a| a == "--monitor") || inject_drift.is_some();
        let fa = FleetArgs {
            dies,
            seed,
            defect_rate: flag_value("--defect-rate=").and_then(|v| v.parse().ok()),
            workers: flag_value("--workers=").and_then(|v| v.parse().ok()),
            batch: flag_value("--batch=").and_then(|v| v.parse().ok()),
            report_path: flag_value("--report="),
            profile_path: flag_value("--profile="),
            sample_dies: flag_value("--sample-dies=").and_then(|v| v.parse().ok()),
            traces_path: flag_value("--traces="),
            monitor,
            inject_drift,
            excursions_path: flag_value("--excursions="),
        };
        fleet_demo(&budget, &fa);
        return;
    }
    if let Some(path) = flag_value("--report=") {
        report_demo(&budget, &path);
        return;
    }
    let trace_path = flag_value("--trace=");
    let metrics_path = flag_value("--metrics=");
    let vcd_path = flag_value("--vcd=");
    if trace_path.is_some() || metrics_path.is_some() || vcd_path.is_some() {
        obs_demo(
            if quick { 64 } else { 256 },
            trace_path.as_deref(),
            metrics_path.as_deref(),
            vcd_path.as_deref(),
        );
        return;
    }

    println!(
        "# soctest repro — budget: {} ({} BIST patterns)\n",
        if quick { "quick" } else { "paper" },
        budget.bist_patterns
    );

    if want("table1") {
        println!("{}", render_table1(&experiments::table1(&case)));
    }
    if want("table2") {
        let t = experiments::table2(&case, &lib).expect("table 2");
        println!("{}", render_table2(&t));
    }
    if want("table3") {
        let started = Instant::now();
        let rows = experiments::table3(&case, &budget).expect("table 3");
        println!("{}", render_table3(&rows));
        println!("(table 3 total wall time: {:.1?})\n", started.elapsed());
    }
    if want("table4") {
        let t = experiments::table4(&case, &lib).expect("table 4");
        println!("{}", render_table4(&t));
    }
    if want("table5") {
        let started = Instant::now();
        let rows = experiments::table5(&case, &budget).expect("table 5");
        println!("{}", render_table5(&rows));
        println!("(table 5 total wall time: {:.1?})\n", started.elapsed());
    }
    if want("fig3") {
        let checkpoints: Vec<u64> = if quick {
            vec![64, 128, 256]
        } else {
            vec![256, 512, 1024, 2048, 4096]
        };
        let pts = experiments::fig3(&case, &checkpoints).expect("fig 3");
        println!("{}", render_fig3(&pts));
    }
    if want("fig4") {
        let max = if quick { 256 } else { budget.bist_patterns };
        for (m, name) in ["BIT_NODE", "CHECK_NODE", "CONTROL_UNIT"]
            .iter()
            .enumerate()
        {
            let curve = experiments::fig4(&case, m, max, 8).expect("fig 4");
            println!("{}", render_fig4(name, &curve));
        }
    }
}
