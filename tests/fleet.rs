//! Population-level pins for the fleet campaign service: determinism
//! across runs, worker counts and trace sampling, the defect sampler's
//! statistics, the escape/overkill extremes, re-entrancy under concurrent
//! use, and the fleet-vs-standalone conformance leg.

use soctest::core::casestudy::CaseStudy;
use soctest::core::fleet::{DefectClass, DefectMix, DefectProfile, DieVerdict, Fleet, FleetConfig};
use soctest::obs::{MetricsRegistry, ProfileHandle, SamplerPolicy};

fn paper_fleet(mut cfg: FleetConfig) -> Fleet {
    let case = CaseStudy::paper().unwrap();
    // Keep CI deterministic regardless of host core count unless a test
    // overrides workers explicitly.
    if cfg.workers == 0 {
        cfg.workers = 1;
    }
    Fleet::new(&case, cfg).unwrap()
}

#[test]
fn same_config_twice_is_byte_identical() {
    let fleet = paper_fleet(FleetConfig::new(2000, 42));
    let a = fleet.run();
    let b = fleet.run();
    assert_eq!(
        a.report.to_json(),
        b.report.to_json(),
        "JSON must be byte-stable"
    );
    assert_eq!(a.dies, b.dies, "per-die records must be identical");

    // A fresh fleet over the same config — not just the same cache —
    // reproduces the same bytes too.
    let again = paper_fleet(FleetConfig::new(2000, 42));
    assert_eq!(a.report.to_json(), again.run().report.to_json());

    // And a different seed genuinely changes the draw.
    let other = paper_fleet(FleetConfig::new(2000, 43));
    assert_ne!(a.report.to_json(), other.run().report.to_json());
}

#[test]
fn worker_count_does_not_change_any_record() {
    let mut serial_cfg = FleetConfig::new(1500, 7);
    serial_cfg.workers = 1;
    let serial = paper_fleet(serial_cfg).run();

    let mut par_cfg = FleetConfig::new(1500, 7);
    par_cfg.workers = 4;
    let parallel = paper_fleet(par_cfg).run();

    assert_eq!(
        serial.dies, parallel.dies,
        "records differ across worker counts"
    );
    assert_eq!(serial.report.to_json(), parallel.report.to_json());
}

#[test]
fn sampler_hits_the_configured_mix() {
    for seed in [1u64, 7, 42] {
        let mut cfg = FleetConfig::new(10_000, seed);
        cfg.workers = 1;
        let fleet = paper_fleet(cfg);
        let mix = fleet.config().mix;
        let nsites = fleet.sites().len();
        let nperiods = fleet.config().transient_periods.len();
        let dies = fleet.config().dies;

        let mut counts = std::collections::HashMap::new();
        for die in 0..dies {
            *counts.entry(fleet.profile_of(die).class()).or_insert(0u64) += 1;
        }
        for class in DefectClass::ALL {
            let expected = mix.class_probability(class, nsites, nperiods);
            let got = *counts.get(&class).unwrap_or(&0) as f64 / dies as f64;
            assert!(
                (got - expected).abs() < 0.015,
                "seed {seed} class {}: empirical {got:.4} vs expected {expected:.4}",
                class.name()
            );
        }
    }
}

#[test]
fn zero_defect_rate_means_zero_escapes_and_overkill() {
    let mut cfg = FleetConfig::new(500, 11);
    cfg.mix = DefectMix {
        defect_rate: 0.0,
        ..DefectMix::default()
    };
    let outcome = paper_fleet(cfg).run();
    assert_eq!(outcome.report.passed, 500, "every clean die passes");
    assert_eq!(outcome.report.escapes, 0);
    assert_eq!(outcome.report.overkill, 0);
    assert!((outcome.report.yield_percent() - 100.0).abs() < f64::EPSILON);
    assert!(outcome
        .dies
        .iter()
        .all(|d| d.profile == DefectProfile::Clean && d.verdict == DieVerdict::Passed));
}

#[test]
fn saturated_detectable_stuck_at_rate_means_zero_escapes() {
    let mut cfg = FleetConfig::new(400, 5);
    cfg.mix = DefectMix {
        defect_rate: 1.0,
        stuck_at_weight: 1,
        transient_weight: 0,
        hung_weight: 0,
    };
    cfg.detectable_only = true;
    let fleet = paper_fleet(cfg);
    assert!(
        !fleet.sites().is_empty() && fleet.sites().iter().all(|s| s.detectable),
        "detectable_only must filter the pool"
    );
    let outcome = fleet.run();
    assert_eq!(
        outcome.report.escapes, 0,
        "a detectable stuck-at cannot pass"
    );
    assert_eq!(outcome.report.quarantined, 400, "every die is quarantined");
    assert_eq!(outcome.report.passed, 0);
    assert_eq!(outcome.report.overkill, 0, "no clean dies were drawn");
    assert!(outcome
        .dies
        .iter()
        .all(|d| matches!(d.verdict, DieVerdict::Quarantined { modules } if modules != 0)));
}

#[test]
fn concurrent_callers_share_one_fleet_without_cross_talk() {
    // Re-entrancy pin: N threads walk the same dies of one shared Fleet
    // in different interleaved orders; every thread must reproduce the
    // serial baseline record for every die (no verdict cross-talk through
    // shared caches, injectors, or session state).
    let mut cfg = FleetConfig::new(48, 42);
    cfg.mix.defect_rate = 0.5; // make defective sessions common
    let fleet = paper_fleet(cfg);
    let baseline: Vec<_> = (0..48).map(|d| fleet.simulate_die(d)).collect();

    std::thread::scope(|scope| {
        for t in 0..4usize {
            let fleet = &fleet;
            let baseline = &baseline;
            scope.spawn(move || {
                // Each thread visits the dies with a different stride so
                // the interleavings across threads genuinely differ.
                let stride = [1usize, 5, 7, 11][t];
                for i in 0..48usize {
                    let die = (i * stride % 48) as u64;
                    let record = fleet.simulate_die(die);
                    assert_eq!(
                        record, baseline[die as usize],
                        "thread {t} diverged on die {die}"
                    );
                }
            });
        }
    });
}

/// The observatory determinism contract: the profiler's phase-tree
/// *shape* and counter totals are a pure function of `(config, seed)` —
/// wall time is the only thing a different worker count may change. It is
/// also the profiler's count gate: the fleet records one `chunk` entry per
/// chunk, so a clock read per die would push the entry count to the die
/// count.
#[test]
fn profiler_tree_shape_is_worker_count_invariant() {
    let case = CaseStudy::paper().unwrap();
    let fingerprint = |workers: usize| {
        let mut cfg = FleetConfig::new(600, 7);
        cfg.workers = workers;
        let handle = ProfileHandle::enabled();
        let fleet = Fleet::new_profiled(&case, cfg, handle.clone()).unwrap();
        let tck: u64 = fleet.run().dies.iter().map(|d| d.tck).sum();
        (handle.snapshot().unwrap().fingerprint(), tck)
    };
    let (serial, tck) = fingerprint(1);
    assert!(
        serial.contains("cache_build"),
        "fingerprint must cover the cache-build phase: {serial}"
    );
    // 600 dies at the default batch of 75: eight batches, one chunk each.
    let simulate = format!("simulate#1[dies=600,tck={tck}](chunk#8)");
    assert!(
        serial.contains(&simulate),
        "the simulate subtree must be exactly `{simulate}`: {serial}"
    );
    assert_eq!(serial, fingerprint(4).0, "1 vs 4 workers changed the tree");
    assert_eq!(serial, fingerprint(3).0, "1 vs 3 workers changed the tree");
}

/// Every batch's throughput point is a measurement of that batch alone:
/// chunks never straddle a report batch, so each batch's wall covers
/// exactly its own dies, for any batch size and worker count.
#[test]
fn batch_walls_cover_exactly_their_batch() {
    let case = CaseStudy::paper().unwrap();
    for batch in [100, 0] {
        for workers in [1, 4] {
            let mut cfg = FleetConfig::new(2000, 42);
            cfg.batch = batch;
            cfg.workers = workers;
            let outcome = Fleet::new(&case, cfg).unwrap().run();
            let batches = &outcome.report.batches;
            assert_eq!(outcome.batch_walls.len(), batches.len());
            for (wall, b) in outcome.batch_walls.iter().zip(batches) {
                let at = format!("batch {} (size {batch}, {workers} workers)", b.batch);
                assert_eq!(wall.batch, b.batch, "{at}");
                assert_eq!(wall.dies, b.dies, "{at}: wall covers other dies");
                assert!(wall.wall_ns > 0, "{at}: no wall measured");
            }
        }
    }
}

/// Sampled-die traces are byte-deterministic across runs *and* worker
/// counts, and the per-class quota guarantees rare classes are captured.
#[test]
fn sampled_traces_are_byte_deterministic_and_cover_rare_classes() {
    let case = CaseStudy::paper().unwrap();
    let run = |workers: usize| {
        let mut cfg = FleetConfig::new(800, 7);
        cfg.workers = workers;
        let fleet = Fleet::new(&case, cfg)
            .unwrap()
            .with_trace_sampling(SamplerPolicy::new(100, 2), 0);
        let outcome = fleet.run();
        let jsonl: String = outcome.traces.iter().map(|t| t.to_jsonl()).collect();
        (outcome, jsonl)
    };
    let (outcome, serial) = run(1);
    assert!(!outcome.traces.is_empty(), "the stride must sample dies");
    assert_eq!(serial, run(4).1, "worker count changed the trace bytes");
    assert_eq!(serial, run(1).1, "same config must be byte-stable");

    // Quota coverage: every defect class the population actually drew is
    // represented among the sampled dies, however rare.
    let fleet = Fleet::new(&case, FleetConfig::new(800, 7)).unwrap();
    for class in DefectClass::ALL {
        let drawn = (0..800).any(|d| fleet.profile_of(d).class() == class);
        let sampled = outcome.traces.iter().any(|t| t.class == class);
        assert_eq!(
            drawn,
            sampled,
            "class {} drawn={drawn} but sampled={sampled}",
            class.name()
        );
    }
}

/// Trace sampling never changes a die record. A sampled die steps the TAP
/// TCK by TCK under its tracer while an unsampled one runs each scan as
/// one register operation, so this is also the end-to-end check that the
/// two scan paths agree on every verdict and TCK bill.
#[test]
fn trace_sampling_never_changes_a_die_record() {
    let mut cfg = FleetConfig::new(2000, 42);
    cfg.mix.defect_rate = 0.5;
    let plain = paper_fleet(cfg.clone()).run();
    let traced = paper_fleet(cfg)
        .with_trace_sampling(SamplerPolicy::new(1, 0), 0)
        .run();
    assert_eq!(traced.traces.len(), 2000, "stride 1 samples every die");
    assert!(plain.traces.is_empty());
    for class in DefectClass::ALL {
        assert!(
            plain.dies.iter().any(|d| d.profile.class() == class),
            "class {} was never drawn",
            class.name()
        );
    }
    assert_eq!(plain.dies, traced.dies, "sampling changed a die record");
    assert_eq!(plain.report.to_json(), traced.report.to_json());
}

/// Overflowing a deliberately tiny trace ring surfaces the drop count as
/// the `trace_dropped_events` metric instead of silently truncating.
#[test]
fn tiny_trace_ring_overflow_is_counted_not_silent() {
    let mut cfg = FleetConfig::new(10, 7);
    cfg.workers = 1;
    let case = CaseStudy::paper().unwrap();
    let fleet = Fleet::new(&case, cfg)
        .unwrap()
        .with_trace_sampling(SamplerPolicy::new(1, 0), 4);
    let outcome = fleet.run();
    assert_eq!(outcome.traces.len(), 10, "every die is sampled at stride 1");
    for t in &outcome.traces {
        assert!(
            t.tail.len() <= 4,
            "die {}: ring of 4 must bound the surviving records",
            t.die
        );
        assert_eq!(
            t.records,
            t.tail.len() as u64 + t.dropped,
            "die {}: total = surviving + dropped",
            t.die
        );
    }
    let dropped = outcome.trace_dropped_events();
    assert!(dropped > 0, "a 4-slot ring must overflow a full session");

    let registry = MetricsRegistry::new();
    outcome.export_metrics(&registry);
    let snap = registry.snapshot();
    assert_eq!(
        snap.counters.get("trace_dropped_events"),
        Some(&dropped),
        "the drop count must surface as a metric"
    );
}

/// The Prometheus exposition of the TCK percentile gauges byte-matches
/// the integers the report table prints — no float re-formatting drift.
#[test]
fn tck_percentile_gauges_byte_match_the_report() {
    let fleet = paper_fleet(FleetConfig::new(1000, 42));
    let outcome = fleet.run();
    let registry = MetricsRegistry::new();
    outcome.export_metrics(&registry);
    let prom = registry.snapshot().to_prometheus();
    for (name, value) in [
        ("fleet_tck_p50", outcome.report.tck.p50),
        ("fleet_tck_p95", outcome.report.tck.p95),
        ("fleet_tck_p99", outcome.report.tck.p99),
    ] {
        let line = format!("{name} {value}\n");
        assert!(
            prom.contains(&line),
            "exposition must carry `{}` byte-for-byte:\n{prom}",
            line.trim()
        );
    }
    // The per-die distribution rides along as a histogram.
    assert!(prom.contains("fleet_tck_cycles"));
}

#[test]
fn fleet_conformance_leg_matches_standalone_sessions() {
    let outcome = soctest::conformance::fleet_difftest(8, 7).unwrap();
    assert!(
        outcome.mismatches.is_empty(),
        "fleet replay diverged from standalone gate-level sessions: {:?}",
        outcome.mismatches
    );
}
