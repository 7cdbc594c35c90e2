//! Population-level pins for the streaming fleet health monitor: clean
//! flights stay in control across seeds, injected drift is flagged within
//! the 8-batch contract with the right attribution, the excursion ledger
//! is byte-deterministic across runs and worker counts (including a drift
//! landing exactly on a scheduler chunk boundary), and the metrics registry
//! carries the exact TCK percentiles beside a quiet `fleet_health_*` family.

use soctest::core::casestudy::CaseStudy;
use soctest::core::fleet::{DefectMix, DriftSpec, Fleet, FleetConfig};
use soctest::obs::MetricsRegistry;

fn monitored_fleet(mut cfg: FleetConfig) -> Fleet {
    let case = CaseStudy::paper().unwrap();
    if cfg.workers == 0 {
        cfg.workers = 1;
    }
    Fleet::new(&case, cfg).unwrap().with_monitor()
}

/// A 3× step of the default defect rate at `batch`, leaving the class
/// weights alone — the stuck_at-dominant drift the acceptance criteria
/// name.
fn rate_step(cfg: &FleetConfig, batch: u64) -> DriftSpec {
    DriftSpec {
        batch,
        mix: DefectMix {
            defect_rate: (cfg.mix.defect_rate * 3.0).min(1.0),
            ..cfg.mix
        },
    }
}

#[test]
fn clean_flights_stay_in_control_across_seeds() {
    for seed in [7u64, 42, 99] {
        let mut cfg = FleetConfig::new(2000, seed);
        cfg.batch = 100;
        let outcome = monitored_fleet(cfg).run();
        let health = outcome.health.expect("monitor was armed");
        assert!(
            health.in_control(),
            "seed {seed}: clean flight raised {} excursion(s): {}",
            health.excursions.len(),
            health.to_jsonl()
        );
        assert_eq!(health.batches, 20);
        assert_eq!(health.to_jsonl(), "");
    }
}

#[test]
fn injected_drift_is_flagged_within_eight_batches_and_attributed() {
    let mut cfg = FleetConfig::new(4000, 42);
    cfg.batch = 100;
    cfg.inject_drift = Some(rate_step(&cfg, 20));
    let health = monitored_fleet(cfg).run().health.unwrap();

    assert!(!health.in_control(), "a 3x rate step must be flagged");
    let latency = health.detection_latency(20).expect("drift detected");
    assert!(latency <= 8, "latency {latency} batches exceeds the bound");
    // The clean prefix stays quiet: zero false alarms before the step.
    assert!(health.excursions.iter().all(|e| e.spc.batch >= 20));
    // The yield drop is attributed to the dominant class of the stepped
    // mix, with actionable advice in the advisor's vocabulary.
    let yield_exc = health
        .excursions
        .iter()
        .find(|e| e.spc.metric == "yield")
        .expect("the yield chart must signal");
    assert_eq!(yield_exc.attributed_class, "stuck_at");
    assert!(yield_exc.class_delta_pp > 0.0);
    assert!(yield_exc.advice.contains("Reseed"));
}

#[test]
fn transient_dominant_drift_attributes_transient_on_the_yield_chart() {
    // Step the rate AND flip the class weights so transient dies dominate
    // the shift: attribution must follow the data, not a fixed rule.
    let mut cfg = FleetConfig::new(4000, 42);
    cfg.batch = 100;
    cfg.inject_drift = Some(DriftSpec {
        batch: 20,
        mix: DefectMix {
            defect_rate: (cfg.mix.defect_rate * 4.0).min(1.0),
            stuck_at_weight: 0,
            transient_weight: 9,
            hung_weight: 1,
        },
    });
    let health = monitored_fleet(cfg).run().health.unwrap();
    assert!(!health.in_control(), "the transient flood must be flagged");
    let exc = health
        .excursions
        .iter()
        .find(|e| e.spc.batch >= 20)
        .expect("a post-drift excursion exists");
    assert_eq!(
        exc.attributed_class,
        "transient",
        "a transient-dominant drift must attribute transient, got: {}",
        health.to_jsonl()
    );
    assert!(exc.advice.contains("Rerun"));
}

#[test]
fn excursion_ledger_is_byte_identical_across_runs_and_workers() {
    let drifted = |workers: usize| {
        let mut cfg = FleetConfig::new(4000, 42);
        cfg.batch = 100;
        cfg.workers = workers;
        cfg.inject_drift = Some(rate_step(&cfg, 20));
        monitored_fleet(cfg).run().health.unwrap()
    };
    let a = drifted(1);
    let b = drifted(1);
    let par = drifted(4);
    assert!(!a.excursions.is_empty(), "the drift must produce a ledger");
    assert_eq!(a.to_jsonl(), b.to_jsonl(), "ledger must be run-stable");
    assert_eq!(
        a.to_jsonl(),
        par.to_jsonl(),
        "ledger must be workers-invariant"
    );
}

#[test]
fn drift_on_a_chunk_boundary_stays_deterministic_and_detected() {
    // The scheduler fans out 256-die chunks; batch = 256 makes every
    // batch a chunk, and drift batch 12 starts exactly at die 3072 — the
    // first die of a chunk. The monitor must see the same stream either
    // way.
    let drifted = |workers: usize| {
        let mut cfg = FleetConfig::new(4096, 42);
        cfg.batch = 256;
        cfg.workers = workers;
        cfg.inject_drift = Some(DriftSpec {
            batch: 12,
            mix: DefectMix {
                defect_rate: 0.35,
                ..cfg.mix
            },
        });
        monitored_fleet(cfg).run().health.unwrap()
    };
    let serial = drifted(1);
    let parallel = drifted(4);
    assert_eq!(serial.to_jsonl(), parallel.to_jsonl());
    assert!(
        !serial.in_control(),
        "a 7x rate step at the chunk boundary must be flagged"
    );
    assert!(serial.excursions.iter().all(|e| e.spc.batch >= 12));
}

#[test]
fn registry_carries_exact_tck_and_health_gauges_side_by_side() {
    let outcome = monitored_fleet(FleetConfig::new(2000, 42)).run();
    let registry = MetricsRegistry::new();
    outcome.export_metrics(&registry);
    let snap = registry.snapshot();
    for p in ["p50", "p95", "p99"] {
        assert!(snap.gauges[&format!("fleet_tck_{p}")] > 0.0);
    }
    assert_eq!(snap.gauges["fleet_health_in_control"], 1.0);
    assert_eq!(
        snap.counters["fleet_health_excursions_total"], 0,
        "clean 2000-die flight must export a quiet family"
    );
}
