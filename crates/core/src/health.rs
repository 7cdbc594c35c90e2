//! Fleet health monitoring: SPC over a flight's report batches and
//! excursion attribution in the advisor's vocabulary.
//!
//! This is the paper's detect → attribute → act feedback loop lifted one
//! level above the die. [`score_batches`] takes the report's
//! [`BatchSummary`] list ([`crate::fleet::FleetReport::batches`], folded by
//! the one [`BatchSummary::absorb`] rule) in batch order and scores each
//! batch on two control charts ([`soctest_obs::SpcChart`]):
//!
//! - **yield** (`passed / dies`) — the line's headline metric; a defect
//!   excursion moves it *down*;
//! - **recovered rate** (`recovered / dies`) — transient dies the retry
//!   ladder saw past; an environment-noise excursion moves it *up*
//!   without touching hard yield much.
//!
//! Test-time percentiles are not the monitor's job: the fleet keeps every
//! die record, so [`crate::fleet::FleetReport::tck`] carries the exact
//! nearest-rank p50/p95/p99 (exported as `fleet_tck_p*`).
//!
//! When a chart signals, the monitor runs **attribution**: the signaling
//! batch's defect-class mix and per-module quarantine mix are compared
//! against the frozen baseline window's, and the largest movers are named
//! in an [`Excursion`] — in the same class vocabulary the defect sampler
//! speaks (`stuck_at` / `transient` / `hung`) and with an advisory line
//! built from the retry-ladder strategy names the advisor/autopilot
//! already use. Excursions land in three places: the typed
//! [`HealthReport`], a byte-deterministic JSONL ledger
//! ([`HealthReport::to_jsonl`], workers-invariant like the trace
//! sampler), and the `fleet_health_*` metrics family.
//!
//! Determinism contract: everything here is a pure function of the
//! batches fed in — no clocks, no RNG — so the ledger is byte-identical
//! across runs and worker counts, drift or no drift.

use soctest_obs::{
    analyze::strategy, MetricsRegistry, SpcChart, SpcConfig, SpcExcursion, SpcPoint,
};

use crate::fleet::{BatchSummary, DefectClass};

/// Health-monitor configuration: one SPC tuning shared by both charts.
#[derive(Debug, Clone, Default)]
pub struct HealthConfig {
    /// Control-chart tuning (see [`SpcConfig`] for the defaults).
    pub spc: SpcConfig,
}

/// A flagged process excursion with attribution: the chart evidence plus
/// which defect class and which module's quarantine mix moved most
/// against the in-control baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Excursion {
    /// The control-chart evidence (metric, onset batch, direction,
    /// magnitude, chart state).
    pub spc: SpcExcursion,
    /// The defect class whose batch share moved most vs. baseline
    /// (`clean` excluded — its share is the mirror of the others).
    pub attributed_class: &'static str,
    /// That class's share move in percentage points (signed).
    pub class_delta_pp: f64,
    /// The module whose quarantine rate moved most vs. baseline, or
    /// `"none"` when no module moved.
    pub attributed_module: String,
    /// That module's quarantine-rate move in percentage points (signed).
    pub module_delta_pp: f64,
    /// One advisory line in the retry-ladder vocabulary.
    pub advice: String,
}

impl Excursion {
    /// One deterministic ledger line: the chart evidence joined with the
    /// attribution fields.
    pub fn to_json_line(&self) -> String {
        let spc = self.spc.to_json_line();
        // Splice attribution into the chart record's closing brace.
        let head = spc.strip_suffix('}').unwrap_or(&spc);
        format!(
            "{head}, \"attributed_class\": \"{}\", \"class_delta_pp\": {:.4}, \
             \"attributed_module\": \"{}\", \"module_delta_pp\": {:.4}, \
             \"advice\": \"{}\"}}",
            self.attributed_class,
            self.class_delta_pp,
            self.attributed_module,
            self.module_delta_pp,
            self.advice,
        )
    }
}

/// The advisory line for an excursion attributed to `class`, phrased with
/// the retry-ladder strategy names the advisor/autopilot speak.
fn advice_for(class: &'static str) -> String {
    match class {
        "stuck_at" => format!(
            "permanent-defect population shift; {}/{} guard escapes, audit the attributed module",
            strategy::RESEED,
            strategy::MORE_PATTERNS
        ),
        "transient" => format!(
            "environment noise rising; the {} rung absorbs it, watch recovered rate",
            strategy::RERUN
        ),
        "hung" => "hung-engine population shift; watchdog load rising, check engine supply".into(),
        _ => "no dominant class mover; inspect the batch's quarantine mix".into(),
    }
}

/// The finished health record of one monitored campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Batches scored.
    pub batches: u64,
    /// Dies observed.
    pub dies: u64,
    /// The frozen in-control yield (fraction).
    pub baseline_yield: f64,
    /// The frozen in-control recovered rate (fraction).
    pub baseline_recovered: f64,
    /// Every flagged excursion, in batch order.
    pub excursions: Vec<Excursion>,
    /// The yield chart's per-batch trajectory (value/EWMA/limits/CUSUM).
    pub yield_points: Vec<SpcPoint>,
    /// The recovered-rate chart's per-batch trajectory.
    pub recovered_points: Vec<SpcPoint>,
}

impl HealthReport {
    /// `true` when no chart ever signaled.
    pub fn in_control(&self) -> bool {
        self.excursions.is_empty()
    }

    /// The excursion ledger: one deterministic JSON line per excursion,
    /// in batch order. Byte-identical across runs and worker counts.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.excursions {
            out.push_str(&e.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Batches from `drift_batch` to the first excursion at or after it,
    /// inclusive — the detection latency the acceptance contract bounds.
    /// `None` when no excursion lands at or after `drift_batch`.
    pub fn detection_latency(&self, drift_batch: u64) -> Option<u64> {
        self.excursions
            .iter()
            .filter(|e| e.spc.batch >= drift_batch)
            .map(|e| e.spc.batch - drift_batch + 1)
            .min()
    }

    /// Folds the health record into the metrics registry as the
    /// `fleet_health_*` family.
    pub fn export_metrics(&self, registry: &MetricsRegistry) {
        registry.inc("fleet_health_batches_total", self.batches);
        registry.inc(
            "fleet_health_excursions_total",
            self.excursions.len() as u64,
        );
        registry.set_gauge(
            "fleet_health_in_control",
            if self.in_control() { 1.0 } else { 0.0 },
        );
        registry.set_gauge("fleet_health_baseline_yield", self.baseline_yield);
        registry.set_gauge(
            "fleet_health_baseline_recovered_rate",
            self.baseline_recovered,
        );
    }
}

/// Scores a flight's report batches, in batch order, on both control
/// charts, attributes every onset signal, and returns the health record.
/// Batches with no dies are skipped, so a 0-die flight scores 0 batches.
pub fn score_batches(
    batches: &[BatchSummary],
    cfg: &HealthConfig,
    module_names: &[String],
) -> HealthReport {
    let mut yield_chart = SpcChart::new("yield", cfg.spc);
    let mut recovered_chart = SpcChart::new("recovered_rate", cfg.spc);
    // The baseline window's class and quarantine mix.
    let mut baseline = BatchSummary::empty(0);
    let (mut scored, mut dies) = (0u64, 0u64);
    let mut excursions = Vec::new();
    for b in batches.iter().filter(|b| b.dies > 0) {
        scored += 1;
        dies += b.dies;
        // The baseline mix accumulates while the charts are still
        // learning, so attribution compares against the same window the
        // charts froze their mean over.
        if !yield_chart.armed() {
            for (acc, n) in baseline.sampled.iter_mut().zip(b.sampled) {
                *acc += n;
            }
            for (acc, n) in baseline.quarantine.iter_mut().zip(b.quarantine) {
                *acc += n;
            }
            baseline.dies += b.dies;
        }
        let signals = [
            yield_chart.observe(b.batch, b.passed, b.dies),
            recovered_chart.observe(b.batch, b.recovered, b.dies),
        ];
        for spc in signals.into_iter().flatten() {
            excursions.push(attribute(spc, b, &baseline, module_names));
        }
    }
    HealthReport {
        batches: scored,
        dies,
        baseline_yield: yield_chart.mean(),
        baseline_recovered: recovered_chart.mean(),
        excursions,
        yield_points: yield_chart.points().to_vec(),
        recovered_points: recovered_chart.points().to_vec(),
    }
}

/// Names the defect class and module that moved most in `b` vs. the
/// `baseline` window.
fn attribute(
    spc: SpcExcursion,
    b: &BatchSummary,
    baseline: &BatchSummary,
    module_names: &[String],
) -> Excursion {
    let base_dies = baseline.dies.max(1) as f64;
    let batch_dies = b.dies.max(1) as f64;
    // Largest class-share mover, clean excluded: its share is one minus
    // the defective shares, so it can only restate them.
    let mut attributed_class = "none";
    let mut class_delta_pp = 0.0f64;
    for class in DefectClass::ALL {
        if class == DefectClass::Clean {
            continue;
        }
        let i = class.index();
        let base = baseline.sampled[i] as f64 / base_dies;
        let now = b.sampled[i] as f64 / batch_dies;
        let delta = (now - base) * 100.0;
        if delta.abs() > class_delta_pp.abs() {
            attributed_class = class.name();
            class_delta_pp = delta;
        }
    }
    let mut attributed_module = "none".to_owned();
    let mut module_delta_pp = 0.0f64;
    for (m, name) in module_names.iter().enumerate().take(8) {
        let base = baseline.quarantine[m] as f64 / base_dies;
        let now = b.quarantine[m] as f64 / batch_dies;
        let delta = (now - base) * 100.0;
        if delta.abs() > module_delta_pp.abs() {
            attributed_module = name.clone();
            module_delta_pp = delta;
        }
    }
    let advice = advice_for(attributed_class);
    Excursion {
        spc,
        attributed_class,
        class_delta_pp,
        attributed_module,
        module_delta_pp,
        advice,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{DefectProfile, DieRecord, DieVerdict};

    fn die(die: u64, profile: DefectProfile, verdict: DieVerdict, tck: u64) -> DieRecord {
        DieRecord {
            die,
            profile,
            verdict,
            tck,
        }
    }

    fn modules() -> Vec<String> {
        vec![
            "XOR_NETWORK".into(),
            "CHECK_NODE".into(),
            "SIGN_LOGIC".into(),
        ]
    }

    /// A synthetic stream: `clean_batches` of all-passing dies, then
    /// batches where `bad_per_batch` dies are quarantined stuck-ats in
    /// module 1.
    fn stream(
        batch: u64,
        clean_batches: u64,
        total_batches: u64,
        bad_per_batch: u64,
    ) -> Vec<DieRecord> {
        let mut out = Vec::new();
        for b in 0..total_batches {
            for i in 0..batch {
                let d = b * batch + i;
                let bad = b >= clean_batches && i < bad_per_batch;
                if bad {
                    out.push(die(
                        d,
                        DefectProfile::StuckAt { site: 0 },
                        DieVerdict::Quarantined { modules: 0b010 },
                        900,
                    ));
                } else {
                    out.push(die(d, DefectProfile::Clean, DieVerdict::Passed, 700));
                }
            }
        }
        out
    }

    /// Folds a die stream into report batches of `size` dies, as
    /// `Fleet::summarize` does, and scores them.
    fn score(records: &[DieRecord], size: u64) -> HealthReport {
        let n = (records.len() as u64).div_ceil(size);
        let mut batches: Vec<BatchSummary> = (0..n).map(BatchSummary::empty).collect();
        for rec in records {
            batches[(rec.die / size) as usize].absorb(rec);
        }
        score_batches(&batches, &HealthConfig::default(), &modules())
    }

    #[test]
    fn clean_stream_stays_in_control() {
        let report = score(&stream(50, 40, 40, 0), 50);
        assert!(report.in_control());
        assert_eq!(report.batches, 40);
        assert_eq!(report.dies, 2000);
        assert!((report.baseline_yield - 1.0).abs() < 1e-12);
        assert_eq!(report.to_jsonl(), "");
    }

    #[test]
    fn yield_step_is_flagged_and_attributed() {
        // 10 baseline + 10 clean batches, then 20% of each batch fails.
        let report = score(&stream(50, 20, 40, 10), 50);
        assert!(!report.in_control());
        let latency = report.detection_latency(20).expect("must detect");
        assert!(latency <= 8, "latency {latency} batches");
        let e = &report.excursions[0];
        assert_eq!(e.spc.metric, "yield");
        assert_eq!(e.attributed_class, "stuck_at");
        assert!(e.class_delta_pp > 10.0);
        assert_eq!(e.attributed_module, "CHECK_NODE");
        assert!(e.module_delta_pp > 10.0);
        assert!(e.advice.contains("Reseed"), "advice: {}", e.advice);
    }

    #[test]
    fn partial_final_batch_is_scored() {
        // 20 full batches plus 30 trailing dies.
        let report = score(&stream(50, 21, 21, 0)[..20 * 50 + 30], 50);
        assert_eq!(report.batches, 21);
        assert_eq!(report.dies, 1030);
        // A 0-die flight's one empty report batch is not scored.
        let empty = score_batches(
            &[BatchSummary::empty(0)],
            &HealthConfig::default(),
            &modules(),
        );
        assert_eq!(empty.batches, 0);
    }

    #[test]
    fn monitor_is_a_pure_function_of_the_stream() {
        let run = || score(&stream(50, 20, 40, 10), 50);
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert_eq!(a.to_jsonl(), b.to_jsonl());
    }

    #[test]
    fn ledger_lines_parse_and_carry_attribution() {
        let report = score(&stream(50, 20, 30, 10), 50);
        let ledger = report.to_jsonl();
        assert!(!ledger.is_empty());
        for line in ledger.lines() {
            let v = soctest_obs::json::parse(line).expect("ledger line parses");
            assert!(v.get("metric").is_some());
            assert_eq!(
                v.get("attributed_class").and_then(|c| c.as_str()),
                Some("stuck_at")
            );
            assert!(v.get("advice").is_some());
        }
    }
}
