//! The unified metrics registry: counters, gauges, and log-2 histograms
//! with Prometheus-text exposition.
//!
//! The session and fleet layers export their accounting (`WaitStats`,
//! `SessionReport`, the fleet and health reports) into one registry via
//! `export_metrics` methods, so a single [`MetricsRegistry::snapshot`]
//! shows the whole run. Registration is implicit — the first touch of a
//! name creates the series — and names are plain `snake_case` strings,
//! valid Prometheus metric names.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Number of log-2 histogram buckets: bucket `i` counts observations `v`
/// with `floor(log2(v)) == i - 1` (bucket 0 holds `v == 0`), i.e. upper
/// bounds 0, 1, 2, 4, 8, … 2^62, +Inf.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A histogram with fixed log-2 buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket observation counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    fn bucket_index(v: u64) -> usize {
        match v {
            0 => 0,
            v => ((63 - v.leading_zeros()) as usize + 1).min(HISTOGRAM_BUCKETS - 1),
        }
    }

    /// The inclusive upper bound of bucket `i` (`u64::MAX` for the last).
    pub fn bucket_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// The thread-safe registry. Cheap to share via [`MetricsHandle`].
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter (creating it at 0).
    pub fn inc(&self, name: &str, delta: u64) {
        if let Ok(mut i) = self.inner.lock() {
            *i.counters.entry(name.to_owned()).or_insert(0) += delta;
        }
    }

    /// Sets the named gauge.
    pub fn set_gauge(&self, name: &str, value: f64) {
        if let Ok(mut i) = self.inner.lock() {
            i.gauges.insert(name.to_owned(), value);
        }
    }

    /// Records one observation into the named histogram.
    pub fn observe(&self, name: &str, value: u64) {
        if let Ok(mut i) = self.inner.lock() {
            i.histograms
                .entry(name.to_owned())
                .or_default()
                .observe(value);
        }
    }

    /// An immutable snapshot of every series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match self.inner.lock() {
            Ok(i) => MetricsSnapshot {
                counters: i.counters.clone(),
                gauges: i.gauges.clone(),
                histograms: i.histograms.clone(),
            },
            Err(_) => MetricsSnapshot::default(),
        }
    }
}

/// A cheap, cloneable, null-checked handle to a shared registry — the
/// metrics twin of [`crate::TraceHandle`].
#[derive(Clone, Default)]
pub struct MetricsHandle(Option<Arc<MetricsRegistry>>);

impl fmt::Debug for MetricsHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MetricsHandle({})",
            if self.0.is_some() { "on" } else { "off" }
        )
    }
}

impl MetricsHandle {
    /// The disabled handle (same as `Default`).
    pub fn none() -> Self {
        MetricsHandle(None)
    }

    /// Wraps a registry for sharing across layers.
    pub fn new(registry: MetricsRegistry) -> Self {
        MetricsHandle(Some(Arc::new(registry)))
    }

    /// Shares an already-shared registry.
    pub fn from_arc(registry: Arc<MetricsRegistry>) -> Self {
        MetricsHandle(Some(registry))
    }

    /// Whether metrics will be recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The attached registry, for bulk exports (`export_metrics` impls).
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.0.as_deref()
    }

    /// Adds `delta` to the named counter (no-op when disabled).
    pub fn inc(&self, name: &str, delta: u64) {
        if let Some(r) = &self.0 {
            r.inc(name, delta);
        }
    }

    /// Sets the named gauge (no-op when disabled).
    pub fn set_gauge(&self, name: &str, value: f64) {
        if let Some(r) = &self.0 {
            r.set_gauge(name, value);
        }
    }

    /// Records one histogram observation (no-op when disabled).
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(r) = &self.0 {
            r.observe(name, value);
        }
    }

    /// Snapshots the registry; `None` when disabled.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.0.as_ref().map(|r| r.snapshot())
    }
}

/// A point-in-time copy of every series, with exposition formats.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Log-2 histograms.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (i, &c) in h.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cumulative += c;
                let le = if i >= HISTOGRAM_BUCKETS - 1 {
                    "+Inf".to_owned()
                } else {
                    Histogram::bucket_bound(i).to_string()
                };
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_count {}\n", h.count));
        }
        out
    }

    /// Parses counters, gauges, and histogram sums/counts back out of the
    /// Prometheus text format — the CI "snapshot parses" assertion and the
    /// test-side round-trip. Bucket lines are validated for shape but the
    /// per-bucket layout is not reconstructed.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse_prometheus(text: &str) -> Result<MetricsSnapshot, String> {
        let mut snap = MetricsSnapshot::default();
        let mut types: BTreeMap<String, String> = BTreeMap::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it
                    .next()
                    .ok_or_else(|| format!("line {lineno}: bare TYPE"))?;
                let kind = it
                    .next()
                    .ok_or_else(|| format!("line {lineno}: TYPE without kind"))?;
                types.insert(name.to_owned(), kind.to_owned());
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let (name_part, value_part) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("line {lineno}: no value: {line}"))?;
            let value: f64 = value_part
                .parse()
                .map_err(|_| format!("line {lineno}: bad value: {value_part}"))?;
            let base = name_part.split('{').next().unwrap_or(name_part);
            if let Some(hist_name) = base
                .strip_suffix("_bucket")
                .or_else(|| base.strip_suffix("_sum"))
                .or_else(|| base.strip_suffix("_count"))
            {
                if types.get(hist_name).map(String::as_str) == Some("histogram") {
                    let h = snap.histograms.entry(hist_name.to_owned()).or_default();
                    if base.ends_with("_sum") {
                        h.sum = value as u64;
                    } else if base.ends_with("_count") {
                        h.count = value as u64;
                    }
                    continue;
                }
            }
            match types.get(base).map(String::as_str) {
                Some("counter") => {
                    snap.counters.insert(base.to_owned(), value as u64);
                }
                Some("gauge") => {
                    snap.gauges.insert(base.to_owned(), value);
                }
                other => {
                    return Err(format!(
                        "line {lineno}: series {base} has no TYPE (got {other:?})"
                    ));
                }
            }
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let reg = MetricsRegistry::new();
        reg.inc("tck_cycles_total", 5);
        reg.inc("tck_cycles_total", 7);
        reg.set_gauge("coverage_percent", 50.0);
        reg.set_gauge("coverage_percent", 86.5);
        let s = reg.snapshot();
        assert_eq!(s.counters["tck_cycles_total"], 12);
        assert_eq!(s.gauges["coverage_percent"], 86.5);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 100] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 106);
        assert!((h.mean() - 21.2).abs() < 1e-9);
    }

    #[test]
    fn prometheus_round_trips_counters_gauges_and_hist_totals() {
        let reg = MetricsRegistry::new();
        reg.inc("a_total", 3);
        reg.set_gauge("b_percent", 12.5);
        reg.observe("c_cycles", 7);
        reg.observe("c_cycles", 900);
        let snap = reg.snapshot();
        let text = snap.to_prometheus();
        let parsed = MetricsSnapshot::parse_prometheus(&text).unwrap();
        assert_eq!(parsed.counters, snap.counters);
        assert_eq!(parsed.gauges, snap.gauges);
        assert_eq!(parsed.histograms["c_cycles"].count, 2);
        assert_eq!(parsed.histograms["c_cycles"].sum, 907);
    }

    #[test]
    fn parse_rejects_untyped_series() {
        assert!(MetricsSnapshot::parse_prometheus("orphan 4\n").is_err());
        assert!(MetricsSnapshot::parse_prometheus("# TYPE x counter\nx notanumber\n").is_err());
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = MetricsHandle::none();
        h.inc("x", 1);
        h.set_gauge("y", 1.0);
        h.observe("z", 1);
        assert!(h.snapshot().is_none());
    }
}
