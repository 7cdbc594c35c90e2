//! The measurement loop every workload shares: repeated set-up, an untimed
//! warm-up, then closed-loop operations (one client; the next operation
//! starts when the previous returns) until the phase's time is spent.
//!
//! A traced run splits its time in two: the first half repeats the
//! untraced operation, the second half runs the traced one, so both sides
//! of `trace_overhead_pct` come from the same process.

use std::collections::BTreeMap;
use std::time::Instant;

use soctest_core::casestudy::CaseStudy;

use crate::host;
use crate::spans::Spans;
use crate::stats::{median, ratio};

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Production screening: a 5 % defective fleet replayed over the TAP.
    FleetScreen,
    /// The same fleet at 50 % defective: retries, quarantines, hangs.
    FleetDefective,
    /// The paper's Table 3 BIST column: sequential fault simulation.
    BistCampaign,
    /// Gate-level robust sessions with each die's defect planted.
    GateSessions,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::FleetScreen,
        Workload::FleetDefective,
        Workload::BistCampaign,
        Workload::GateSessions,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetScreen => "fleet-screen",
            Workload::FleetDefective => "fleet-defective",
            Workload::BistCampaign => "bist-campaign",
            Workload::GateSessions => "gate-sessions",
        }
    }

    /// What one operation is, for the report.
    pub fn operation(self) -> &'static str {
        match self {
            Workload::FleetScreen | Workload::FleetDefective => "one Fleet::run",
            Workload::BistCampaign => "one campaign",
            Workload::GateSessions => "one die session",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Size::FULL`] is what the benchmark measures; the smoke
/// pass shrinks every dimension so a debug build finishes in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Dies per fleet operation (one `Fleet::run`).
    pub fleet_dies: u64,
    /// Stuck-at candidate sites per module in the fleet's site pool. The
    /// pool is drawn from the seed, and how many of its sites every ladder
    /// rung detects sets how often a stuck-at die climbs the whole ladder;
    /// 32 sites per module (the default is 8) keeps that share, and so the
    /// work per die, within about 2 % from seed to seed.
    pub sites_per_module: usize,
    /// BIST patterns per fault-simulation campaign.
    pub campaign_patterns: u64,
    /// Dies in the gate-level pass whose verdicts are fingerprinted, split
    /// between the defect classes as the 50 % mix splits them.
    pub gate_dies: u64,
    /// Fewest set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Seconds of set-up to repeat at least (capped at 200 repetitions),
    /// so a cheap set-up still gets a steady median.
    pub setup_min_s: f64,
    /// Repetitions of each standalone layer probe.
    pub probe_reps: usize,
    /// Spans kept in memory for the span file.
    pub span_cap: usize,
    /// Whether fingerprints are compared with the pinned ones.
    pub pinned: bool,
}

impl Size {
    /// The measured configuration.
    pub const FULL: Size = Size {
        fleet_dies: 20_000,
        sites_per_module: 32,
        campaign_patterns: 4096,
        gate_dies: 2000,
        setup_reps: 5,
        setup_min_s: 1.0,
        probe_reps: 9,
        span_cap: 50_000,
        pinned: true,
    };

    /// The smoke configuration.
    pub const SMOKE: Size = Size {
        fleet_dies: 200,
        sites_per_module: 2,
        campaign_patterns: 64,
        gate_dies: 20,
        setup_reps: 1,
        setup_min_s: 0.0,
        probe_reps: 1,
        span_cap: 1000,
        pinned: false,
    };
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Host wall time.
    pub wall_ns: u64,
    /// Work items the operation completed (dies, campaigns).
    pub items: u64,
    /// Time this thread waited, runnable, for a CPU.
    pub wait_ns: u64,
    /// Time this thread ran.
    pub cpu_ns: u64,
}

/// Times `f` as one operation of `items` work items.
pub fn time<T>(samples: &mut Vec<Sample>, items: u64, f: impl FnOnce() -> T) -> T {
    let s0 = host::sched();
    let t0 = Instant::now();
    let out = f();
    let wall_ns = (t0.elapsed().as_nanos() as u64).max(1);
    let s1 = host::sched();
    samples.push(Sample {
        wall_ns,
        items,
        wait_ns: s1.wait_ns.saturating_sub(s0.wait_ns),
        cpu_ns: s1.cpu_ns.saturating_sub(s0.cpu_ns),
    });
    out
}

/// Shortest stretch of consecutive operations one throughput sample covers.
const WINDOW_NS: u64 = 100_000_000;

/// Throughput samples: items per second over consecutive windows of at
/// least [`WINDOW_NS`] of operations (a trailing partial window counts only
/// when there is no full one). The median over windows shrugs off the
/// host's stalls where a total-over-total mean does not, yet each window
/// still averages the mix of short and long operations it holds.
pub fn window_rates(samples: &[Sample]) -> Vec<f64> {
    let mut rates = Vec::new();
    let (mut items, mut ns) = (0u64, 0u64);
    for s in samples {
        items += s.items;
        ns += s.wall_ns;
        if ns >= WINDOW_NS {
            rates.push(items as f64 / (ns as f64 / 1e9));
            (items, ns) = (0, 0);
        }
    }
    if rates.is_empty() && ns > 0 {
        rates.push(items as f64 / (ns as f64 / 1e9));
    }
    rates
}

/// Closed-loop pacing: keep going until the phase's time is spent and at
/// least `min_ops` operations ran.
#[derive(Debug)]
pub struct Deadline {
    end: Instant,
    min_ops: u64,
    done: u64,
}

impl Deadline {
    /// A phase of `seconds` that runs at least `min_ops` operations.
    pub fn new(seconds: f64, min_ops: u64) -> Self {
        Deadline {
            end: Instant::now() + std::time::Duration::from_secs_f64(seconds.max(0.0)),
            min_ops,
            done: 0,
        }
    }

    /// Whether to start another operation (counts it if so).
    pub fn next(&mut self) -> bool {
        let go = self.done < self.min_ops || Instant::now() < self.end;
        if go {
            self.done += 1;
        }
        go
    }
}

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name (end-to-end and per-layer).
    pub values: BTreeMap<&'static str, f64>,
    /// Extra human-readable lines (workload-specific figures).
    pub lines: Vec<String>,
    /// The output fingerprint, once known.
    pub fingerprint: Option<u64>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds a human-readable line.
    pub fn line(&mut self, text: String) {
        self.lines.push(text);
    }
}

/// State shared by one workload run.
#[derive(Debug)]
pub struct Ctx {
    /// The benchmark seed.
    pub seed: u64,
    /// Seconds the run measures.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Span recorder (enabled only while tracing).
    pub spans: Spans,
    /// Set-up repetition times in seconds.
    pub setup: Vec<f64>,
    /// Untraced operations.
    pub untraced: Vec<Sample>,
    /// Traced operations.
    pub traced: Vec<Sample>,
    /// Checks made (one per operation, warm-up included).
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The first divergence seen.
    pub first_failure: Option<String>,
}

impl Ctx {
    /// A fresh run context.
    pub fn new(seed: u64, seconds: f64, trace: bool, size: Size) -> Self {
        Ctx {
            seed,
            seconds,
            trace,
            size,
            spans: Spans::new(trace, size.span_cap),
            setup: Vec::new(),
            untraced: Vec::new(),
            traced: Vec::new(),
            attempted: 0,
            failed: 0,
            first_failure: None,
        }
    }

    /// Seconds each phase (untraced, traced) measures.
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Starts tracing: spans on, then the standalone layer probes.
    pub fn begin_trace(&mut self, case: &CaseStudy, out: &mut Outcome) -> Result<(), String> {
        self.spans.set_enabled(true);
        crate::layers::probe(case, self, out)
    }

    /// Runs set-up at least `setup_reps` times and for at least
    /// `setup_min_s`, timing each under a `setup` span, and keeps the last
    /// result. Spans stay off afterwards until
    /// [`Ctx::begin_trace`], so the warm-up and untraced phase run bare.
    pub fn setup<T>(
        &mut self,
        mut build: impl FnMut(&mut Spans) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut last = None;
        let mut spent = 0.0;
        while self.setup.len() < self.size.setup_reps.max(1)
            || (spent < self.size.setup_min_s && self.setup.len() < 200)
        {
            drop(last.take());
            let t0 = Instant::now();
            let span = self.spans.open("setup", 0);
            let built = build(&mut self.spans);
            self.spans.close(span);
            let secs = t0.elapsed().as_secs_f64();
            self.setup.push(secs);
            spent += secs;
            last = Some(built?);
        }
        self.spans.set_enabled(false);
        last.ok_or_else(|| "set-up never ran".to_owned())
    }

    /// Records one operation's check. A failure is counted, and the first
    /// one is kept and printed.
    pub fn verify(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.first_failure.is_none() {
                eprintln!("first divergence: {why}");
                self.first_failure = Some(why);
            }
        }
    }

    /// Records the output fingerprint and, at full size, compares it with
    /// the pinned one for this seed.
    pub fn fingerprint(&mut self, workload: Workload, out: &mut Outcome, fp: u64) {
        out.fingerprint = Some(fp);
        let pin = crate::pins::pinned(workload, self.seed);
        let status = match pin {
            _ if !self.size.pinned => "not checked at this size".to_owned(),
            None => "no pin for this seed".to_owned(),
            Some(p) if p == fp => "matches pin".to_owned(),
            Some(p) => format!("MISMATCH, pinned {p:#018x}"),
        };
        out.line(format!("fingerprint: {fp:#018x} ({status})"));
        if self.size.pinned {
            if let Some(p) = pin {
                self.verify(if p == fp {
                    Ok(())
                } else {
                    Err(format!(
                        "{} seed {}: fingerprint {fp:#018x} != pinned {p:#018x}",
                        workload.name(),
                        self.seed
                    ))
                });
            }
        }
    }

    /// Shares of all timed operations' wall time this thread spent waiting
    /// for a CPU and running. Summed, not per operation: the kernel
    /// updates run time at scheduler ticks, coarse for millisecond ops.
    pub fn host_shares(&self) -> (f64, f64) {
        let all = || self.untraced.iter().chain(&self.traced);
        let wall = all().map(|s| s.wall_ns).sum::<u64>() as f64;
        let wait = all().map(|s| s.wait_ns).sum::<u64>() as f64;
        let cpu = all().map(|s| s.cpu_ns).sum::<u64>() as f64;
        (ratio(wait, wall), ratio(cpu, wall))
    }

    /// Fills the end-to-end timing metrics and the host and overhead
    /// metrics every workload shares.
    pub fn finish(&self, out: &mut Outcome) {
        let walls = |s: &[Sample]| s.iter().map(|x| x.wall_ns as f64).collect::<Vec<_>>();
        let untraced = walls(&self.untraced);
        out.set("setup_s", median(&self.setup));
        out.set("op_ms_p50", median(&untraced) / 1e6);
        out.set("items_per_s", median(&window_rates(&self.untraced)));

        let (wait, cpu) = self.host_shares();
        out.set("host.wait_frac", wait);
        out.set("host.cpu_frac", cpu);
        if self.trace {
            let build = self.spans.agg("fleet.new").total_ns as f64;
            let setup = self.spans.agg("setup").total_ns as f64;
            out.set("fleet.cache_build_share", ratio(build, setup));
            let traced = median(&walls(&self.traced));
            out.set(
                "trace_overhead_pct",
                (ratio(traced, median(&untraced)) - 1.0) * 100.0,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(ms: u64, items: u64) -> Sample {
        Sample {
            wall_ns: ms * 1_000_000,
            items,
            wait_ns: 0,
            cpu_ns: 0,
        }
    }

    #[test]
    fn throughput_windows_close_at_a_hundred_milliseconds() {
        // 40 + 40 + 40 ms closes one window of 6 items in 0.12 s; the
        // trailing 40 ms is dropped.
        let ops = [op(40, 2), op(40, 2), op(40, 2), op(40, 9)];
        assert_eq!(window_rates(&ops), [50.0]);
        // With no full window, the partial one counts.
        assert_eq!(window_rates(&[op(50, 5)]), [100.0]);
        assert!(window_rates(&[]).is_empty());
    }
}
