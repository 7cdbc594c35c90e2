//! Fleet-scale campaigns: 10⁵–10⁶ simulated die-sessions through the full
//! TAP → P1500 → BIST flow on one box.
//!
//! The trick that makes a million dies tractable is a shared cache. Every
//! die on a wafer runs the *same* test program against the *same* netlist;
//! only its defect (if any) differs. So the fleet rehearses the golden
//! signatures once per retry-ladder rung, fault-simulates a seeded pool of
//! candidate stuck-at sites once, and then each die-session replays those
//! cached signatures through a real [`soctest_p1500::TapDriver`] against a
//! [`ReplayCore`] — a protocol-exact backend that embeds a genuine
//! [`ControlUnit`] (so `end_test` timing bit-matches the gate-level
//! [`crate::session::WrappedCore`]) but presents precomputed signatures
//! instead of re-simulating gates. The TAP session protocol is still the
//! largest per-die cost, which is the point: the fleet measures
//! *test-time* behavior at population scale. A traced single-thread run
//! of 20,000-die flights (release, 2-vCPU Xeon) puts 56 % of a clean
//! die's ~2 µs in the TAP protocol (606.6 TCK at 1.9 ns each) and the
//! rest in robust-session bookkeeping and the replay core's functional
//! clocks.
//!
//! Each die draws a [`DefectProfile`] from a seed-deterministic
//! [`DefectSampler`]: clean, a permanent stuck-at from the site pool, a
//! transient (a periodically upset TDO pin, which majority-voted status
//! reads and the retry ladder usually see past), or a hung engine (the
//! replay core pins `end_test` low, so the session's watchdog fires). The
//! aggregate [`FleetReport`] carries yield, escapes (defective dies that
//! pass — stuck-at sites whose signature aliases under every ladder rung),
//! overkill (clean dies quarantined), per-class verdict counts, TCK
//! percentiles, batch summaries, and a deterministic JSON rendering.
//!
//! Determinism contract: every per-die decision derives from
//! `(config.seed, die_index)` alone — same config twice gives a
//! byte-identical [`FleetReport::to_json`], and the worker count never
//! changes any record (dies are simulated independently and reassembled in
//! index order). Wall-clock numbers live outside the JSON for that reason.
//!
//! Workers take chunks of at most 256 dies that never straddle a report
//! batch, and time each chunk once. The owning thread charges that wall to
//! the chunk's batch ([`FleetOutcome::batch_walls`]) and, under
//! [`Fleet::new_profiled`], records it as one `chunk` entry (with the
//! chunk's `dies`/`tck` counters) under the `simulate` phase. Nothing reads
//! the clock per die, so the profiler's cost grows with chunks, not dies.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use soctest_bist::{BistCommand, ControlUnit, EngineError};
use soctest_netlist::{GateKind, NetId};
use soctest_obs::{
    MetricsRegistry, ProfileHandle, SamplerPolicy, TraceHandle, TraceRecord, TraceSampler, Tracer,
};
use soctest_p1500::{BistBackend, PinFault, PinFaults, TapDriver};
use soctest_prng::SplitMix64;

use crate::casestudy::CaseStudy;
use crate::error::SessionError;
use crate::health::{self, HealthConfig, HealthReport};
use crate::robust::{RetryStrategy, RobustSession, SessionBackend, SessionBudget, SessionReport};
use crate::session::WrappedCore;

/// Stream-splitting multiplier for per-die RNG derivation. Deliberately
/// *not* SplitMix64's own Weyl gamma (`0x9E37_79B9_7F4A_7C15`): seeding
/// die *n* at `seed + n * gamma` would start each die exactly one
/// generator step after its neighbor, making die *n*'s draw sequence a
/// shifted copy of die *n+1*'s. A different odd multiplier scatters the
/// per-die states across the full state space instead.
const DIE_STREAM: u64 = 0xD1B5_4A32_D192_ED03;

/// Salt for the defect-site pool RNG, so site selection and per-die
/// sampling draw from unrelated streams of the same fleet seed.
const SITE_POOL_SALT: u64 = 0x517E_D00D_0BAD_D1E5;

/// Default ring-buffer capacity for a sampled die's tracer — the bound on
/// per-die JSONL output (the ring drops oldest and counts drops).
pub const TRACE_RING_DEFAULT: usize = 256;

/// A protocol-exact replay backend: a genuine [`ControlUnit`] for
/// bit-accurate `end_test` timing, with precomputed final signatures in
/// place of gate simulation. Commands and functional clocks cost the same
/// TCK schedule as a [`WrappedCore`] session (same WDR width, same done
/// timing), so pin-fault interposers hit identical pin cycles — but a
/// functional clock is a counter increment, not a netlist evaluation.
#[derive(Debug, Clone)]
pub struct ReplayCore {
    control: ControlUnit,
    finals: Vec<u64>,
    misr_width: usize,
    hang: bool,
}

impl ReplayCore {
    /// A replay core presenting `finals[m]` as module `m`'s signature once
    /// the embedded control unit finishes. With `hang`, `end_test` is
    /// pinned low forever — the hung-engine defect class.
    pub fn new(counter_bits: usize, finals: Vec<u64>, misr_width: usize, hang: bool) -> Self {
        ReplayCore {
            control: ControlUnit::new(counter_bits),
            finals,
            misr_width,
            hang,
        }
    }
}

impl BistBackend for ReplayCore {
    fn command(&mut self, cmd: BistCommand) {
        self.control.command(cmd);
    }

    fn functional_clock(&mut self) {
        self.control.clock();
    }

    fn end_test(&self) -> bool {
        !self.hang && self.control.end_test()
    }

    fn selected_signature(&self) -> u64 {
        if !self.end_test() || self.finals.is_empty() {
            return 0;
        }
        self.finals[self.control.result_select() as usize % self.finals.len()]
    }

    fn signature_width(&self) -> usize {
        self.misr_width
    }
}

impl SessionBackend for ReplayCore {}

/// The defect class a die was assigned, for aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefectClass {
    /// No defect.
    Clean,
    /// A permanent stuck-at on one net of one module.
    StuckAt,
    /// A periodically upset TDO pin (reads are corrupted, hardware is good).
    Transient,
    /// The BIST engine never raises `end_test`.
    Hung,
}

impl DefectClass {
    /// All classes, in the fixed aggregation/reporting order.
    pub const ALL: [DefectClass; 4] = [
        DefectClass::Clean,
        DefectClass::StuckAt,
        DefectClass::Transient,
        DefectClass::Hung,
    ];

    /// The class mnemonic used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            DefectClass::Clean => "clean",
            DefectClass::StuckAt => "stuck_at",
            DefectClass::Transient => "transient",
            DefectClass::Hung => "hung",
        }
    }

    /// The class's position in [`DefectClass::ALL`].
    pub fn index(self) -> usize {
        match self {
            DefectClass::Clean => 0,
            DefectClass::StuckAt => 1,
            DefectClass::Transient => 2,
            DefectClass::Hung => 3,
        }
    }
}

/// One die's concrete defect draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefectProfile {
    /// A healthy die.
    Clean,
    /// A permanent stuck-at at site `site` of the fleet's site pool.
    StuckAt {
        /// Index into [`Fleet::sites`].
        site: usize,
    },
    /// TDO upset every `period`-th TCK cycle.
    Transient {
        /// The flip period in TCK cycles (1-based schedule).
        period: u64,
    },
    /// The engine hangs: `end_test` never rises.
    Hung,
}

impl DefectProfile {
    /// The aggregation class of this profile.
    pub fn class(self) -> DefectClass {
        match self {
            DefectProfile::Clean => DefectClass::Clean,
            DefectProfile::StuckAt { .. } => DefectClass::StuckAt,
            DefectProfile::Transient { .. } => DefectClass::Transient,
            DefectProfile::Hung => DefectClass::Hung,
        }
    }
}

/// The population-level defect distribution: what fraction of dies are
/// defective, and how defective dies split across classes (by integer
/// weight).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefectMix {
    /// Probability a die is defective at all (0.0 ..= 1.0).
    pub defect_rate: f64,
    /// Relative weight of permanent stuck-at defects.
    pub stuck_at_weight: u32,
    /// Relative weight of transient pin upsets.
    pub transient_weight: u32,
    /// Relative weight of hung engines.
    pub hung_weight: u32,
}

impl Default for DefectMix {
    fn default() -> Self {
        DefectMix {
            defect_rate: 0.05,
            stuck_at_weight: 6,
            transient_weight: 3,
            hung_weight: 1,
        }
    }
}

impl DefectMix {
    /// The probability a die draws `class`, given this mix and a site pool
    /// / period list of the given sizes (empty pools forfeit their weight
    /// to clean, matching [`DefectSampler::sample`]).
    pub fn class_probability(&self, class: DefectClass, nsites: usize, nperiods: usize) -> f64 {
        let sa = if nsites > 0 {
            u64::from(self.stuck_at_weight)
        } else {
            0
        };
        let tr = if nperiods > 0 {
            u64::from(self.transient_weight)
        } else {
            0
        };
        let hu = u64::from(self.hung_weight);
        let total = sa + tr + hu;
        if total == 0 {
            return if class == DefectClass::Clean {
                1.0
            } else {
                0.0
            };
        }
        let weight = match class {
            DefectClass::Clean => return 1.0 - self.defect_rate,
            DefectClass::StuckAt => sa,
            DefectClass::Transient => tr,
            DefectClass::Hung => hu,
        };
        self.defect_rate * (weight as f64 / total as f64)
    }
}

/// Draws per-die defect profiles from a [`DefectMix`]. Pure function of
/// the RNG handed in: the fleet derives one RNG per `(seed, die)` pair,
/// so a die's profile never depends on scheduling order.
#[derive(Debug, Clone)]
pub struct DefectSampler {
    mix: DefectMix,
    nsites: usize,
    periods: Vec<u64>,
}

impl DefectSampler {
    /// A sampler over `nsites` stuck-at sites and the given transient flip
    /// periods.
    pub fn new(mix: DefectMix, nsites: usize, periods: Vec<u64>) -> Self {
        DefectSampler {
            mix,
            nsites,
            periods,
        }
    }

    /// Draws one die's profile. A class whose pool is empty (no sites, no
    /// periods) forfeits its weight; if every defective class is empty the
    /// die is clean.
    pub fn sample(&self, rng: &mut SplitMix64) -> DefectProfile {
        if !rng.gen_bool(self.mix.defect_rate) {
            return DefectProfile::Clean;
        }
        let sa = if self.nsites > 0 {
            u64::from(self.mix.stuck_at_weight)
        } else {
            0
        };
        let tr = if self.periods.is_empty() {
            0
        } else {
            u64::from(self.mix.transient_weight)
        };
        let hu = u64::from(self.mix.hung_weight);
        let total = sa + tr + hu;
        if total == 0 {
            return DefectProfile::Clean;
        }
        let r = rng.gen_below(total);
        if r < sa {
            DefectProfile::StuckAt {
                site: rng.gen_index(self.nsites),
            }
        } else if r < sa + tr {
            DefectProfile::Transient {
                period: self.periods[rng.gen_index(self.periods.len())],
            }
        } else {
            DefectProfile::Hung
        }
    }
}

/// One stuck-at candidate in the fleet's site pool: a net of one module
/// forced to a constant, plus whether the defect is *detectable* — i.e.
/// whether its signature differs from golden under **every** retry-ladder
/// rung. An undetectable site aliases under at least one rung, so a die
/// carrying it escapes (passes test while defective).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefectSite {
    /// Module index the defect lives in.
    pub module: usize,
    /// The forced net.
    pub net: NetId,
    /// The forced value.
    pub value: bool,
    /// `true` when every ladder rung's signature exposes the defect.
    pub detectable: bool,
}

/// A deterministic mid-campaign process shift: from the first die of
/// report batch `batch` onward, defect profiles are drawn from `mix`
/// instead of [`FleetConfig::mix`]. The switch is a pure function of the
/// die index, so drifted campaigns keep the full determinism contract
/// (worker-count invariance, byte-identical reports) — this is the
/// injection hook the health monitor's detection-latency contract is
/// proved against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSpec {
    /// First batch index affected by the shift.
    pub batch: u64,
    /// The defect mix in force from that batch onward.
    pub mix: DefectMix,
}

/// Fleet campaign configuration. Everything that affects per-die results
/// is here; [`FleetConfig::new`] fills in the defaults.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of dies to simulate.
    pub dies: u64,
    /// Fleet seed: the sole entropy source for sites and per-die draws.
    pub seed: u64,
    /// BIST patterns per session execution.
    pub patterns: u64,
    /// Worker threads (`0` = one per available core).
    pub workers: usize,
    /// Dies per report batch (`0` = `dies / 8`, at least 1).
    pub batch: u64,
    /// The population defect distribution.
    pub mix: DefectMix,
    /// Stuck-at candidate sites drawn per module.
    pub sites_per_module: usize,
    /// Transient TDO flip periods to draw from.
    pub transient_periods: Vec<u64>,
    /// Restrict the site pool to detectable sites (used by escape-free
    /// screening experiments; the default pool keeps aliasing sites so
    /// escapes are representable).
    pub detectable_only: bool,
    /// Per-session watchdog budget.
    pub budget: SessionBudget,
    /// An optional mid-campaign defect-mix step change (see [`DriftSpec`]).
    pub inject_drift: Option<DriftSpec>,
}

impl FleetConfig {
    /// A config with the campaign defaults: 64 patterns, auto workers,
    /// auto batches, the default [`DefectMix`], 8 sites per module,
    /// transient periods {101, 149, 211}, the full (aliasing-capable)
    /// site pool, and the default [`SessionBudget`].
    pub fn new(dies: u64, seed: u64) -> Self {
        FleetConfig {
            dies,
            seed,
            patterns: 64,
            workers: 0,
            batch: 0,
            mix: DefectMix::default(),
            sites_per_module: 8,
            transient_periods: vec![101, 149, 211],
            detectable_only: false,
            budget: SessionBudget::default(),
            inject_drift: None,
        }
    }

    /// The batch size actually used (`batch`, or `dies / 8` clamped to 1).
    pub fn effective_batch(&self) -> u64 {
        if self.batch > 0 {
            self.batch
        } else {
            (self.dies / 8).max(1)
        }
    }
}

/// One die's verdict after its robust session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DieVerdict {
    /// Every module cleared.
    Passed,
    /// At least one module quarantined; bit `m` set = module `m`.
    Quarantined {
        /// Bitmask of quarantined module indices.
        modules: u8,
    },
    /// The session's done-watchdog fired (hung engine).
    Hung,
    /// A TAP protocol error (e.g. no status-read majority).
    Protocol,
}

/// One die's complete, deterministic record. Wall-clock time is kept out
/// deliberately so records compare bit-equal across runs and worker
/// counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DieRecord {
    /// Die index (0-based).
    pub die: u64,
    /// The defect the die drew.
    pub profile: DefectProfile,
    /// The session verdict.
    pub verdict: DieVerdict,
    /// TCK cycles the session spent (hung dies bill the deterministic
    /// cost of reaching the watchdog; protocol-error dies bill 0 and are
    /// excluded from percentiles).
    pub tck: u64,
}

/// Maps a robust-session result to a die verdict — shared by the fleet
/// and the conformance difftest so both sides agree on the mapping.
pub fn verdict_of(result: &Result<SessionReport, SessionError>) -> DieVerdict {
    match result {
        Ok(report) => {
            if report.all_passed() {
                DieVerdict::Passed
            } else {
                let mut mask = 0u8;
                for (m, outcome) in report.outcomes.iter().enumerate().take(8) {
                    if outcome.quarantined {
                        mask |= 1 << m;
                    }
                }
                DieVerdict::Quarantined { modules: mask }
            }
        }
        Err(SessionError::Engine(EngineError::Hung { .. })) => DieVerdict::Hung,
        Err(_) => DieVerdict::Protocol,
    }
}

/// Per-class verdict counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassStats {
    /// The defect class.
    pub class: DefectClass,
    /// Dies that drew this class.
    pub sampled: u64,
    /// ... of which passed.
    pub passed: u64,
    /// ... of which quarantined.
    pub quarantined: u64,
    /// ... of which hung.
    pub hung: u64,
    /// ... of which hit a protocol error.
    pub protocol: u64,
}

/// Nearest-rank percentiles over a cycle distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentiles {
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

fn percentile(sorted: &[u64], q: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * q).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

impl Percentiles {
    /// Computes p50/p95/p99 from an unsorted sample (nearest-rank).
    pub fn from_samples(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        Percentiles {
            p50: percentile(&samples, 50),
            p95: percentile(&samples, 95),
            p99: percentile(&samples, 99),
        }
    }
}

/// One report batch: verdicts over a contiguous run of die indices, so a
/// cockpit can show how the campaign evolved batch by batch — and so the
/// health monitor can score each batch's class and quarantine mix without
/// recomputing from raw die records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSummary {
    /// Batch index (0-based).
    pub batch: u64,
    /// Dies in the batch.
    pub dies: u64,
    /// Passing dies.
    pub passed: u64,
    /// Quarantined dies.
    pub quarantined: u64,
    /// Hung dies.
    pub hung: u64,
    /// Protocol-error dies.
    pub protocol: u64,
    /// Defective dies that passed (stuck-at aliasing escapes).
    pub escapes: u64,
    /// Clean dies that did not pass.
    pub overkill: u64,
    /// Transient dies that passed (retry-ladder / vote recovery).
    pub recovered: u64,
    /// Dies sampled per defect class, in [`DefectClass::ALL`] order.
    pub sampled: [u64; 4],
    /// Quarantine counts per module index (the verdict bitmask positions;
    /// entries past the module count stay zero).
    pub quarantine: [u64; 8],
}

impl BatchSummary {
    /// An all-zero summary for batch `batch`.
    pub fn empty(batch: u64) -> Self {
        BatchSummary {
            batch,
            dies: 0,
            passed: 0,
            quarantined: 0,
            hung: 0,
            protocol: 0,
            escapes: 0,
            overkill: 0,
            recovered: 0,
            sampled: [0; 4],
            quarantine: [0; 8],
        }
    }

    /// Folds one die record in. This is the single accumulation rule:
    /// [`Fleet::summarize`] folds the report batches with it, and the
    /// health monitor scores those same batches.
    pub fn absorb(&mut self, rec: &DieRecord) {
        let class = rec.profile.class();
        self.dies += 1;
        self.sampled[class.index()] += 1;
        match rec.verdict {
            DieVerdict::Passed => {
                self.passed += 1;
                match class {
                    DefectClass::StuckAt => self.escapes += 1,
                    DefectClass::Transient => self.recovered += 1,
                    _ => {}
                }
            }
            DieVerdict::Quarantined { modules } => {
                self.quarantined += 1;
                for (m, slot) in self.quarantine.iter_mut().enumerate() {
                    if modules & (1 << m) != 0 {
                        *slot += 1;
                    }
                }
                if class == DefectClass::Clean {
                    self.overkill += 1;
                }
            }
            DieVerdict::Hung => {
                self.hung += 1;
                if class == DefectClass::Clean {
                    self.overkill += 1;
                }
            }
            DieVerdict::Protocol => {
                self.protocol += 1;
                if class == DefectClass::Clean {
                    self.overkill += 1;
                }
            }
        }
    }
}

/// The aggregate outcome of a fleet campaign. Everything in
/// [`FleetReport::to_json`] is a pure function of the [`FleetConfig`];
/// the one wall-clock field (`elapsed_ns`) is carried alongside but
/// excluded from the JSON so it stays byte-reproducible.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Dies simulated.
    pub dies: u64,
    /// The fleet seed.
    pub seed: u64,
    /// Patterns per session execution.
    pub patterns: u64,
    /// The configured defect rate.
    pub defect_rate: f64,
    /// Per-class verdict counts, in [`DefectClass::ALL`] order.
    pub classes: Vec<ClassStats>,
    /// Dies that passed.
    pub passed: u64,
    /// Dies with at least one quarantined module.
    pub quarantined: u64,
    /// Dies whose engine hung.
    pub hung: u64,
    /// Dies that hit a TAP protocol error.
    pub protocol: u64,
    /// Stuck-at dies that passed — test escapes (signature aliasing under
    /// every ladder rung).
    pub escapes: u64,
    /// Clean dies that did not pass — overkill.
    pub overkill: u64,
    /// Transient dies that passed — the retry ladder / vote machinery
    /// recovered them (correct behavior, counted separately from escapes
    /// because the hardware is good).
    pub recovered: u64,
    /// Quarantine counts per module name.
    pub quarantine_by_module: Vec<(String, u64)>,
    /// Session-cost percentiles in TCK cycles (protocol-error dies
    /// excluded — their sessions abort at an undefined point).
    pub tck: Percentiles,
    /// Wall-clock time of the whole campaign (not in the JSON).
    pub elapsed_ns: u64,
    /// Dies per batch.
    pub batch_size: u64,
    /// Batch-by-batch verdicts.
    pub batches: Vec<BatchSummary>,
}

impl FleetReport {
    /// Yield: passing dies over all dies, in percent.
    pub fn yield_percent(&self) -> f64 {
        if self.dies == 0 {
            return 0.0;
        }
        self.passed as f64 / self.dies as f64 * 100.0
    }

    fn sampled(&self, class: DefectClass) -> u64 {
        self.classes
            .iter()
            .find(|c| c.class == class)
            .map_or(0, |c| c.sampled)
    }

    /// Escape rate: stuck-at dies that passed, over stuck-at dies sampled,
    /// in percent (0 when no stuck-at die was drawn).
    pub fn escape_percent(&self) -> f64 {
        let sa = self.sampled(DefectClass::StuckAt);
        if sa == 0 {
            return 0.0;
        }
        self.escapes as f64 / sa as f64 * 100.0
    }

    /// Overkill rate: clean dies that did not pass, over clean dies
    /// sampled, in percent (0 when no clean die was drawn).
    pub fn overkill_percent(&self) -> f64 {
        let clean = self.sampled(DefectClass::Clean);
        if clean == 0 {
            return 0.0;
        }
        self.overkill as f64 / clean as f64 * 100.0
    }

    /// Campaign throughput in dies per second of wall-clock time.
    pub fn dies_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.dies as f64 / (self.elapsed_ns as f64 / 1e9)
    }

    /// Renders the deterministic JSON document: same config in, same bytes
    /// out, regardless of worker count or host speed. Wall-clock numbers
    /// are deliberately absent.
    pub fn to_json(&self) -> String {
        let mut j = String::with_capacity(2048);
        j.push_str("{\n");
        j.push_str(&format!("  \"dies\": {},\n", self.dies));
        j.push_str(&format!("  \"seed\": {},\n", self.seed));
        j.push_str(&format!("  \"patterns\": {},\n", self.patterns));
        j.push_str(&format!("  \"defect_rate\": {:.4},\n", self.defect_rate));
        j.push_str(&format!("  \"passed\": {},\n", self.passed));
        j.push_str(&format!("  \"quarantined\": {},\n", self.quarantined));
        j.push_str(&format!("  \"hung\": {},\n", self.hung));
        j.push_str(&format!("  \"protocol\": {},\n", self.protocol));
        j.push_str(&format!("  \"escapes\": {},\n", self.escapes));
        j.push_str(&format!("  \"overkill\": {},\n", self.overkill));
        j.push_str(&format!("  \"recovered\": {},\n", self.recovered));
        j.push_str(&format!(
            "  \"yield_percent\": {:.4},\n",
            self.yield_percent()
        ));
        j.push_str(&format!(
            "  \"escape_percent\": {:.4},\n",
            self.escape_percent()
        ));
        j.push_str(&format!(
            "  \"overkill_percent\": {:.4},\n",
            self.overkill_percent()
        ));
        j.push_str("  \"classes\": [\n");
        for (i, c) in self.classes.iter().enumerate() {
            j.push_str(&format!(
                "    {{\"class\": \"{}\", \"sampled\": {}, \"passed\": {}, \"quarantined\": {}, \"hung\": {}, \"protocol\": {}}}{}\n",
                c.class.name(),
                c.sampled,
                c.passed,
                c.quarantined,
                c.hung,
                c.protocol,
                if i + 1 < self.classes.len() { "," } else { "" }
            ));
        }
        j.push_str("  ],\n");
        j.push_str("  \"quarantine_by_module\": {");
        for (i, (name, n)) in self.quarantine_by_module.iter().enumerate() {
            if i > 0 {
                j.push_str(", ");
            }
            j.push_str(&format!("\"{name}\": {n}"));
        }
        j.push_str("},\n");
        j.push_str(&format!(
            "  \"tck\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}}},\n",
            self.tck.p50, self.tck.p95, self.tck.p99
        ));
        j.push_str(&format!("  \"batch_size\": {},\n", self.batch_size));
        j.push_str("  \"batches\": [\n");
        let nmodules = self.quarantine_by_module.len().min(8);
        for (i, b) in self.batches.iter().enumerate() {
            let sampled: Vec<String> = b.sampled.iter().map(|n| n.to_string()).collect();
            let quarantine: Vec<String> = b.quarantine[..nmodules]
                .iter()
                .map(|n| n.to_string())
                .collect();
            j.push_str(&format!(
                "    {{\"batch\": {}, \"dies\": {}, \"passed\": {}, \"quarantined\": {}, \"hung\": {}, \"protocol\": {}, \"escapes\": {}, \"overkill\": {}, \"recovered\": {}, \"sampled\": [{}], \"quarantine\": [{}]}}{}\n",
                b.batch,
                b.dies,
                b.passed,
                b.quarantined,
                b.hung,
                b.protocol,
                b.escapes,
                b.overkill,
                b.recovered,
                sampled.join(", "),
                quarantine.join(", "),
                if i + 1 < self.batches.len() { "," } else { "" }
            ));
        }
        j.push_str("  ]\n}\n");
        j
    }

    /// Folds the campaign into the unified metrics registry.
    pub fn export_metrics(&self, registry: &MetricsRegistry) {
        registry.inc("fleet_runs_total", 1);
        registry.inc("fleet_dies_total", self.dies);
        registry.inc("fleet_passed_total", self.passed);
        registry.inc("fleet_quarantined_total", self.quarantined);
        registry.inc("fleet_hung_total", self.hung);
        registry.inc("fleet_protocol_errors_total", self.protocol);
        registry.inc("fleet_escapes_total", self.escapes);
        registry.inc("fleet_overkill_total", self.overkill);
        registry.inc("fleet_recovered_total", self.recovered);
        registry.set_gauge("fleet_yield_percent", self.yield_percent());
        registry.set_gauge("fleet_escape_percent", self.escape_percent());
        registry.set_gauge("fleet_overkill_percent", self.overkill_percent());
        registry.set_gauge("fleet_tck_p50", self.tck.p50 as f64);
        registry.set_gauge("fleet_tck_p95", self.tck.p95 as f64);
        registry.set_gauge("fleet_tck_p99", self.tck.p99 as f64);
        for c in &self.classes {
            registry.inc(
                &format!("fleet_class_{}_sampled_total", c.class.name()),
                c.sampled,
            );
        }
    }
}

/// One sampled die's bounded session trace: the ring-buffer tail of its
/// TAP→P1500→BIST conversation, plus overflow accounting. Everything here
/// is deterministic (cycle stamps are TCK counts, not wall time), so two
/// runs of the same config emit byte-identical JSONL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DieTrace {
    /// The sampled die's index.
    pub die: u64,
    /// The die's defect class.
    pub class: DefectClass,
    /// The die's verdict.
    pub verdict: DieVerdict,
    /// Total trace records the session emitted (buffered + dropped).
    pub records: u64,
    /// Records the bounded ring dropped (oldest-first) — surfaced as the
    /// `trace_dropped_events` metric instead of silently truncating.
    pub dropped: u64,
    /// The ring's surviving records, oldest first.
    pub tail: Vec<TraceRecord>,
}

impl DieVerdict {
    /// The verdict's lowercase wire name (`passed`, `quarantined`,
    /// `hung`, `protocol`), as used in trace headers and reports.
    pub fn name(self) -> &'static str {
        match self {
            DieVerdict::Passed => "passed",
            DieVerdict::Quarantined { .. } => "quarantined",
            DieVerdict::Hung => "hung",
            DieVerdict::Protocol => "protocol",
        }
    }
}

impl DieTrace {
    /// Renders the trace as a self-describing JSONL block: one header
    /// line (`die`, `class`, `verdict`, `records`, `dropped`) followed by
    /// the buffered record lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"die\": {}, \"class\": \"{}\", \"verdict\": \"{}\", \"records\": {}, \"dropped\": {}}}\n",
            self.die,
            self.class.name(),
            self.verdict.name(),
            self.records,
            self.dropped
        );
        out.push_str(&soctest_obs::event::to_jsonl(&self.tail));
        out
    }
}

/// One worker chunk's output, reassembled by `lo` so every aggregate is
/// worker-count-invariant.
struct ChunkOut {
    lo: u64,
    records: Vec<DieRecord>,
    traces: Vec<DieTrace>,
    wall_ns: u64,
}

/// Wall-clock time spent on one report batch's dies — kept beside (not
/// inside) the deterministic report, for dies/s-over-batches sparklines.
/// Chunks never straddle a batch boundary, so each figure is the measured
/// wall of exactly that batch's chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchWall {
    /// Batch index (matches [`BatchSummary::batch`]).
    pub batch: u64,
    /// Dies in the batch.
    pub dies: u64,
    /// Wall nanoseconds spent on those dies (summed worker time).
    pub wall_ns: u64,
}

impl BatchWall {
    /// Throughput over this batch in dies per second.
    pub fn dies_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.dies as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// A finished campaign: the aggregate report plus every die record, in
/// die order.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The aggregate report.
    pub report: FleetReport,
    /// Every die's record, indexed by die.
    pub dies: Vec<DieRecord>,
    /// Sampled per-die session traces, in die order (empty unless
    /// [`Fleet::with_trace_sampling`] armed a plan).
    pub traces: Vec<DieTrace>,
    /// Per-batch wall time (summed chunk walls; non-deterministic, so
    /// kept out of the report JSON like every other wall number).
    pub batch_walls: Vec<BatchWall>,
    /// The health monitor's report (None unless [`Fleet::with_monitor`]
    /// armed it).
    pub health: Option<HealthReport>,
}

impl FleetOutcome {
    /// Total ring-buffer drops across all sampled-die traces.
    pub fn trace_dropped_events(&self) -> u64 {
        self.traces.iter().map(|t| t.dropped).sum()
    }

    /// Folds the campaign into the metrics registry: the report's
    /// aggregates, the per-die TCK distribution as a histogram, and the
    /// sampled-trace overflow counter.
    pub fn export_metrics(&self, registry: &MetricsRegistry) {
        self.report.export_metrics(registry);
        for rec in &self.dies {
            if rec.verdict != DieVerdict::Protocol {
                registry.observe("fleet_tck_cycles", rec.tck);
            }
        }
        registry.inc("trace_dropped_events", self.trace_dropped_events());
        if let Some(health) = &self.health {
            health.export_metrics(registry);
        }
    }
}

/// The campaign service. [`Fleet::new`] pays the one-time cache cost
/// (golden rehearsals per ladder rung, fault simulation of the site
/// pool, the hung-session TCK probe); [`Fleet::run`] then streams dies
/// through the cached protocol at session-replay speed. The fleet holds
/// no interior mutability, so one instance serves any number of
/// concurrent [`Fleet::simulate_die`] callers.
#[derive(Debug)]
pub struct Fleet {
    config: FleetConfig,
    strategies: Vec<RetryStrategy>,
    module_names: Vec<String>,
    goldens: Vec<Vec<u64>>,
    sites: Vec<DefectSite>,
    faulty: Vec<Vec<u64>>,
    sampler: DefectSampler,
    /// `(first drifted die, drifted sampler)` when a [`DriftSpec`] is set.
    drift: Option<(u64, DefectSampler)>,
    misr_width: usize,
    counter_bits: usize,
    hung_tck: u64,
    profile: ProfileHandle,
    sampling: Option<SamplerPolicy>,
    trace_capacity: usize,
    monitor: Option<HealthConfig>,
}

impl Fleet {
    /// Builds the shared campaign cache for `case` under `config`.
    ///
    /// # Errors
    ///
    /// Propagates simulator-construction and rehearsal errors from the
    /// cache build (golden and per-site signatures).
    pub fn new(case: &CaseStudy, config: FleetConfig) -> Result<Self, SessionError> {
        Self::new_profiled(case, config, ProfileHandle::none())
    }

    /// Like [`Fleet::new`], but phase-attributes the cache build (and
    /// every later [`Fleet::run`]) into `profile` under a `cache_build`
    /// phase with `rehearse_golden` / `site_pool` / `faulty_signatures` /
    /// `hung_probe` children.
    ///
    /// # Errors
    ///
    /// Same as [`Fleet::new`].
    pub fn new_profiled(
        case: &CaseStudy,
        config: FleetConfig,
        profile: ProfileHandle,
    ) -> Result<Self, SessionError> {
        let build_scope = profile.scope("cache_build");
        let strategies = RobustSession::new(config.budget).strategies().to_vec();
        let module_names: Vec<String> = case.module_names().iter().map(|&s| s.to_owned()).collect();
        let misr_width = case.spec().misr_width;
        let counter_bits = case.spec().counter_bits;

        // Golden signatures, one rehearsal per ladder rung.
        let mut goldens = Vec::with_capacity(strategies.len());
        {
            let _s = profile.scope("rehearse_golden");
            for &strategy in &strategies {
                let (variant, seed) = strategy.engine_knobs();
                let engine = case.engine_variant(variant, seed)?;
                let mut rehearsal = WrappedCore::with_engine(case, engine)?;
                goldens.push(rehearsal.rehearse(config.patterns)?);
            }
            profile.count("rungs", strategies.len() as u64);
        }

        // The stuck-at site pool: a seeded draw per module over nets with
        // a real driver (forcing an Input or Const just re-states it).
        let mut pool_rng = SplitMix64::new(config.seed ^ SITE_POOL_SALT);
        let mut sites = Vec::new();
        {
            let _s = profile.scope("site_pool");
            for (m, module) in case.modules().iter().enumerate() {
                let mut candidates: Vec<NetId> = module
                    .iter()
                    .filter(|(_, g)| {
                        !matches!(
                            g.kind,
                            GateKind::Input | GateKind::Const0 | GateKind::Const1
                        )
                    })
                    .map(|(id, _)| id)
                    .collect();
                pool_rng.shuffle(&mut candidates);
                for &net in candidates.iter().take(config.sites_per_module) {
                    sites.push(DefectSite {
                        module: m,
                        net,
                        value: pool_rng.gen_bool(0.5),
                        detectable: false,
                    });
                }
            }
        }

        // Per-site faulty signatures under every rung, and detectability.
        let mut faulty = Vec::with_capacity(sites.len());
        {
            let _s = profile.scope("faulty_signatures");
            for site in &mut sites {
                let mut defective = case.clone();
                defective
                    .module_mut(site.module)
                    .force_constant(site.net, site.value);
                let mut per_strategy = Vec::with_capacity(strategies.len());
                for (s, &strategy) in strategies.iter().enumerate() {
                    let (variant, seed) = strategy.engine_knobs();
                    let engine = defective.engine_variant(variant, seed)?;
                    let mut rehearsal = WrappedCore::with_engine(&defective, engine)?;
                    let sigs = rehearsal.rehearse(config.patterns)?;
                    let sig = sigs.get(site.module).copied().unwrap_or(0);
                    let golden = goldens[s].get(site.module).copied().unwrap_or(0);
                    per_strategy.push(sig);
                    if s == 0 {
                        site.detectable = sig != golden;
                    } else {
                        site.detectable = site.detectable && sig != golden;
                    }
                }
                faulty.push(per_strategy);
            }
            profile.count("sites", sites.len() as u64);
        }
        if config.detectable_only {
            let keep: Vec<bool> = sites.iter().map(|s| s.detectable).collect();
            let mut it = keep.iter();
            sites.retain(|_| *it.next().unwrap_or(&false));
            let mut it = keep.iter();
            faulty.retain(|_| *it.next().unwrap_or(&false));
        }

        let sampler = DefectSampler::new(config.mix, sites.len(), config.transient_periods.clone());
        // The drifted sampler draws from the same site pool and period
        // list, so only the mix (rate and class weights) steps.
        let drift = config.inject_drift.map(|d| {
            (
                d.batch * config.effective_batch(),
                DefectSampler::new(d.mix, sites.len(), config.transient_periods.clone()),
            )
        });

        // The deterministic TCK bill of a hung die: replicate exactly what
        // a session spends before its done-watchdog fires.
        let hung_tck = {
            let _s = profile.scope("hung_probe");
            let hung_core = ReplayCore::new(counter_bits, goldens[0].clone(), misr_width, true);
            let mut probe = TapDriver::new(hung_core);
            probe.reset();
            probe.bist_load_pattern_count(config.patterns);
            probe.bist_start();
            let _ = probe.wait_for_done(config.budget.burst, config.budget.max_bursts);
            probe.tck()
        };
        drop(build_scope);

        Ok(Fleet {
            config,
            strategies,
            module_names,
            goldens,
            sites,
            faulty,
            sampler,
            drift,
            misr_width,
            counter_bits,
            hung_tck,
            profile,
            sampling: None,
            trace_capacity: TRACE_RING_DEFAULT,
            monitor: None,
        })
    }

    /// Arms per-die trace sampling for subsequent [`Fleet::run`]s: dies
    /// selected by `policy` run their session under a bounded
    /// [`Tracer`] ring of `capacity` records (`0` =
    /// [`TRACE_RING_DEFAULT`]) and land in [`FleetOutcome::traces`].
    /// Sampling never changes any [`DieRecord`].
    pub fn with_trace_sampling(mut self, policy: SamplerPolicy, capacity: usize) -> Self {
        self.sampling = policy.is_active().then_some(policy);
        if capacity > 0 {
            self.trace_capacity = capacity;
        }
        self
    }

    /// The profiler handle the fleet reports into (disabled unless built
    /// via [`Fleet::new_profiled`]).
    pub fn profile(&self) -> &ProfileHandle {
        &self.profile
    }

    /// The campaign configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The stuck-at site pool (indexed by [`DefectProfile::StuckAt`]).
    pub fn sites(&self) -> &[DefectSite] {
        &self.sites
    }

    /// Module names, in module order.
    pub fn module_names(&self) -> &[String] {
        &self.module_names
    }

    /// The retry ladder fleet sessions run under.
    pub fn strategies(&self) -> &[RetryStrategy] {
        &self.strategies
    }

    fn die_rng(seed: u64, die: u64) -> SplitMix64 {
        SplitMix64::new(seed ^ (die + 1).wrapping_mul(DIE_STREAM))
    }

    /// Arms the health monitor for subsequent [`Fleet::run`]s: after
    /// aggregation, [`health::score_batches`] scores the report's batches,
    /// and the resulting [`HealthReport`] rides in
    /// [`FleetOutcome::health`]. Monitoring never changes any
    /// [`DieRecord`] or the [`FleetReport`] JSON.
    pub fn with_monitor(mut self, cfg: HealthConfig) -> Self {
        self.monitor = Some(cfg);
        self
    }

    /// The defect profile die `die` draws — a pure function of
    /// `(config.seed, die, config.inject_drift)`. The drifted sampler
    /// takes over from its first affected die onward; the per-die RNG
    /// stream is unchanged, so the drift alters only the draw mapping.
    pub fn profile_of(&self, die: u64) -> DefectProfile {
        let mut rng = Self::die_rng(self.config.seed, die);
        match &self.drift {
            Some((from, drifted)) if die >= *from => drifted.sample(&mut rng),
            _ => self.sampler.sample(&mut rng),
        }
    }

    fn strategy_index(&self, strategy: RetryStrategy) -> usize {
        self.strategies
            .iter()
            .position(|&s| s == strategy)
            .unwrap_or(0)
    }

    /// Runs one die's complete robust session against the shared cache and
    /// returns its deterministic record. Takes `&self`: safe to call from
    /// any number of threads concurrently.
    pub fn simulate_die(&self, die: u64) -> DieRecord {
        self.simulate_die_traced(die, &TraceHandle::none())
    }

    /// [`Fleet::simulate_die`] with the session's trace recorded into
    /// `trace`, which never changes the returned record.
    fn simulate_die_traced(&self, die: u64, trace: &TraceHandle) -> DieRecord {
        let profile = self.profile_of(die);
        let mut session = RobustSession::new(self.config.budget);
        if trace.is_enabled() {
            session = session.with_trace(trace.clone());
        }
        if let DefectProfile::Transient { period } = profile {
            session = session.with_pin_faults(PinFaults {
                tdo: Some(PinFault::FlipEvery(period)),
                ..PinFaults::none()
            });
        }
        let result = session.run_with(&self.module_names, self.config.patterns, |strategy| {
            let s = self.strategy_index(strategy);
            let mut finals = self.goldens[s].clone();
            let mut hang = false;
            match profile {
                DefectProfile::StuckAt { site } => {
                    if let (Some(st), Some(sigs)) = (self.sites.get(site), self.faulty.get(site)) {
                        if let Some(slot) = finals.get_mut(st.module) {
                            *slot = sigs.get(s).copied().unwrap_or(0);
                        }
                    }
                }
                DefectProfile::Hung => hang = true,
                _ => {}
            }
            Ok((
                self.goldens[s].clone(),
                ReplayCore::new(self.counter_bits, finals, self.misr_width, hang),
            ))
        });
        let verdict = verdict_of(&result);
        let tck = match (&result, verdict) {
            (Ok(report), _) => report.tck_spent,
            (_, DieVerdict::Hung) => self.hung_tck,
            _ => 0,
        };
        DieRecord {
            die,
            profile,
            verdict,
            tck,
        }
    }

    /// Runs one chunk of dies, capturing sampled traces and the chunk's
    /// wall time.
    fn run_chunk(&self, (lo, hi): (u64, u64), plan: Option<&TraceSampler>) -> ChunkOut {
        let t0 = Instant::now();
        let mut records = Vec::with_capacity((hi - lo) as usize);
        let mut traces = Vec::new();
        for die in lo..hi {
            if plan.is_some_and(|p| p.is_sampled(die)) {
                let trace = TraceHandle::new(Tracer::new(self.trace_capacity));
                let rec = self.simulate_die_traced(die, &trace);
                let (tail, total, dropped) = trace
                    .with(|t| (t.records().copied().collect(), t.total(), t.dropped()))
                    .unwrap_or_default();
                traces.push(DieTrace {
                    die,
                    class: rec.profile.class(),
                    verdict: rec.verdict,
                    records: total,
                    dropped,
                    tail,
                });
                records.push(rec);
            } else {
                records.push(self.simulate_die(die));
            }
        }
        ChunkOut {
            lo,
            records,
            traces,
            wall_ns: t0.elapsed().as_nanos() as u64,
        }
    }

    /// Runs the whole campaign: every die in `0..config.dies`, fanned out
    /// over the worker pool, reassembled in die order, and aggregated.
    pub fn run(&self) -> FleetOutcome {
        let start = Instant::now();
        let dies = self.config.dies;
        let workers = if self.config.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.config.workers
        }
        .min(dies.max(1) as usize)
        .max(1);

        // The sampling plan is precomputed from the pure per-die defect
        // draw, so it is identical for any worker count or schedule.
        let plan = self.sampling.map(|policy| {
            let _s = self.profile.scope("trace_plan");
            TraceSampler::plan(
                policy,
                (0..dies).map(|d| (d, self.profile_of(d).class().name())),
            )
        });

        // Chunked execution on 1..N workers: a shared atomic cursor hands
        // out die ranges of at most CHUNK dies that never straddle a report
        // batch, so each chunk's wall belongs to exactly one batch; chunks
        // are reassembled by index so records, traces, and profile
        // fingerprints are identical for any worker count.
        const CHUNK: u64 = 256;
        let batch_size = self.config.effective_batch();
        let ranges: Vec<(u64, u64)> = (0..dies)
            .step_by(batch_size as usize)
            .flat_map(|b| {
                let end = b.saturating_add(batch_size).min(dies);
                (b..end)
                    .step_by(CHUNK as usize)
                    .map(move |lo| (lo, (lo + CHUNK).min(end)))
            })
            .collect();
        let simulate_scope = self.profile.scope("simulate");
        let mut chunks: Vec<ChunkOut> = if workers <= 1 {
            ranges
                .iter()
                .map(|&range| self.run_chunk(range, plan.as_ref()))
                .collect()
        } else {
            let cursor = AtomicUsize::new(0);
            let done: Mutex<Vec<ChunkOut>> = Mutex::new(Vec::with_capacity(ranges.len()));
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let plan = plan.as_ref();
                    let (cursor, done, ranges) = (&cursor, &done, &ranges);
                    scope.spawn(move || {
                        while let Some(&range) = ranges.get(cursor.fetch_add(1, Ordering::Relaxed))
                        {
                            let out = self.run_chunk(range, plan);
                            if let Ok(mut guard) = done.lock() {
                                guard.push(out);
                            }
                        }
                    });
                }
            });
            match done.into_inner() {
                Ok(v) => v,
                Err(poison) => poison.into_inner(),
            }
        };
        chunks.sort_by_key(|c| c.lo);

        // One profiler entry per chunk, recorded here on the owning thread
        // in chunk order, and each chunk's wall charged to its batch.
        let nbatches = dies.div_ceil(batch_size).max(1);
        let mut batch_walls: Vec<BatchWall> = (0..nbatches)
            .map(|b| BatchWall {
                batch: b,
                dies: 0,
                wall_ns: 0,
            })
            .collect();
        let mut records: Vec<DieRecord> = Vec::with_capacity(dies as usize);
        let mut traces: Vec<DieTrace> = Vec::new();
        for chunk in chunks {
            self.profile.with(|p| {
                p.record_ns("chunk", chunk.wall_ns);
                p.count("dies", chunk.records.len() as u64);
                p.count("tck", chunk.records.iter().map(|r| r.tck).sum());
            });
            let bw = &mut batch_walls[(chunk.lo / batch_size) as usize];
            bw.dies += chunk.records.len() as u64;
            bw.wall_ns += chunk.wall_ns;
            records.extend(chunk.records);
            traces.extend(chunk.traces);
        }
        drop(simulate_scope);

        let report = {
            let _s = self.profile.scope("aggregate");
            let elapsed_ns = (start.elapsed().as_nanos() as u64).max(1);
            self.summarize(&records, elapsed_ns)
        };

        // The health monitor scores the report's batches — a pure
        // function of the die records, so its report is byte-identical for
        // any worker count.
        let health = self.monitor.as_ref().map(|cfg| {
            let _s = self.profile.scope("health_monitor");
            health::score_batches(&report.batches, cfg, &self.module_names)
        });
        FleetOutcome {
            report,
            dies: records,
            traces,
            batch_walls,
            health,
        }
    }

    /// Aggregates die records into a [`FleetReport`]. Public so callers
    /// that drove [`Fleet::simulate_die`] themselves (tests, samplers) can
    /// reuse the exact aggregation.
    pub fn summarize(&self, records: &[DieRecord], elapsed_ns: u64) -> FleetReport {
        let mut classes: Vec<ClassStats> = DefectClass::ALL
            .iter()
            .map(|&class| ClassStats {
                class,
                sampled: 0,
                passed: 0,
                quarantined: 0,
                hung: 0,
                protocol: 0,
            })
            .collect();
        let mut quarantine_by_module: Vec<(String, u64)> =
            self.module_names.iter().map(|n| (n.clone(), 0)).collect();
        let mut tcks: Vec<u64> = Vec::with_capacity(records.len());

        let batch_size = self.config.effective_batch();
        let nbatches = (records.len() as u64).div_ceil(batch_size).max(1);
        let mut batches: Vec<BatchSummary> = (0..nbatches).map(BatchSummary::empty).collect();

        for rec in records {
            let ci = rec.profile.class().index();
            classes[ci].sampled += 1;
            match rec.verdict {
                DieVerdict::Passed => classes[ci].passed += 1,
                DieVerdict::Quarantined { .. } => classes[ci].quarantined += 1,
                DieVerdict::Hung => classes[ci].hung += 1,
                DieVerdict::Protocol => classes[ci].protocol += 1,
            }
            let bi = ((rec.die / batch_size) as usize).min(batches.len() - 1);
            batches[bi].absorb(rec);
            if rec.verdict != DieVerdict::Protocol {
                tcks.push(rec.tck);
            }
        }

        // Population totals are exactly the batch sums — one accumulation
        // rule (BatchSummary::absorb) feeds both views.
        let sum = |f: fn(&BatchSummary) -> u64| batches.iter().map(f).sum::<u64>();
        let (passed, quarantined) = (sum(|b| b.passed), sum(|b| b.quarantined));
        let (hung, protocol) = (sum(|b| b.hung), sum(|b| b.protocol));
        let (escapes, overkill) = (sum(|b| b.escapes), sum(|b| b.overkill));
        let recovered = sum(|b| b.recovered);
        for b in &batches {
            for (m, slot) in quarantine_by_module.iter_mut().enumerate() {
                slot.1 += b.quarantine[m];
            }
        }

        FleetReport {
            dies: records.len() as u64,
            seed: self.config.seed,
            patterns: self.config.patterns,
            defect_rate: self.config.mix.defect_rate,
            classes,
            passed,
            quarantined,
            hung,
            protocol,
            escapes,
            overkill,
            recovered,
            quarantine_by_module,
            tck: Percentiles::from_samples(tcks),
            elapsed_ns,
            batch_size,
            batches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_core_matches_wrapped_core_timing() {
        let case = CaseStudy::paper().unwrap();
        let goldens = case.golden_signatures(64).unwrap();
        // Gate-level session.
        let real = WrappedCore::new(&case).unwrap();
        let mut a = TapDriver::new(real);
        a.reset();
        a.bist_load_pattern_count(64);
        a.bist_start();
        let wa = a.wait_for_done(16, 20).unwrap();
        // Replay session over the same protocol.
        let replay = ReplayCore::new(
            case.spec().counter_bits,
            goldens.clone(),
            case.spec().misr_width,
            false,
        );
        let mut b = TapDriver::new(replay);
        b.reset();
        b.bist_load_pattern_count(64);
        b.bist_start();
        let wb = b.wait_for_done(16, 20).unwrap();
        assert_eq!(wa.cycles_waited, wb.cycles_waited, "identical done timing");
        assert_eq!(a.tck(), b.tck(), "identical TCK schedule");
        for (m, &gold) in goldens.iter().enumerate() {
            a.bist_select_result(m as u8);
            b.bist_select_result(m as u8);
            let (da, sa) = a.read_status();
            let (db, sb) = b.read_status();
            assert!(da && db);
            assert_eq!(sa, gold);
            assert_eq!(sb, gold, "replay presents the cached signature");
        }
    }

    #[test]
    fn hung_replay_core_never_finishes() {
        let mut core = ReplayCore::new(12, vec![1, 2, 3], 16, true);
        core.command(BistCommand::LoadPatternCount(4));
        core.command(BistCommand::Start);
        for _ in 0..100 {
            core.functional_clock();
        }
        assert!(!core.end_test());
        assert_eq!(core.selected_signature(), 0);
    }

    #[test]
    fn sampler_extremes_are_exact() {
        let clean_only = DefectSampler::new(
            DefectMix {
                defect_rate: 0.0,
                ..DefectMix::default()
            },
            8,
            vec![101],
        );
        let all_defective = DefectSampler::new(
            DefectMix {
                defect_rate: 1.0,
                ..DefectMix::default()
            },
            8,
            vec![101],
        );
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            assert_eq!(clean_only.sample(&mut rng), DefectProfile::Clean);
            assert_ne!(all_defective.sample(&mut rng), DefectProfile::Clean);
        }
    }

    #[test]
    fn empty_pools_forfeit_their_weight() {
        let s = DefectSampler::new(
            DefectMix {
                defect_rate: 1.0,
                stuck_at_weight: 100,
                transient_weight: 100,
                hung_weight: 1,
            },
            0,
            Vec::new(),
        );
        let mut rng = SplitMix64::new(3);
        for _ in 0..100 {
            assert_eq!(s.sample(&mut rng), DefectProfile::Hung);
        }
    }

    #[test]
    fn small_fleet_is_deterministic_and_plausible() {
        let case = CaseStudy::paper().unwrap();
        let mut cfg = FleetConfig::new(300, 42);
        cfg.workers = 1;
        let fleet = Fleet::new(&case, cfg).unwrap();
        let a = fleet.run();
        let b = fleet.run();
        assert_eq!(a.report.to_json(), b.report.to_json());
        assert_eq!(a.dies, b.dies);
        assert_eq!(a.report.dies, 300);
        // At a 5% defect rate most dies pass.
        assert!(a.report.passed > 250, "passed = {}", a.report.passed);
        assert!(a.report.tck.p50 > 0);
        assert!(!a.report.batches.is_empty());
    }

    #[test]
    fn percentiles_nearest_rank() {
        let p = Percentiles::from_samples((1..=100).collect());
        assert_eq!(p.p50, 50);
        assert_eq!(p.p95, 95);
        assert_eq!(p.p99, 99);
        let single = Percentiles::from_samples(vec![7]);
        assert_eq!((single.p50, single.p95, single.p99), (7, 7, 7));
        let empty = Percentiles::from_samples(Vec::new());
        assert_eq!(empty.p50, 0);
    }
}
