//! Sequential fault simulation: a word pass in front of a 64-lane engine.
//!
//! All faulty machines receive the same per-cycle stimulus — exactly the
//! situation of a BIST run, where the pattern generator feeds every module
//! one pattern per clock. Simulation proceeds in *windows* of at most 64
//! cycles on the compiled netlist kernel (see `seqkernel`). Per window:
//!
//! 1. The good machine's trajectory is computed **once**, as one word per
//!    net (bit `r` is cycle `window_start + r`), together with the MISR
//!    signatures at read boundaries and the next flip-flop state.
//! 2. The **word pass** takes every fault whose flip-flops match the good
//!    machine at window start and simulates it alone over all the
//!    window's cycles in one sweep of its deviation word. It *settles* the
//!    fault — detected, or carried to the next window — whenever no
//!    flip-flop deviates early enough to make the sweep inexact, and hands
//!    it back otherwise. Random BIST patterns leave most live faults
//!    without a flip-flop deviation in most windows, so this is the common
//!    route.
//! 3. The **lane engine** takes the rest — handed-back faults and faults
//!    that start the window with deviated flip-flops — packed 64 to a
//!    word, one fault per lane, cycle by cycle.
//!
//! Both passes shard across a scoped worker pool ([`ParallelPolicy`]);
//! detections and syndrome events are merged in shard order and each
//! fault takes exactly one route per window, which makes a `threads: N`
//! run bit-identical to `threads: 1`. The lane-engine faults are packed
//! across the whole window, so the chunk count does not depend on the
//! worker count either. After each window, detected faults are dropped;
//! survivors carry their flip-flop state, their MISR state, and the
//! previous value of their fault site for transition faults.
//! [`FaultSimStats`] counts both routes.

use std::time::Instant;

use soctest_netlist::{NetId, NetlistError};

use crate::par::map_shards;
use crate::seqkernel::KernelEngine;
use crate::stimulus::StimulusMatrix;
use crate::universe::Site;
use crate::{
    Fault, FaultKind, FaultSimResult, FaultSimStats, FaultUniverse, ParallelPolicy, SeqStimulus,
    Syndrome,
};

/// The longest window: the good trace holds one 64-bit word per net.
const MAX_WINDOW: u64 = 64;

/// How fault effects are observed.
#[derive(Debug, Clone)]
pub enum ObserveMode {
    /// Compare the universe's observation nets (default: primary outputs)
    /// to the good machine every cycle — the ideal "fault simulator tool"
    /// view used for the paper's coverage figures.
    Outputs,
    /// Compact the observation nets into a multiple-input signature
    /// register and compare *signatures* at read boundaries only. This
    /// models the BIST Result Collector, including aliasing.
    Misr {
        /// Signature register width in bits, 2..=64; [`SeqFaultSim::run`]
        /// rejects any other width.
        width: usize,
        /// Feedback taps: bit *j* set feeds the last stage back into stage
        /// *j*. Bit 0 must be set.
        taps: u64,
        /// Read (and compare) the signature every this many cycles; a final
        /// read always happens on the last cycle.
        read_every: u64,
    },
}

impl ObserveMode {
    /// A MISR observation with the workspace's default primitive-style tap
    /// set, mirroring the 16-bit MISRs of the case study. Kept identical to
    /// `soctest_bist::Misr::default_taps` across the full 2..=64 range.
    pub fn misr_default(width: usize, read_every: u64) -> Self {
        assert!((2..=64).contains(&width), "MISR width must be in 2..=64");
        // `1u64 << 64` is a shift overflow, so width 64 takes the full mask
        // explicitly instead of computing `(1 << width) - 1`.
        let mask = match width {
            64.. => u64::MAX,
            w => (1u64 << w) - 1,
        };
        let taps = (0b101_1011u64 | 1) & mask.max(1);
        ObserveMode::Misr {
            width,
            taps,
            read_every,
        }
    }
}

/// Configuration for [`SeqFaultSim`].
#[derive(Debug, Clone)]
pub struct SeqFaultSimConfig {
    /// Window length in cycles between fault-dropping points. Clamped to
    /// 1..=64: the good trace holds one 64-bit word per net. The window
    /// changes no result, only how often faults are dropped and which
    /// faults the word pass can settle.
    pub window: u64,
    /// Observation mode.
    pub observe: ObserveMode,
    /// Collect per-fault syndromes for diagnosis. Implies simulating every
    /// fault over the full test (no dropping), which is slower.
    pub collect_syndromes: bool,
    /// Worker-thread policy for both passes of every window.
    pub parallel: ParallelPolicy,
}

impl Default for SeqFaultSimConfig {
    fn default() -> Self {
        SeqFaultSimConfig {
            window: MAX_WINDOW,
            observe: ObserveMode::Outputs,
            collect_syndromes: false,
            parallel: ParallelPolicy::default(),
        }
    }
}

/// The sequential fault simulator (see the [module docs](self)).
///
/// See the [crate example](crate) for usage.
#[derive(Debug)]
pub struct SeqFaultSim<'a> {
    universe: &'a FaultUniverse,
    config: SeqFaultSimConfig,
}

#[derive(Debug, Clone)]
pub(crate) struct ActiveFault {
    pub(crate) idx: usize,
    /// Packed state: flip-flop bits, then the fault site's previous value
    /// (for transition faults), then MISR stage bits.
    pub(crate) state: Vec<u64>,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct InjEntry {
    pub(crate) lane: u8,
    pub(crate) kind: FaultKind,
    pub(crate) prev: bool,
}

/// The good machine's trajectory over one window, computed once and shared
/// (read-only) by both passes.
pub(crate) struct GoodTrace {
    /// The good value of every net over the window, one word per net: bit
    /// `r` of `cols[n]` is net `n` at cycle `window_start + r`. Bits at
    /// and above the window length are unspecified. Both passes overlay
    /// XOR deviations on these words, so every net a deviation sweep never
    /// touches provably holds the good value.
    pub(crate) cols: Vec<u64>,
    /// Good MISR signature at each read boundary inside the window, in
    /// boundary order, as `(cycle, read_idx, signature)`. Read indices are
    /// assigned by a monotone counter — the single source of truth for the
    /// read schedule that both passes replay.
    pub(crate) sigs: Vec<(u64, u64, u64)>,
    /// Good flip-flop + MISR state at window end (packed like
    /// `ActiveFault::state`).
    pub(crate) next_state: Vec<u64>,
}

/// Detections and syndrome events of one unit of work, merged serially in
/// shard order.
#[derive(Default)]
pub(crate) struct ChunkOut {
    /// `(fault index, first in-window detection cycle)`.
    pub(crate) detections: Vec<(usize, u64)>,
    /// `(fault index, when, what)` syndrome events in generation order.
    pub(crate) events: Vec<(usize, u64, u64)>,
}

/// Read-only context shared by the good pass and both fault passes.
pub(crate) struct WindowCtx<'b> {
    pub(crate) obs: &'b [NetId],
    pub(crate) stim: &'b StimulusMatrix,
    pub(crate) faults: &'b [Fault],
    /// Where each fault enters the kernel, aligned with `faults`.
    pub(crate) sites: &'b [Site],
    pub(crate) misr_width: usize,
    pub(crate) misr_taps: u64,
    pub(crate) misr_read: u64,
    pub(crate) total_cycles: u64,
    pub(crate) ndff: usize,
    pub(crate) collect: bool,
}

/// Overlays a net's 64-lane word with every fault injected at that net.
/// Transition faults remember the site's previous-cycle value in `prev`.
pub(crate) fn apply(w: u64, entries: &mut [InjEntry], first_ever: bool) -> u64 {
    let mut out = w;
    for e in entries.iter_mut() {
        let m = 1u64 << e.lane;
        match e.kind {
            FaultKind::Sa0 => out &= !m,
            FaultKind::Sa1 => out |= m,
            FaultKind::SlowToRise | FaultKind::SlowToFall => {
                let cur = (out >> e.lane) & 1 == 1;
                let faulty = if first_ever {
                    cur
                } else if e.kind == FaultKind::SlowToRise {
                    cur && e.prev
                } else {
                    cur || e.prev
                };
                if faulty {
                    out |= m;
                } else {
                    out &= !m;
                }
                e.prev = faulty;
            }
        }
    }
    out
}

pub(crate) fn get_bit(state: &[u64], j: usize) -> bool {
    (state[j / 64] >> (j % 64)) & 1 == 1
}

pub(crate) fn set_bit(state: &mut [u64], j: usize, v: bool) {
    if v {
        state[j / 64] |= 1u64 << (j % 64);
    } else {
        state[j / 64] &= !(1u64 << (j % 64));
    }
}

impl<'a> SeqFaultSim<'a> {
    /// Creates a simulator over a fault universe.
    pub fn new(universe: &'a FaultUniverse, config: SeqFaultSimConfig) -> Self {
        SeqFaultSim { universe, config }
    }

    /// Runs the whole campaign over the given stimulus.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnsupportedWidth`] for a MISR observation
    /// whose width is outside 2..=64, [`NetlistError::CombinationalCycle`]
    /// if the fault view cannot be levelized (it can always be levelized
    /// if the original could), and [`NetlistError::WorkerPanicked`] if a
    /// worker thread panicked.
    pub fn run(&self, stimulus: &mut dyn SeqStimulus) -> Result<FaultSimResult, NetlistError> {
        let start = Instant::now();
        let (misr_width, misr_taps, misr_read) = match self.config.observe {
            ObserveMode::Misr {
                width,
                taps,
                read_every,
            } => {
                if !(2..=64).contains(&width) {
                    return Err(NetlistError::UnsupportedWidth {
                        block: "MISR observation",
                        width,
                    });
                }
                (width, taps, read_every.max(1))
            }
            ObserveMode::Outputs => (0, 0, 0),
        };
        let kernel = self.universe.kernel()?;
        let stim = StimulusMatrix::materialize(stimulus, kernel.pis().len());
        let sites = self.universe.sites(&kernel);
        let ctx = WindowCtx {
            obs: self.universe.observe_nets(),
            stim: &stim,
            faults: self.universe.faults(),
            sites: &sites,
            misr_width,
            misr_taps,
            misr_read,
            total_cycles: stim.cycles,
            ndff: kernel.dff_q().len(),
            collect: self.config.collect_syndromes,
        };
        let window = self.config.window.clamp(1, MAX_WINDOW);
        let engine = KernelEngine::new(kernel, ctx.obs);
        self.run_windows(&ctx, &engine, window, start)
    }

    /// The window loop: good pass, word pass, lane engine over what the
    /// word pass left, a deterministic merge, and fault dropping.
    fn run_windows(
        &self,
        ctx: &WindowCtx<'_>,
        engine: &KernelEngine,
        window: u64,
        start: Instant,
    ) -> Result<FaultSimResult, NetlistError> {
        let faults = ctx.faults;
        let nstate = ctx.ndff + 1 + ctx.misr_width; // +1: previous-value bit
        let state_words = nstate.div_ceil(64).max(1);
        let cycles = ctx.total_cycles;

        let mut detection: Vec<Option<u64>> = vec![None; faults.len()];
        let mut syndromes: Vec<Syndrome> = if self.config.collect_syndromes {
            vec![Syndrome::new(); faults.len()]
        } else {
            Vec::new()
        };

        let mut active: Vec<ActiveFault> = (0..faults.len())
            .map(|idx| ActiveFault {
                idx,
                state: vec![0u64; state_words],
            })
            .collect();
        let mut good_state = vec![0u64; state_words];

        // Clamp the worker count to the campaign's 64-fault chunk count up
        // front: a 1-core host (or a tiny universe) resolves to 1 and takes
        // the exact serial path — no scoped pool, no extra scratchpads —
        // instead of paying worker-pool overhead for nothing.
        let nthreads = self.config.parallel.workers_for(faults.len().div_ceil(64));
        let mut stats = FaultSimStats {
            threads: nthreads,
            folded_branch_faults: Site::count_pins(ctx.sites),
            ..FaultSimStats::default()
        };

        // Per-worker scratchpads and the good trace, hoisted across windows.
        let mut scratches: Vec<_> = (0..nthreads).map(|_| engine.new_scratch(ctx)).collect();
        let mut trace = engine.new_trace(state_words);
        let mut lane_pos: Vec<usize> = Vec::new();

        let mut window_start = 0u64;
        while window_start < cycles && !active.is_empty() {
            let wlen = window.min(cycles - window_start);
            engine.good_window(ctx, &good_state, window_start, wlen, &mut trace);
            stats.good_cycles += wlen;

            let good: &[u64] = &good_state;
            let trace_ref = &trace;
            let words = map_shards(&mut active, &mut scratches, |offset, shard, scratch| {
                engine.word_pass(
                    ctx,
                    shard,
                    offset,
                    good,
                    trace_ref,
                    window_start,
                    wlen,
                    scratch,
                )
            })?;
            let mut outs = Vec::with_capacity(words.len());
            lane_pos.clear();
            for w in words {
                stats.settled_fault_windows += w.settled;
                stats.handed_back_fault_windows += w.handed_back;
                lane_pos.extend(w.lane);
                outs.push(w.out);
            }
            // Partition in place: the lane engine's faults move to the
            // front, in active-list order (positions ascend, and each slot
            // before `pos` already holds a fault of the other route).
            for (slot, &pos) in lane_pos.iter().enumerate() {
                active.swap(slot, pos);
            }
            let mut chunks: Vec<&mut [ActiveFault]> =
                active[..lane_pos.len()].chunks_mut(64).collect();
            stats.faulty_cycles += wlen * chunks.len() as u64;
            let lanes = map_shards(&mut chunks, &mut scratches, |_, group, scratch| {
                group
                    .iter_mut()
                    .map(|chunk| {
                        engine.run_chunk(ctx, chunk, good, trace_ref, window_start, wlen, scratch)
                    })
                    .collect::<Vec<_>>()
            })?;
            outs.extend(lanes.into_iter().flatten());

            // Deterministic merge in shard order; each fault took exactly
            // one route this window, so per-fault event order is the
            // serial order.
            for out in outs {
                for (idx, t) in out.detections {
                    if detection[idx].is_none() {
                        detection[idx] = Some(t);
                    }
                }
                for (idx, when, what) in out.events {
                    syndromes[idx].record(when, what);
                }
            }

            good_state.copy_from_slice(&trace.next_state);
            if !self.config.collect_syndromes {
                active.retain(|af| detection[af.idx].is_none());
            }
            let survivors = detection.iter().filter(|d| d.is_none()).count();
            stats.windows += 1;
            stats.survivors.push(survivors);
            window_start += wlen;
        }

        stats.wall = start.elapsed();
        Ok(FaultSimResult {
            detection,
            cycles,
            wall: stats.wall,
            syndromes: if self.config.collect_syndromes {
                Some(syndromes)
            } else {
                None
            },
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VectorStimulus;
    use soctest_netlist::{ModuleBuilder, Netlist};

    /// Combinational XOR/AND block behind a register.
    fn small_seq() -> Netlist {
        let mut mb = ModuleBuilder::new("blk");
        let a = mb.input_bus("a", 4);
        let x0 = mb.xor(a[0], a[1]);
        let x1 = mb.and(a[2], a[3]);
        let o = mb.or(x0, x1);
        let q = mb.register(&[x0, x1, o]);
        mb.output_bus("q", &q);
        mb.finish().unwrap()
    }

    /// A chain of XOR/AND/OR gates over four inputs, each stage
    /// registered: enough faults for three or more 64-fault chunks.
    fn wide_seq() -> Netlist {
        let mut mb = ModuleBuilder::new("wide");
        let a = mb.input_bus("a", 4);
        let mut stages = Vec::new();
        let mut prev = a[0];
        for i in 0..36 {
            let other = a[(i + 1) % 4];
            prev = match i % 3 {
                0 => mb.xor(prev, other),
                1 => mb.and(prev, other),
                _ => mb.or(prev, other),
            };
            stages.push(prev);
        }
        let q = mb.register(&stages);
        mb.output_bus("q", &q);
        mb.finish().unwrap()
    }

    fn exhaustive_patterns(width: u32, repeats: usize) -> Vec<u64> {
        let mut v: Vec<u64> = (0..(1u64 << width)).collect();
        for _ in 0..repeats {
            v.extend(0..(1u64 << width));
        }
        v
    }

    #[test]
    fn exhaustive_patterns_reach_full_stuck_at_coverage() {
        let nl = small_seq();
        let u = FaultUniverse::stuck_at(&nl);
        let mut stim = VectorStimulus::new(exhaustive_patterns(4, 1));
        let sim = SeqFaultSim::new(&u, SeqFaultSimConfig::default());
        let r = sim.run(&mut stim).unwrap();
        assert_eq!(
            r.coverage_percent(),
            100.0,
            "undetected: {:?}",
            r.undetected()
                .iter()
                .map(|&i| u.describe(i))
                .collect::<Vec<_>>()
        );
        assert!(r.stats.windows >= 1);
        assert_eq!(r.stats.good_cycles, r.cycles);
        assert_eq!(r.stats.survivors.last(), Some(&0));
    }

    #[test]
    fn transition_faults_need_pattern_pairs() {
        let nl = small_seq();
        let u = FaultUniverse::transition(&nl);
        // Repeating the exhaustive sweep provides launch/capture pairs.
        let mut stim = VectorStimulus::new(exhaustive_patterns(4, 3));
        let sim = SeqFaultSim::new(&u, SeqFaultSimConfig::default());
        let r = sim.run(&mut stim).unwrap();
        assert!(
            r.coverage_percent() > 90.0,
            "got {:.1}%",
            r.coverage_percent()
        );
    }

    #[test]
    fn single_constant_pattern_detects_little() {
        let nl = small_seq();
        let u = FaultUniverse::stuck_at(&nl);
        let mut stim = VectorStimulus::new(vec![0u64; 16]);
        let sim = SeqFaultSim::new(&u, SeqFaultSimConfig::default());
        let r = sim.run(&mut stim).unwrap();
        assert!(r.coverage_percent() < 60.0);
    }

    #[test]
    fn small_window_matches_large_window() {
        let nl = small_seq();
        let u = FaultUniverse::stuck_at(&nl);
        let run = |window| {
            let mut stim = VectorStimulus::new(exhaustive_patterns(4, 1));
            let sim = SeqFaultSim::new(
                &u,
                SeqFaultSimConfig {
                    window,
                    ..Default::default()
                },
            );
            sim.run(&mut stim).unwrap().detection
        };
        assert_eq!(run(4), run(1024), "windowing must not change results");
    }

    #[test]
    fn misr_observation_detects_with_aliasing_bound() {
        let nl = small_seq();
        let u = FaultUniverse::stuck_at(&nl);
        let mut stim = VectorStimulus::new(exhaustive_patterns(4, 1));
        let sim = SeqFaultSim::new(
            &u,
            SeqFaultSimConfig {
                observe: ObserveMode::misr_default(16, 8),
                ..Default::default()
            },
        );
        let r = sim.run(&mut stim).unwrap();
        // MISR compaction may alias a fault or two but must stay close to
        // the ideal per-cycle coverage (100% here).
        assert!(
            r.coverage_percent() >= 90.0,
            "got {:.1}%",
            r.coverage_percent()
        );
    }

    #[test]
    fn misr_default_width_64_is_not_degenerate() {
        // Regression: `(1u64 << 64) - 1` overflowed at the documented upper
        // width bound; the taps must match the narrower widths.
        match ObserveMode::misr_default(64, 8) {
            ObserveMode::Misr { width, taps, .. } => {
                assert_eq!(width, 64);
                assert_eq!(taps, 0b101_1011);
            }
            other => panic!("unexpected mode {other:?}"),
        }
        let nl = small_seq();
        let u = FaultUniverse::stuck_at(&nl);
        let mut stim = VectorStimulus::new(exhaustive_patterns(4, 1));
        let sim = SeqFaultSim::new(
            &u,
            SeqFaultSimConfig {
                observe: ObserveMode::misr_default(64, 8),
                ..Default::default()
            },
        );
        let r = sim.run(&mut stim).unwrap();
        assert!(
            r.coverage_percent() >= 90.0,
            "got {:.1}%",
            r.coverage_percent()
        );
    }

    #[test]
    fn syndromes_distinguish_most_detected_faults() {
        let nl = small_seq();
        let u = FaultUniverse::stuck_at(&nl);
        let mut stim = VectorStimulus::new(exhaustive_patterns(4, 1));
        let sim = SeqFaultSim::new(
            &u,
            SeqFaultSimConfig {
                collect_syndromes: true,
                ..Default::default()
            },
        );
        let r = sim.run(&mut stim).unwrap();
        let syn = r.syndromes.as_ref().unwrap();
        let m = crate::DiagnosticMatrix::from_syndromes(syn);
        assert_eq!(m.detected(), r.detected_count());
        assert!(m.stats().classes > 1);
        assert!(m.stats().max_size <= m.detected());
    }

    #[test]
    fn detection_cycles_are_recorded_in_order() {
        let nl = small_seq();
        let u = FaultUniverse::stuck_at(&nl);
        let mut stim = VectorStimulus::new(exhaustive_patterns(4, 1));
        let sim = SeqFaultSim::new(&u, SeqFaultSimConfig::default());
        let r = sim.run(&mut stim).unwrap();
        for d in r.detection.iter().flatten() {
            assert!(*d < r.cycles);
        }
        assert!(r.last_useful_cycle().is_some());
    }

    /// Regression for the MISR read-boundary index bug: read indices were
    /// recomputed per window from the window base rather than carried by a
    /// monotone counter, so a window length not divisible by `read_every`
    /// shifted every later read's `read_idx` — and with it the syndrome
    /// stream. Off-boundary totals (13 cycles, `read_every = 5`) leave a
    /// trailing partial read interval that must simply never fire.
    #[test]
    fn misr_reads_survive_off_boundary_windows_and_totals() {
        let nl = small_seq();
        let u = FaultUniverse::stuck_at(&nl);
        let run = |window| {
            let mut stim = VectorStimulus::new(exhaustive_patterns(4, 0)[..13].to_vec());
            let sim = SeqFaultSim::new(
                &u,
                SeqFaultSimConfig {
                    window,
                    observe: ObserveMode::misr_default(16, 5),
                    collect_syndromes: true,
                    ..Default::default()
                },
            );
            sim.run(&mut stim).unwrap()
        };
        let reference = run(1024); // one window covers all 13 cycles
        assert!(reference.detected_count() > 0);
        for window in [3, 4, 5, 7] {
            let r = run(window);
            assert_eq!(r.detection, reference.detection, "window={window}");
            assert_eq!(r.syndromes, reference.syndromes, "window={window}");
        }
    }

    /// Syndrome collection keeps detected faults alive past their first
    /// detection (to record later events); with it off they are dropped.
    /// Either way the first-detection indices must be identical.
    #[test]
    fn first_detection_is_independent_of_syndrome_collection() {
        let nl = small_seq();
        let u = FaultUniverse::stuck_at(&nl);
        for observe in [ObserveMode::Outputs, ObserveMode::misr_default(16, 5)] {
            let run = |collect_syndromes| {
                let mut stim = VectorStimulus::new(exhaustive_patterns(4, 1));
                let sim = SeqFaultSim::new(
                    &u,
                    SeqFaultSimConfig {
                        window: 8,
                        observe: observe.clone(),
                        collect_syndromes,
                        ..Default::default()
                    },
                );
                sim.run(&mut stim).unwrap()
            };
            let with = run(true);
            let without = run(false);
            assert!(with.detected_count() > 0);
            assert_eq!(with.detection, without.detection, "observe={observe:?}");
            assert!(with.syndromes.is_some() && without.syndromes.is_none());
        }
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let nl = wide_seq();
        for universe in [FaultUniverse::stuck_at(&nl), FaultUniverse::transition(&nl)] {
            // Three or more chunks, so every thread count above runs on
            // at least two workers.
            assert!(universe.len() > 128, "{} faults", universe.len());
            for observe in [ObserveMode::Outputs, ObserveMode::misr_default(16, 8)] {
                let run = |threads: usize| {
                    let mut stim = VectorStimulus::new(exhaustive_patterns(4, 2));
                    let sim = SeqFaultSim::new(
                        &universe,
                        SeqFaultSimConfig {
                            window: 8, // several windows and chunks
                            observe: observe.clone(),
                            collect_syndromes: true,
                            parallel: ParallelPolicy::with_threads(threads),
                        },
                    );
                    sim.run(&mut stim).unwrap()
                };
                let serial = run(1);
                assert!(serial.detected_count() > 0);
                for threads in [2, 4] {
                    let par = run(threads);
                    assert!(par.stats.threads >= 2, "threads={threads} ran serially");
                    assert_eq!(par.detection, serial.detection, "threads={threads}");
                    assert_eq!(par.syndromes, serial.syndromes, "threads={threads}");
                    assert_eq!(par.stats.windows, serial.stats.windows);
                    assert_eq!(par.stats.survivors, serial.stats.survivors);
                    assert_eq!(par.stats.good_cycles, serial.stats.good_cycles);
                    assert_eq!(par.stats.faulty_cycles, serial.stats.faulty_cycles);
                    assert_eq!(
                        par.stats.settled_fault_windows,
                        serial.stats.settled_fault_windows
                    );
                    assert_eq!(
                        par.stats.handed_back_fault_windows,
                        serial.stats.handed_back_fault_windows
                    );
                }
            }
        }
    }

    /// `window: 0` used to spin forever without advancing; it now runs as
    /// window 1, and any window past the 64-cycle cap runs as 64.
    #[test]
    fn windows_clamp_to_one_through_sixty_four() {
        let nl = small_seq();
        let u = FaultUniverse::stuck_at(&nl);
        let run = |window| {
            let mut stim = VectorStimulus::new(exhaustive_patterns(4, 8));
            let config = SeqFaultSimConfig {
                window,
                collect_syndromes: true,
                ..Default::default()
            };
            SeqFaultSim::new(&u, config).run(&mut stim).unwrap()
        };
        let (zero, one) = (run(0), run(1));
        assert_eq!(zero.detection, one.detection);
        assert_eq!(zero.syndromes, one.syndromes);
        assert_eq!(zero.stats.windows, 144, "one window per cycle");
        let (huge, cap) = (run(1 << 20), run(64));
        assert_eq!(huge.detection, cap.detection);
        assert_eq!(huge.syndromes, cap.syndromes);
        assert_eq!(huge.stats.windows, 3, "144 cycles in 64-cycle windows");
        assert_eq!(cap.detection, one.detection);
        assert_eq!(SeqFaultSimConfig::default().window, 64);
    }

    /// A MISR narrower than 2 bits used to degenerate into per-cycle
    /// output compares, and one wider than 64 overflowed a shift; both are
    /// typed errors now, before any simulation.
    #[test]
    fn misr_widths_outside_two_to_sixty_four_are_rejected() {
        let nl = small_seq();
        let u = FaultUniverse::stuck_at(&nl);
        for width in [0, 1, 65] {
            let config = SeqFaultSimConfig {
                observe: ObserveMode::Misr {
                    width,
                    taps: 1,
                    read_every: 4,
                },
                ..Default::default()
            };
            let mut stim = VectorStimulus::new(exhaustive_patterns(4, 1));
            assert_eq!(
                SeqFaultSim::new(&u, config).run(&mut stim).unwrap_err(),
                NetlistError::UnsupportedWidth {
                    block: "MISR observation",
                    width
                },
                "width {width}"
            );
        }
    }

    /// A counter XORed into the outputs beside a plain gate: faults on the
    /// gate and the XOR input reach the outputs combinationally, and
    /// faults in the counter deviate its flip-flops. The window decides
    /// which faults the word pass settles — every eligible one at window 1,
    /// fewer at 7 and 64 — so agreement across windows pins the word pass
    /// against the lane engine, in every observation mode.
    #[test]
    fn both_routes_agree_across_windows_on_a_counter_behind_an_output() {
        let mut mb = ModuleBuilder::new("cnt_xor");
        let a = mb.input_bus("a", 4);
        let count = mb.counter(3, a[0], a[1]);
        let mut outs: Vec<NetId> = count.iter().map(|&c| mb.xor(c, a[2])).collect();
        outs.push(mb.and(a[2], a[3]));
        mb.output_bus("y", &outs);
        let nl = mb.finish().unwrap();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let vectors: Vec<u64> = (0..150)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Hold `clr` (bit 1) low three cycles in four so the
                // counter climbs.
                let v = x & 0xF;
                if x >> 8 & 3 == 0 {
                    v
                } else {
                    v & !0b10
                }
            })
            .collect();
        for universe in [FaultUniverse::stuck_at(&nl), FaultUniverse::transition(&nl)] {
            for observe in [ObserveMode::Outputs, ObserveMode::misr_default(4, 5)] {
                for collect_syndromes in [false, true] {
                    let run = |window| {
                        let config = SeqFaultSimConfig {
                            window,
                            observe: observe.clone(),
                            collect_syndromes,
                            ..Default::default()
                        };
                        SeqFaultSim::new(&universe, config)
                            .run(&mut VectorStimulus::new(vectors.clone()))
                            .unwrap()
                    };
                    let what = format!("{observe:?} syndromes={collect_syndromes}");
                    let one = run(1);
                    assert!(one.detected_count() > 0, "{what}");
                    assert!(one.stats.settled_fault_windows > 0, "{what}");
                    assert_eq!(one.stats.handed_back_fault_windows, 0, "{what}");
                    let mut handed_back = 0;
                    for window in [7, 64] {
                        let r = run(window);
                        assert_eq!(r.detection, one.detection, "{what} window {window}");
                        assert_eq!(r.syndromes, one.syndromes, "{what} window {window}");
                        assert!(r.stats.settled_fault_windows > 0, "{what} window {window}");
                        handed_back += r.stats.handed_back_fault_windows;
                    }
                    assert!(handed_back > 0, "{what}: the lane engine took no hand-back");
                }
            }
        }
    }
}
