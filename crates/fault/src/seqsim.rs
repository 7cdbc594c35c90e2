//! Parallel-fault sequential fault simulation.
//!
//! Up to 64 faulty machines share the 64 lanes of a word: lane *i* carries
//! machine *i*'s deviation. All machines receive the same per-cycle
//! stimulus — exactly the situation of a BIST run, where the pattern
//! generator feeds every module one pattern per clock.
//!
//! Simulation proceeds in *windows* on the compiled netlist kernel (see
//! `seqkernel`): the good machine's trajectory over the window (every
//! net's value per cycle, MISR signatures at read boundaries, and the next
//! flip-flop state) is computed **once**, then every 64-fault lane chunk is
//! simulated against that trace. Chunks are independent, so they
//! are sharded across a scoped worker pool ([`ParallelPolicy`]); per-chunk
//! detections and syndrome events are merged in chunk order, which makes a
//! `threads: N` run bit-identical to `threads: 1`. After each window,
//! detected faults are dropped and the survivors (which carry their
//! flip-flop state, their MISR state, and the previous value of their fault
//! site for transition faults) are repacked into fewer, denser lane groups.
//! Random patterns detect most faults early, so the survivor tail is short
//! and the windowed schedule approaches good-machine-only cost.

use std::time::Instant;

use soctest_netlist::{NetId, NetlistError};

use crate::par::join_all;
use crate::seqkernel::KernelEngine;
use crate::stimulus::StimulusMatrix;
use crate::{
    Fault, FaultKind, FaultSimResult, FaultSimStats, FaultUniverse, ParallelPolicy, SeqStimulus,
    Syndrome,
};

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
        /// Signature register width in bits (at most 64).
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
    /// Window length in cycles between fault-dropping/repacking points.
    pub window: u64,
    /// Observation mode.
    pub observe: ObserveMode,
    /// Collect per-fault syndromes for diagnosis. Implies simulating every
    /// fault over the full test (no dropping), which is slower.
    pub collect_syndromes: bool,
    /// Worker-thread policy for the per-window fault chunks.
    pub parallel: ParallelPolicy,
}

impl Default for SeqFaultSimConfig {
    fn default() -> Self {
        SeqFaultSimConfig {
            window: 256,
            observe: ObserveMode::Outputs,
            collect_syndromes: false,
            parallel: ParallelPolicy::default(),
        }
    }
}

/// The parallel-fault sequential fault simulator.
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
/// (read-only) by every fault chunk.
pub(crate) struct GoodTrace {
    /// Good MISR signature at each read boundary inside the window, in
    /// boundary order, paired with `(cycle, read_idx)`. Read indices are
    /// assigned by a monotone counter — the single source of truth for the
    /// read schedule that the chunk loops replay.
    pub(crate) sigs: Vec<(u64, u64, u64)>,
    /// Good flip-flop + MISR state at window end (packed like
    /// `ActiveFault::state`).
    pub(crate) next_state: Vec<u64>,
    /// The full good value of every net at every cycle (post-eval,
    /// pre-clock), bit-packed per cycle — net `n` of cycle `t` is bit
    /// `n % 64` of word `t * net_words + n / 64`, broadcast to a 64-lane
    /// word on read. Chunks overlay XOR deviations on these rows, so every
    /// net the deviation sweep never touches provably holds the good value.
    pub(crate) net_bits: Vec<u64>,
    pub(crate) net_words: usize,
}

/// Per-chunk results produced by a worker: merged serially in chunk order.
#[derive(Default)]
pub(crate) struct ChunkOut {
    /// `(fault index, first in-window detection cycle)`.
    pub(crate) detections: Vec<(usize, u64)>,
    /// `(fault index, when, what)` syndrome events in generation order.
    pub(crate) events: Vec<(usize, u64, u64)>,
}

/// Read-only context shared by the good pass and every fault chunk.
pub(crate) struct WindowCtx<'b> {
    pub(crate) obs: &'b [NetId],
    pub(crate) stim: &'b StimulusMatrix,
    pub(crate) faults: &'b [Fault],
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
    /// Returns [`NetlistError::CombinationalCycle`] if the fault view cannot
    /// be levelized (it can always be levelized if the original could).
    pub fn run(&self, stimulus: &mut dyn SeqStimulus) -> Result<FaultSimResult, NetlistError> {
        let start = Instant::now();
        let kernel = self.universe.kernel()?;
        let stim = StimulusMatrix::materialize(stimulus, kernel.pis().len());
        let (misr_width, misr_taps, misr_read) = match self.config.observe {
            ObserveMode::Misr {
                width,
                taps,
                read_every,
            } => (width, taps, read_every.max(1)),
            ObserveMode::Outputs => (0, 0, 0),
        };
        let ctx = WindowCtx {
            obs: self.universe.observe_nets(),
            stim: &stim,
            faults: self.universe.faults(),
            misr_width,
            misr_taps,
            misr_read,
            total_cycles: stim.cycles,
            ndff: kernel.dff_q().len(),
            collect: self.config.collect_syndromes,
        };
        self.run_windows(&ctx, &KernelEngine::new(kernel), start)
    }

    /// The window loop: good pass, chunk fan-out with a deterministic
    /// merge, fault dropping, and survivor repacking.
    fn run_windows(
        &self,
        ctx: &WindowCtx<'_>,
        engine: &KernelEngine,
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

        // Clamp the worker count to the campaign's actual fault-lane chunk
        // count up front: a 1-core host (or a tiny universe) resolves to 1
        // and takes the exact serial path below — no scoped pool, no extra
        // scratchpads — instead of paying worker-pool overhead for nothing.
        let nthreads = self.config.parallel.workers_for(faults.len().div_ceil(64));
        let mut stats = FaultSimStats {
            threads: nthreads,
            ..FaultSimStats::default()
        };

        // Per-worker scratchpads, hoisted across windows (plus one for the
        // coordinating thread's good pass).
        let mut scratches: Vec<_> = (0..nthreads).map(|_| engine.new_scratch(ctx)).collect();
        let mut good_scratch = engine.new_scratch(ctx);

        let mut window_start = 0u64;
        while window_start < cycles && !active.is_empty() {
            let wlen = self.config.window.min(cycles - window_start);
            let trace = engine.good_window(ctx, &good_state, window_start, wlen, &mut good_scratch);
            stats.good_cycles += wlen;
            stats.faulty_cycles += wlen * active.chunks(64).count() as u64;

            let mut chunk_slices: Vec<&mut [ActiveFault]> = active.chunks_mut(64).collect();
            let nchunks = chunk_slices.len();
            let workers = nthreads.min(nchunks.max(1));
            let outs: Vec<Vec<ChunkOut>> = if workers <= 1 {
                vec![chunk_slices
                    .iter_mut()
                    .map(|chunk| {
                        engine.run_chunk(
                            ctx,
                            chunk,
                            &good_state,
                            &trace,
                            window_start,
                            wlen,
                            &mut scratches[0],
                        )
                    })
                    .collect()]
            } else {
                let per = nchunks.div_ceil(workers);
                let trace_ref = &trace;
                let good_ref: &[u64] = &good_state;
                std::thread::scope(|s| {
                    let handles: Vec<_> = chunk_slices
                        .chunks_mut(per)
                        .zip(scratches.iter_mut())
                        .map(|(group, scratch)| {
                            s.spawn(move || {
                                group
                                    .iter_mut()
                                    .map(|chunk| {
                                        engine.run_chunk(
                                            ctx,
                                            chunk,
                                            good_ref,
                                            trace_ref,
                                            window_start,
                                            wlen,
                                            scratch,
                                        )
                                    })
                                    .collect::<Vec<ChunkOut>>()
                            })
                        })
                        .collect();
                    join_all(handles)
                })?
            };
            // Deterministic merge: workers in spawn order, chunks in chunk
            // order; each fault lives in exactly one chunk, so per-fault
            // event order is exactly the serial order.
            for out in outs.into_iter().flatten() {
                for (idx, t) in out.detections {
                    if detection[idx].is_none() {
                        detection[idx] = Some(t);
                    }
                }
                for (idx, when, what) in out.events {
                    syndromes[idx].record(when, what);
                }
            }

            good_state = trace.next_state;
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
                }
            }
        }
    }
}
