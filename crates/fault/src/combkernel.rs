//! Compiled-kernel PPSFP body of [`CombFaultSim`].
//!
//! Patterns are simulated one 64-pattern block at a time, one word per
//! net: the good machine is evaluated with [`CompiledNetlist::eval`]
//! (twice in launch-on-capture mode, the capture pass starting from the
//! launch pass's next state), and each fault the block excites is
//! propagated alone by the event-driven deviation sweep the sequential
//! word pass runs too ([`Deviations::propagate`]), so only gates
//! downstream of a deviation are evaluated. A fault on a folded fanout
//! branch (see [`crate::FaultUniverse`]) forces its sink gate's pin, with
//! the stem's good and launch words as the branch's. Output deviations
//! are read off the nets the sweep stored.
//!
//! The bookkeeping is per block: one propagation pass counted per excited
//! block, first detection at the lowest absolute pattern index, syndrome
//! events in canonical (pattern, output) order, and one survivor count per
//! block in [`FaultSimStats`](crate::FaultSimStats). The `fault`
//! conformance pair pins detections and syndromes against the naive
//! reference interpreter.

use std::time::Instant;

use soctest_netlist::{CompiledNetlist, NetId, NetlistError};

use crate::combsim::{CombCampaign, CombFaultSim, PatternSet};
use crate::par::join_all;
use crate::sweep::Deviations;
use crate::universe::Site;
use crate::{Fault, FaultKind, Syndrome};

/// What every worker of one run reads.
struct Run<'a> {
    kernel: &'a CompiledNetlist,
    patterns: &'a PatternSet,
    /// The launch-on-capture state map, in transition mode.
    transition: Option<&'a [(NetId, NetId)]>,
    /// Absolute index of the run's first pattern.
    offset: u64,
    collect: bool,
    outputs: Outputs,
}

/// CSR: net -> its positions among the observation nets, ascending (a net
/// may drive several outputs).
struct Outputs {
    off: Vec<u32>,
    idx: Vec<u32>,
}

impl Outputs {
    fn new(nets: usize, obs: &[NetId]) -> Self {
        let mut off = vec![0u32; nets + 1];
        for o in obs {
            off[o.index() + 1] += 1;
        }
        for n in 0..nets {
            off[n + 1] += off[n];
        }
        let mut idx = vec![0u32; obs.len()];
        let mut cursor = off.clone();
        for (oi, o) in obs.iter().enumerate() {
            idx[cursor[o.index()] as usize] = oi as u32;
            cursor[o.index()] += 1;
        }
        Outputs { off, idx }
    }

    #[inline]
    fn of(&self, net: u32) -> &[u32] {
        &self.idx[self.off[net as usize] as usize..self.off[net as usize + 1] as usize]
    }
}

impl CombFaultSim<'_> {
    /// Simulates one pattern batch, carrying `campaign` forward.
    pub(crate) fn run(
        &self,
        patterns: &PatternSet,
        transition: Option<&[(NetId, NetId)]>,
        campaign: &mut CombCampaign,
    ) -> Result<(), NetlistError> {
        let start = Instant::now();
        let faults = self.universe.faults();
        let collect = self.collect_syndromes;
        let kernel = self.universe.kernel()?;
        same_width(
            patterns.width(),
            kernel.pis().len(),
            "pattern set vs fault-view inputs",
        )?;
        same_width(
            campaign.detection.len(),
            faults.len(),
            "campaign detection vs fault universe",
        )?;
        if collect {
            same_width(
                campaign.syndromes.as_ref().map_or(0, Vec::len),
                faults.len(),
                "campaign syndromes vs fault universe",
            )?;
        }
        let sites = self.universe.sites(&kernel);
        let run = Run {
            kernel: &kernel,
            patterns,
            transition,
            offset: campaign.applied,
            collect,
            outputs: Outputs::new(kernel.nets(), self.universe.observe_nets()),
        };

        let nthreads = self.parallel.workers_for(faults.len());
        campaign.stats.threads = nthreads;
        campaign.stats.folded_branch_faults = Site::count_pins(&sites);
        let syndromes: &mut [Syndrome] = match campaign.syndromes.as_mut() {
            Some(s) if collect => s,
            _ => &mut [],
        };
        let propagations: u64 = if nthreads == 1 {
            run.simulate(faults, &sites, &mut campaign.detection, syndromes)
        } else {
            // Contiguous shards: disjoint detection/syndrome slots per
            // worker, deterministic sum.
            let shard = faults.len().div_ceil(nthreads);
            let (run, sites) = (&run, &sites);
            let syn_shards = syndromes
                .chunks_mut(shard)
                .chain(std::iter::repeat_with(|| -> &mut [Syndrome] { &mut [] }));
            std::thread::scope(|s| {
                let handles: Vec<_> = campaign
                    .detection
                    .chunks_mut(shard)
                    .zip(syn_shards)
                    .enumerate()
                    .map(|(t, (det, syn))| {
                        let range = t * shard..t * shard + det.len();
                        s.spawn(move || {
                            run.simulate(&faults[range.clone()], &sites[range], det, syn)
                        })
                    })
                    .collect();
                join_all(handles)
            })?
            .into_iter()
            .sum()
        };
        campaign.stats.faulty_cycles += propagations;
        let blocks = patterns.blocks().len() as u64;
        campaign.stats.good_cycles += blocks * if transition.is_some() { 2 } else { 1 };

        // One survivor count per 64-pattern block, recovered from the final
        // detection array because detection indices are absolute: a fault
        // still survives block `b` iff it is undetected or first detected
        // at a later pattern index.
        for b in 0..blocks {
            let boundary = campaign.applied + b * 64 + 64;
            let survivors = campaign
                .detection
                .iter()
                .filter(|d| d.is_none_or(|x| x >= boundary))
                .count();
            campaign.stats.windows += 1;
            campaign.stats.survivors.push(survivors);
        }

        campaign.applied += patterns.len() as u64;
        campaign.stats.wall += start.elapsed();
        Ok(())
    }
}

/// `Err(WidthMismatch)` unless `left == right`.
fn same_width(left: usize, right: usize, op: &'static str) -> Result<(), NetlistError> {
    if left == right {
        Ok(())
    } else {
        Err(NetlistError::WidthMismatch { left, right, op })
    }
}

impl Run<'_> {
    /// Simulates every block of the run for a contiguous shard of faults,
    /// evaluating the good machine itself; returns the propagation count
    /// (the faulty-machine work counter: one pass per excited block).
    fn simulate(
        &self,
        faults: &[Fault],
        sites: &[Site],
        detection: &mut [Option<u64>],
        syndromes: &mut [Syndrome],
    ) -> u64 {
        let kernel = self.kernel;
        let mut good = kernel.fresh_values();
        let mut launch = vec![0u64; kernel.nets()];
        let mut devs = Deviations::new(kernel);
        let mut outputs: Vec<(u32, u64)> = Vec::new();
        let mut propagations = 0u64;
        for (b, block) in self.patterns.blocks().iter().enumerate() {
            for (&pi, &word) in kernel.pis().iter().zip(block) {
                good[pi as usize] = word;
            }
            kernel.eval(&mut good);
            if let Some(map) = self.transition {
                launch.copy_from_slice(&good);
                for &(ppi, ppo) in map {
                    good[ppi.index()] = launch[ppo.index()];
                }
                kernel.eval(&mut good);
            }
            let mask = self.patterns.lane_mask(b);
            let base = self.offset + b as u64 * 64;

            for (fi, (fault, &site)) in faults.iter().zip(sites).enumerate() {
                if detection[fi].is_some() && !self.collect {
                    continue;
                }
                let n = site.good_net(kernel) as usize;
                let g = good[n];
                let faulty = match fault.kind {
                    FaultKind::Sa0 => 0,
                    FaultKind::Sa1 => u64::MAX,
                    // Excited where launch=0 and capture=1; holds the launch 0.
                    FaultKind::SlowToRise => g & launch[n],
                    FaultKind::SlowToFall => g | launch[n],
                };
                let excite = (g ^ faulty) & mask;
                if excite == 0 {
                    continue;
                }
                propagations += 1;
                devs.propagate(kernel, site, excite, &good);

                // Only stored nets deviate, and every stored deviation lies
                // inside the block's valid lanes.
                let mut det = 0u64;
                outputs.clear();
                for &net in &devs.stored {
                    let ois = self.outputs.of(net);
                    if !ois.is_empty() {
                        let d = devs.dev[net as usize];
                        det |= d;
                        if self.collect {
                            outputs.extend(ois.iter().map(|&oi| (oi, d)));
                        }
                    }
                }
                devs.reset();
                if det == 0 {
                    continue;
                }
                if self.collect {
                    // Canonical order: by pattern, then by output.
                    outputs.sort_unstable_by_key(|&(oi, _)| oi);
                    let mut lanes = det;
                    while lanes != 0 {
                        let lane = lanes.trailing_zeros();
                        lanes &= lanes - 1;
                        for &(oi, d) in &outputs {
                            if (d >> lane) & 1 == 1 {
                                syndromes[fi].record(base + u64::from(lane), u64::from(oi));
                            }
                        }
                    }
                }
                if detection[fi].is_none() {
                    detection[fi] = Some(base + u64::from(det.trailing_zeros()));
                }
            }
        }
        propagations
    }
}
