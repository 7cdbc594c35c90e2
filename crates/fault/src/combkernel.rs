//! Compiled-kernel PPSFP body of [`CombFaultSim`].
//!
//! The good machine is widened to [`LANE_WORDS`] pattern blocks per pass
//! (256 lanes) via [`CompiledNetlist::eval_wide`]; each fault is then
//! simulated by a **cone-of-influence sweep**: the compile-time cone table
//! gives every gate the fault site can possibly disturb, and the sweep
//! re-evaluates only those gates — in schedule order, reading undisturbed
//! pins straight out of the cached good vector, and stamping a gate only
//! when its faulty output actually deviates. Gates whose pins are all
//! undisturbed are skipped without evaluation, so per-fault cost tracks the
//! deviated frontier, not the cone size. A fault on a folded fanout branch
//! (see [`crate::FaultUniverse`]) starts one gate later: its sink is
//! evaluated with the branch's pin forced — the stem's good and launch
//! words are the branch's — and the sweep covers the sink's output cone.
//!
//! The bookkeeping is per 64-pattern block, word by word: one propagation
//! pass counted per excited block, first detection at the lowest absolute
//! pattern index, syndrome events in canonical (pattern, output) order, and
//! one survivor count per block in [`FaultSimStats`](crate::FaultSimStats).
//! The `fault` conformance pair pins detections and syndromes against the
//! naive reference interpreter.

use std::time::Instant;

use soctest_netlist::{CompiledNetlist, NetId, NetlistError, LANE_WORDS};

use crate::combsim::{CombCampaign, CombFaultSim, PatternSet};
use crate::par::join_all;
use crate::universe::Site;
use crate::{FaultKind, Syndrome};

/// Per-worker scratch for the cone sweep: faulty value words, per-net epoch
/// stamps (monotone — never cleared), and the cone bitset buffer.
pub(crate) struct ConeScratch {
    fvals: Vec<u64>,
    stamp: Vec<u64>,
    epoch: u64,
    cone: Vec<u64>,
}

impl ConeScratch {
    fn new(kernel: &CompiledNetlist) -> Self {
        ConeScratch {
            fvals: vec![0u64; kernel.nets() * LANE_WORDS],
            stamp: vec![0u64; kernel.nets()],
            epoch: 0,
            cone: vec![0u64; kernel.cones().words()],
        }
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
        const W: usize = LANE_WORDS;
        let start = Instant::now();
        let kernel = self.universe.kernel()?;
        let view = self.universe.view();
        let faults = self.universe.faults();
        let sites = self.universe.sites(&kernel);
        let pis = view.primary_inputs();
        assert_eq!(
            patterns.width(),
            pis.len(),
            "pattern width must match the view's primary-input count"
        );
        assert_eq!(
            campaign.detection.len(),
            faults.len(),
            "campaign state size"
        );
        let collect = self.collect_syndromes;
        if collect {
            assert_eq!(
                campaign.syndromes.as_ref().map_or(0, Vec::len),
                faults.len(),
                "campaign syndrome state size"
            );
        }
        let obs = self.universe.observe_nets();

        let mut values = vec![0u64; kernel.nets() * W];
        for &c in kernel.const1() {
            values[c as usize * W..(c as usize + 1) * W].fill(u64::MAX);
        }
        let mut launch = vec![0u64; kernel.nets() * W];

        let nthreads = self.parallel.workers_for(faults.len());
        campaign.stats.threads = nthreads;
        campaign.stats.folded_branch_faults = Site::count_pins(&sites);
        let offset = campaign.applied;

        // Building the scratches forces the cone table before any worker
        // threads touch it.
        let mut scratches: Vec<ConeScratch> =
            (0..nthreads).map(|_| ConeScratch::new(&kernel)).collect();
        let mut empty_syndromes: Vec<Syndrome> = Vec::new();

        let blocks = patterns.blocks();
        for g in 0..blocks.len().div_ceil(W) {
            let b0 = g * W;
            let gw = W.min(blocks.len() - b0);
            let mut masks = [0u64; LANE_WORDS];
            for (w, m) in masks.iter_mut().enumerate().take(gw) {
                *m = patterns.lane_mask(b0 + w);
            }
            let base0 = offset + b0 as u64 * 64;

            // Good evaluation, 256 lanes at once (launch pass for
            // transition mode). Unused trailing words idle at zero.
            for (i, &pi) in pis.iter().enumerate() {
                let slot = pi.index() * W;
                for w in 0..W {
                    values[slot + w] = if w < gw { blocks[b0 + w][i] } else { 0 };
                }
            }
            kernel.eval_wide(&mut values);
            campaign.stats.good_cycles += gw as u64;
            if let Some(map) = transition {
                launch.copy_from_slice(&values);
                for &(ppi, ppo) in map {
                    for w in 0..W {
                        values[ppi.index() * W + w] = launch[ppo.index() * W + w];
                    }
                }
                kernel.eval_wide(&mut values);
                campaign.stats.good_cycles += gw as u64;
            }

            let syndromes: &mut [Syndrome] = match campaign.syndromes.as_mut() {
                Some(s) => s,
                None => &mut empty_syndromes,
            };
            let propagations = if nthreads == 1 {
                simulate_group(
                    &kernel,
                    obs,
                    faults,
                    &sites,
                    &values,
                    &launch,
                    &masks,
                    gw,
                    base0,
                    &mut campaign.detection,
                    syndromes,
                    collect,
                    &mut scratches[0],
                )
            } else {
                // Contiguous sharding: disjoint detection/syndrome slots
                // per worker, deterministic sum.
                let shard = faults.len().div_ceil(nthreads);
                let kernel_ref = &kernel;
                let values_ref: &[u64] = &values;
                let launch_ref: &[u64] = &launch;
                let masks_ref = &masks;
                std::thread::scope(|s| {
                    let mut handles = Vec::with_capacity(nthreads);
                    let det_shards = campaign.detection.chunks_mut(shard);
                    // Syndromes shard like detections (one slot per fault,
                    // checked above); workers not collecting get none.
                    let collected: &mut [Syndrome] = if collect { syndromes } else { &mut [] };
                    let syn_shards = collected
                        .chunks_mut(shard)
                        .chain(std::iter::repeat_with(|| -> &mut [Syndrome] { &mut [] }));
                    let shards = det_shards.zip(syn_shards).zip(scratches.iter_mut());
                    for (t, ((det, syn_shard), scratch)) in shards.enumerate() {
                        let f0 = t * shard;
                        let fault_shard = &faults[f0..(f0 + det.len())];
                        let site_shard = &sites[f0..(f0 + det.len())];
                        handles.push(s.spawn(move || {
                            simulate_group(
                                kernel_ref,
                                obs,
                                fault_shard,
                                site_shard,
                                values_ref,
                                launch_ref,
                                masks_ref,
                                gw,
                                base0,
                                det,
                                syn_shard,
                                collect,
                                scratch,
                            )
                        }));
                    }
                    join_all(handles)
                })?
                .into_iter()
                .sum()
            };
            campaign.stats.faulty_cycles += propagations;

            // One survivor count per 64-pattern block. The count after
            // block `b` is recoverable from the final detection array
            // because detection indices are absolute: a fault still
            // survives block `b` iff it is undetected or first detected at
            // a later pattern index.
            for w in 0..gw {
                let boundary = base0 + w as u64 * 64 + 64;
                let survivors = campaign
                    .detection
                    .iter()
                    .filter(|d| match d {
                        None => true,
                        Some(x) => *x >= boundary,
                    })
                    .count();
                campaign.stats.windows += 1;
                campaign.stats.survivors.push(survivors);
            }
        }

        campaign.applied += patterns.len() as u64;
        campaign.stats.wall += start.elapsed();
        Ok(())
    }
}

/// Simulates one [`LANE_WORDS`]-block group for a contiguous shard of
/// faults via the cone-of-influence sweep. Word `w` of the group is block
/// `b0 + w`; returns the propagation count (the faulty-machine work
/// counter: one pass per excited block, accounted word by word).
#[allow(clippy::too_many_arguments)]
fn simulate_group(
    kernel: &CompiledNetlist,
    obs: &[NetId],
    faults: &[crate::Fault],
    sites: &[Site],
    values: &[u64],
    launch: &[u64],
    masks: &[u64; LANE_WORDS],
    gw: usize,
    base0: u64,
    detection: &mut [Option<u64>],
    syndromes: &mut [Syndrome],
    collect: bool,
    scratch: &mut ConeScratch,
) -> u64 {
    const W: usize = LANE_WORDS;
    let mut propagations = 0u64;
    let mut devs: Vec<(u64, [u64; W])> = Vec::new();
    for (fi, fault) in faults.iter().enumerate() {
        if detection[fi].is_some() && !collect {
            continue;
        }
        let site = sites[fi];
        let g_net = site.good_net(kernel) as usize;
        let mut fword = [0u64; W];
        let mut excite = [0u64; W];
        let mut any = 0u64;
        for w in 0..gw {
            let good = values[g_net * W + w];
            let faulty = match fault.kind {
                FaultKind::Sa0 => 0,
                FaultKind::Sa1 => u64::MAX,
                // Excited where launch=0 and capture=1; holds the launch 0.
                FaultKind::SlowToRise => good & launch[g_net * W + w],
                FaultKind::SlowToFall => good | launch[g_net * W + w],
            };
            fword[w] = faulty;
            excite[w] = (good ^ faulty) & masks[w];
            any |= excite[w];
        }
        if any == 0 {
            continue;
        }

        // Cone sweep: stamp the first deviating net — the faulted net, or
        // the output of the sink whose folded-branch pin is forced,
        // evaluated here — then re-evaluate the gates downstream of it in
        // schedule order. A gate with no stamped pin cannot deviate and is
        // skipped; a gate is stamped only when some word deviates, so
        // unstamped reads always fall back to the good vector.
        scratch.epoch += 1;
        let epoch = scratch.epoch;
        let from = match site {
            Site::Net(net) => Some(net as usize),
            Site::Pin { op, slot } => {
                let op = op as usize;
                let pins = kernel.op_pins(op);
                let out = kernel.op_out(op) as usize;
                let mut dev = false;
                for (k, f) in fword.iter_mut().enumerate().take(gw) {
                    let mut v = pins.map(|n| values[n as usize * W + k]);
                    v[slot as usize] = *f;
                    *f = kernel.eval_pins(op, v);
                    dev |= *f != values[out * W + k];
                }
                dev.then_some(out)
            }
        };
        match from {
            Some(from) => {
                scratch.stamp[from] = epoch;
                scratch.fvals[from * W..from * W + gw].copy_from_slice(&fword[..gw]);
                kernel.cone_of_net_into(from as u32, &mut scratch.cone);
            }
            None => scratch.cone.fill(0),
        }
        for wi in 0..scratch.cone.len() {
            let mut rem = scratch.cone[wi];
            while rem != 0 {
                let b = rem.trailing_zeros() as usize;
                rem &= rem - 1;
                let p = wi * 64 + b;
                let [a, bb, cc] = kernel.op_pins(p);
                let (a, bb, cc) = (a as usize, bb as usize, cc as usize);
                let sa = scratch.stamp[a] == epoch;
                let sb = scratch.stamp[bb] == epoch;
                let sc = scratch.stamp[cc] == epoch;
                if !(sa || sb || sc) {
                    continue;
                }
                let out = kernel.op_out(p) as usize;
                let mut ws = [0u64; W];
                let mut dev = false;
                for k in 0..gw {
                    let va = if sa {
                        scratch.fvals[a * W + k]
                    } else {
                        values[a * W + k]
                    };
                    let vb = if sb {
                        scratch.fvals[bb * W + k]
                    } else {
                        values[bb * W + k]
                    };
                    let vc = if sc {
                        scratch.fvals[cc * W + k]
                    } else {
                        values[cc * W + k]
                    };
                    let v = kernel.eval_pins(p, [va, vb, vc]);
                    ws[k] = v;
                    dev |= v != values[out * W + k];
                }
                if dev {
                    scratch.fvals[out * W..out * W + gw].copy_from_slice(&ws[..gw]);
                    scratch.stamp[out] = epoch;
                }
            }
        }

        // Observation: only stamped nets can deviate; deviations are
        // listed in `oi` order.
        let mut det = [0u64; W];
        devs.clear();
        for (oi, &o) in obs.iter().enumerate() {
            let on = o.index();
            if scratch.stamp[on] != epoch {
                continue;
            }
            let mut d = [0u64; W];
            let mut anyd = 0u64;
            for k in 0..gw {
                d[k] = (scratch.fvals[on * W + k] ^ values[on * W + k]) & masks[k];
                anyd |= d[k];
            }
            if anyd != 0 {
                for k in 0..gw {
                    det[k] |= d[k];
                }
                if collect {
                    devs.push((oi as u64, d));
                }
            }
        }

        // Word-sequential bookkeeping keeps the per-block order: the skip
        // rule sees detections from earlier words, the propagation counter
        // counts one pass per excited block, and syndrome events stream in
        // canonical (absolute pattern, output) order.
        for k in 0..gw {
            if detection[fi].is_some() && !collect {
                continue;
            }
            if excite[k] == 0 {
                continue;
            }
            propagations += 1;
            let base = base0 + k as u64 * 64;
            if collect {
                let syn = &mut syndromes[fi];
                let mut lanes = det[k];
                while lanes != 0 {
                    let lane = lanes.trailing_zeros() as u64;
                    lanes &= lanes - 1;
                    for &(oi, d) in &devs {
                        if (d[k] >> lane) & 1 == 1 {
                            syn.record(base + lane, oi);
                        }
                    }
                }
            }
            if det[k] != 0 && detection[fi].is_none() {
                detection[fi] = Some(base + u64::from(det[k].trailing_zeros()));
            }
        }
    }
    propagations
}
