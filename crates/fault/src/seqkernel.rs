//! Compiled-kernel window engine for [`crate::SeqFaultSim`].
//!
//! [`KernelEngine`] executes one window of the `seqsim` window loop on top
//! of the flattened [`CompiledNetlist`] schedule. A window is at most 64
//! cycles, so the good machine's trajectory fits one word per net: the
//! good pass evaluates cycle `r` of the window in lane `r` of every net
//! word ([`GoodTrace::cols`]). Faults then take one of two routes against
//! those columns.
//!
//! **Word pass** ([`KernelEngine::word_pass`]). A fault whose flip-flops
//! match the good machine at window start is simulated alone, 64 cycles
//! per word — parallel-pattern single-fault propagation over time. Until
//! a flip-flop's `d` net deviates, every gate input is a primary input, a
//! good flip-flop, or downstream of the fault site, so one event-driven
//! sweep of the site's deviation word through the schedule is exact for
//! every cycle up to and including the first `d` deviation. The site word
//! is forced whole: a stuck-at is a constant; a transition fault follows
//! [`crate::seqsim::apply`]'s recurrence (slow-to-rise
//! `good(t) ∧ faulty(t−1)`, slow-to-fall `good(t) ∨ faulty(t−1)`) as a
//! prefix scan seeded by the carried `prev` bit. A fault on a folded
//! fanout branch (see [`crate::FaultUniverse`]) forces its sink gate's pin
//! instead, with the stem's column as the branch's good word: the sink is
//! evaluated once with the forced pin and the sweep starts from its
//! output. Output deviations are read off the nets the sweep stored, and
//! a MISR deviation is stepped on its own (the register is linear, so the
//! faulty signature is the good one XOR the deviation). The fault is
//! *settled* when it is detected no later than its first `d` deviation
//! (syndromes off), or when no `d` net deviates before the window's last
//! cycle — then it is carried to the next window with its flip-flops set
//! to the good state XOR the last cycle's `d` deviations. Otherwise it is
//! *handed back* untouched.
//!
//! **Lane engine** ([`KernelEngine::run_chunk`]). Handed-back faults and
//! faults that start the window with deviated flip-flops share the 64
//! lanes of a word, one fault per lane, cycle by cycle. Each chunk-cycle
//! sweeps only the gates that can deviate — seeded from the injection
//! sites and from flip-flops whose lane word differs from the good
//! machine — reading the broadcast good bit of lane `r` of the same
//! columns. An injected gate is evaluated every cycle: the pins its folded
//! branches fed are forced per lane first (the stem's faulty word through
//! `apply`), then its output. A bitmap marks the deviating flip-flops, and
//! the clock edge only visits flip-flops whose `d` net was stored with a
//! deviation this cycle (via the kernel's sequential-sink CSR).
//!
//! Both routes run the event-driven deviation sweep of [`crate::sweep`],
//! the one [`crate::CombFaultSim`] runs too: the word pass through its
//! single-fault entry point [`Deviations::propagate`], the lane engine
//! through [`Deviations::store`] and [`Deviations::sweep`] with its own
//! evaluation of the injected gates.
//!
//! The contract — detections, syndrome streams, and survivor trajectories
//! — is pinned against the naive reference interpreter by the `fault`
//! conformance pair and the case-study leg of `difftest`.

use std::sync::Arc;

use soctest_netlist::{CompiledNetlist, NetId};

use crate::seqsim::{
    apply, get_bit, set_bit, ActiveFault, ChunkOut, GoodTrace, InjEntry, WindowCtx,
};
use crate::sweep::{low_mask, Deviations};
use crate::universe::Site;
use crate::FaultKind;

/// The compiled-kernel window engine (see the [module docs](self)).
pub(crate) struct KernelEngine {
    kernel: Arc<CompiledNetlist>,
    /// Bitmap over nets: the observation nets.
    obs_nets: Vec<u64>,
}

/// Per-worker scratch, reused across windows, chunks and faults. `qdev`
/// marks the flip-flops whose lane word currently deviates from the good
/// machine; `qwords[j]` is only meaningful while bit `j` is set.
/// `inj_mark` is stamped with `chunk_no` so it never needs clearing
/// between chunks; while a net's stamp is current, `inj_slot` holds the
/// index of its injection. `inj_ops` marks the schedule positions of the
/// chunk's injected gates (a bitmap small enough to stay in L1).
pub(crate) struct KernelScratch {
    devs: Deviations,
    qwords: Vec<u64>,
    qdev: Vec<u64>,
    misr: Vec<u64>,
    misr_next: Vec<u64>,
    inj_mark: Vec<u64>,
    inj_slot: Vec<u8>,
    inj_ops: Vec<u64>,
    chunk_no: u64,
}

/// What the word pass did with one shard of the active list.
#[derive(Default)]
pub(crate) struct WordOut {
    /// Detections and syndrome events of the faults it settled.
    pub(crate) out: ChunkOut,
    /// Positions (in the whole active list, ascending) of the faults the
    /// lane engine must simulate this window.
    pub(crate) lane: Vec<usize>,
    /// Faults it settled.
    pub(crate) settled: u64,
    /// Faults it took and handed back (a subset of `lane`).
    pub(crate) handed_back: u64,
}

/// The faults of one lane chunk injected at one place, each list in lane
/// order: a source net, or a scheduled gate — its output and the pins its
/// folded fanout branches fed.
struct Injection {
    /// The source net, or the gate's output net.
    net: u32,
    /// Faults forcing `net` itself.
    out: Vec<InjEntry>,
    /// Faults on folded branches, per pin slot of the gate.
    pins: Vec<(u8, Vec<InjEntry>)>,
}

/// Broadcast of the good bit of `net` at window cycle `r`.
#[inline]
fn gbit(cols: &[u64], net: usize, r: u32) -> u64 {
    0u64.wrapping_sub((cols[net] >> r) & 1)
}

/// Bits below the lowest clear bit of `g`: the cycles a slow-to-rise
/// site keeps following a good value that has stayed 1 since the seed.
#[inline]
fn trailing_ones(g: u64) -> u64 {
    (!g & g.wrapping_add(1)).wrapping_sub(1)
}

/// Bits at and above the lowest set bit of `g`: the cycles a slow-to-fall
/// site reads 1 once the good value has risen.
#[inline]
fn from_lowest_set(g: u64) -> u64 {
    (g & g.wrapping_neg()).wrapping_neg()
}

/// The forced site word of a fault over one window: `g` is the site's
/// good column, `prev` the faulty site value before the window, and
/// `first_ever` whether the window starts at cycle 0 (where a transition
/// site passes its value through). Bit `r` equals the value
/// [`apply`] produces at cycle `r` given good (undisturbed) site inputs.
#[inline]
fn forced_site(kind: FaultKind, g: u64, prev: bool, first_ever: bool) -> u64 {
    match kind {
        FaultKind::Sa0 => 0,
        FaultKind::Sa1 => u64::MAX,
        FaultKind::SlowToRise if first_ever || prev => trailing_ones(g),
        FaultKind::SlowToRise => 0,
        FaultKind::SlowToFall if prev && !first_ever => u64::MAX,
        FaultKind::SlowToFall => from_lowest_set(g),
    }
}

/// `len` bits of `state` starting at bit `start`, LSB first (`len` ≤ 64).
fn get_bits(state: &[u64], start: usize, len: usize) -> u64 {
    (0..len).fold(0u64, |acc, j| {
        acc | (u64::from(get_bit(state, start + j)) << j)
    })
}

/// Whether the first `ndff` bits of `a` and `b` agree.
fn ff_bits_match(a: &[u64], b: &[u64], ndff: usize) -> bool {
    a.iter()
        .zip(b)
        .enumerate()
        .all(|(i, (x, y))| (x ^ y) & low_mask(ndff.saturating_sub(64 * i) as u64) == 0)
}

impl KernelEngine {
    pub(crate) fn new(kernel: Arc<CompiledNetlist>, obs: &[NetId]) -> Self {
        let mut obs_nets = vec![0u64; kernel.nets().div_ceil(64)];
        for o in obs {
            obs_nets[o.index() / 64] |= 1u64 << (o.index() % 64);
        }
        KernelEngine { kernel, obs_nets }
    }

    /// Allocates one worker's scratchpad, reused across windows and chunks.
    pub(crate) fn new_scratch(&self, ctx: &WindowCtx<'_>) -> KernelScratch {
        KernelScratch {
            devs: Deviations::new(&self.kernel),
            qwords: vec![0u64; ctx.ndff],
            qdev: vec![0u64; ctx.ndff.div_ceil(64).max(1)],
            misr: vec![0u64; ctx.misr_width],
            misr_next: vec![0u64; ctx.misr_width],
            inj_mark: vec![0u64; self.kernel.nets()],
            inj_slot: vec![0u8; self.kernel.nets()],
            inj_ops: vec![0u64; self.kernel.ops().div_ceil(64)],
            chunk_no: 0,
        }
    }

    /// An empty good trace, reused by every window of a run.
    pub(crate) fn new_trace(&self, state_words: usize) -> GoodTrace {
        GoodTrace {
            cols: self.kernel.fresh_values(),
            sigs: Vec::new(),
            next_state: vec![0u64; state_words],
        }
    }

    /// Simulates the good machine alone over one window of `wlen` ≤ 64
    /// cycles, cycle `r` in lane `r`: before evaluating cycle `r` it
    /// writes lane `r` of the primary inputs and of every flip-flop output
    /// (lane `r − 1` of its `d` net, or the window's start state), and the
    /// lane-pure kernel sweep leaves lanes below `r` as they were. After
    /// the last cycle the value words *are* the window's columns. Also
    /// records the MISR signature at each read boundary and the state at
    /// window end.
    pub(crate) fn good_window(
        &self,
        ctx: &WindowCtx<'_>,
        good_state: &[u64],
        window_start: u64,
        wlen: u64,
        trace: &mut GoodTrace,
    ) {
        let kernel = &*self.kernel;
        let cols = &mut trace.cols;
        let set_lane = |w: &mut u64, r: u64, v: bool| {
            *w = (*w & !(1u64 << r)) | (u64::from(v) << r);
        };
        for r in 0..wlen {
            let t = window_start + r;
            for (k, &pi) in kernel.pis().iter().enumerate() {
                set_lane(&mut cols[pi as usize], r, ctx.stim.get(t, k));
            }
            for (j, (&q, &d)) in kernel.dff_q().iter().zip(kernel.dff_d()).enumerate() {
                // Lane r of q is written and lane r − 1 of d is read, so a
                // flip-flop chain needs no staging.
                let v = if r == 0 {
                    get_bit(good_state, j)
                } else {
                    (cols[d as usize] >> (r - 1)) & 1 == 1
                };
                set_lane(&mut cols[q as usize], r, v);
            }
            kernel.eval(cols);
        }

        let last = wlen - 1;
        trace.next_state.fill(0);
        for (j, &d) in kernel.dff_d().iter().enumerate() {
            set_bit(
                &mut trace.next_state,
                j,
                (cols[d as usize] >> last) & 1 == 1,
            );
        }
        trace.sigs.clear();
        if ctx.misr_width == 0 {
            return;
        }
        let misr_mask = low_mask(ctx.misr_width as u64);
        let mut misr = get_bits(good_state, ctx.ndff + 1, ctx.misr_width);
        // Monotone read-index counter, seeded with the number of boundary
        // reads strictly before this window (`t` is absolute, so earlier
        // windows contributed exactly `window_start / read_every` reads;
        // the forced off-boundary final read can only occur in the last
        // window). Assigning indices sequentially instead of re-deriving
        // `t / read_every` per read makes collisions between a boundary
        // read and the forced final read structurally impossible.
        let mut read_idx = window_start / ctx.misr_read;
        for r in 0..wlen {
            let t = window_start + r;
            // Scalar form of the per-lane MISR update in `run_chunk`.
            let fb = (misr >> (ctx.misr_width - 1)) & 1;
            let mut next = (misr << 1) & misr_mask;
            if fb == 1 {
                next ^= ctx.misr_taps;
            }
            for (oi, &o) in ctx.obs.iter().enumerate() {
                next ^= ((cols[o.index()] >> r) & 1) << (oi % ctx.misr_width);
            }
            misr = next & misr_mask;
            if (t + 1).is_multiple_of(ctx.misr_read) || t + 1 == ctx.total_cycles {
                trace.sigs.push((t, read_idx, misr));
                read_idx += 1;
            }
        }
        for j in 0..ctx.misr_width {
            set_bit(
                &mut trace.next_state,
                ctx.ndff + 1 + j,
                (misr >> j) & 1 == 1,
            );
        }
    }

    /// Runs the word pass over one shard of the active list (starting at
    /// position `offset`): settles what it can, updating carried faults'
    /// states in place, and lists the positions the lane engine must take
    /// — faults that start the window with deviated flip-flops and faults
    /// handed back.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn word_pass(
        &self,
        ctx: &WindowCtx<'_>,
        shard: &mut [ActiveFault],
        offset: usize,
        good_state: &[u64],
        trace: &GoodTrace,
        window_start: u64,
        wlen: u64,
        scratch: &mut KernelScratch,
    ) -> WordOut {
        let mut out = WordOut::default();
        for (i, af) in shard.iter_mut().enumerate() {
            if !ff_bits_match(&af.state, good_state, ctx.ndff) {
                out.lane.push(offset + i);
            } else if self.settle(
                ctx,
                af,
                good_state,
                trace,
                window_start,
                wlen,
                &mut scratch.devs,
                &mut out.out,
            ) {
                out.settled += 1;
            } else {
                out.handed_back += 1;
                out.lane.push(offset + i);
            }
        }
        out
    }

    /// Simulates one fault whose flip-flops match the good machine over the
    /// whole window at once (see the [module docs](self)). Returns whether
    /// it settled; a fault handed back emits nothing and keeps its state.
    #[allow(clippy::too_many_arguments)]
    fn settle(
        &self,
        ctx: &WindowCtx<'_>,
        af: &mut ActiveFault,
        good_state: &[u64],
        trace: &GoodTrace,
        window_start: u64,
        wlen: u64,
        devs: &mut Deviations,
        out: &mut ChunkOut,
    ) -> bool {
        let kernel = &*self.kernel;
        let cols = &trace.cols;
        let ndff = ctx.ndff;
        let last = wlen - 1;
        let fault = ctx.faults[af.idx];
        let site = ctx.sites[af.idx];
        let g = cols[site.good_net(kernel) as usize];
        let forced = forced_site(fault.kind, g, get_bit(&af.state, ndff), window_start == 0);
        // Deviations stay inside the window's lanes: the site word is
        // masked, and a lane-pure sweep never spreads a zero lane.
        let site_dev = (forced ^ g) & low_mask(wlen);
        if site_dev != 0 {
            devs.propagate(kernel, site, site_dev, cols);
        }

        // First cycle a flip-flop's `d` net deviates (64: none). Cycles up
        // to and including it are exact; the window is exact throughout
        // when it is the last cycle or later.
        let ff_dev = devs.touched.iter().fold(0u64, |acc, &k| {
            acc | devs.dev[kernel.dff_d()[k as usize] as usize]
        });
        let exact_to = u64::from(ff_dev.trailing_zeros());
        let whole = exact_to >= last;
        // Only stored nets deviate, and far fewer are stored than observed.
        let obs_dev = devs
            .stored
            .iter()
            .filter(|&&n| (self.obs_nets[n as usize / 64] >> (n % 64)) & 1 == 1)
            .fold(0u64, |acc, &n| acc | devs.dev[n as usize]);

        let mut settled = false;
        let mut misr_dev = 0u64;
        if ctx.misr_width == 0 {
            let first = u64::from(obs_dev.trailing_zeros());
            if !ctx.collect && obs_dev != 0 && first <= exact_to {
                out.detections.push((af.idx, window_start + first));
                devs.reset();
                return true;
            }
            if whole {
                settled = true;
                if obs_dev != 0 {
                    out.detections.push((af.idx, window_start + first));
                    // Canonical order: by cycle, then by output.
                    let mut rem = obs_dev;
                    while rem != 0 {
                        let r = rem.trailing_zeros();
                        rem &= rem - 1;
                        for (oi, o) in ctx.obs.iter().enumerate() {
                            if (devs.dev[o.index()] >> r) & 1 == 1 {
                                out.events
                                    .push((af.idx, window_start + u64::from(r), oi as u64));
                            }
                        }
                    }
                }
            }
        } else if whole || !ctx.collect {
            // The MISR deviation evolves linearly: shift, feed back, and
            // absorb the folded output deviations of each cycle.
            let width = ctx.misr_width;
            let wmask = low_mask(width as u64);
            let mut inp = [0u64; 64];
            if obs_dev != 0 {
                for (oi, o) in ctx.obs.iter().enumerate() {
                    let mut rem = devs.dev[o.index()];
                    while rem != 0 {
                        inp[rem.trailing_zeros() as usize] ^= 1u64 << (oi % width);
                        rem &= rem - 1;
                    }
                }
            }
            let mut d =
                get_bits(&af.state, ndff + 1, width) ^ get_bits(good_state, ndff + 1, width);
            let mut reads = trace.sigs.iter().peekable();
            let mut detected = None;
            for r in 0..=last.min(exact_to) {
                let fb = (d >> (width - 1)) & 1;
                d = ((d << 1) ^ (ctx.misr_taps * fb) ^ inp[r as usize]) & wmask;
                let Some(&(t, read_idx, good_sig)) =
                    reads.next_if(|&&(t, _, _)| t == window_start + r)
                else {
                    continue;
                };
                if d != 0 {
                    detected.get_or_insert(t);
                    if !ctx.collect {
                        break;
                    }
                    out.events.push((af.idx, read_idx, good_sig ^ d));
                }
            }
            if let Some(t) = detected {
                out.detections.push((af.idx, t));
                if !ctx.collect {
                    devs.reset();
                    return true;
                }
            }
            settled = whole;
            misr_dev = d;
        }

        if settled {
            // Carry: the good end state, the site's last faulty value for a
            // transition fault, the last cycle's `d` deviations, and the
            // MISR deviation.
            let prev = match fault.kind {
                FaultKind::SlowToRise | FaultKind::SlowToFall => (forced >> last) & 1 == 1,
                FaultKind::Sa0 | FaultKind::Sa1 => get_bit(&af.state, ndff),
            };
            af.state.copy_from_slice(&trace.next_state);
            set_bit(&mut af.state, ndff, prev);
            for &k in &devs.touched {
                let k = k as usize;
                if (devs.dev[kernel.dff_d()[k] as usize] >> last) & 1 == 1 {
                    set_bit(&mut af.state, k, !get_bit(&trace.next_state, k));
                }
            }
            for j in 0..ctx.misr_width {
                if (misr_dev >> j) & 1 == 1 {
                    set_bit(
                        &mut af.state,
                        ndff + 1 + j,
                        !get_bit(&trace.next_state, ndff + 1 + j),
                    );
                }
            }
        }
        devs.reset();
        settled
    }

    /// Simulates one 64-fault lane chunk over one window against the good
    /// trace, updating the chunk's packed states in place and returning
    /// its detections and syndrome events.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_chunk(
        &self,
        ctx: &WindowCtx<'_>,
        chunk: &mut [ActiveFault],
        good_state: &[u64],
        trace: &GoodTrace,
        window_start: u64,
        wlen: u64,
        scratch: &mut KernelScratch,
    ) -> ChunkOut {
        let kernel = &*self.kernel;
        let cols = &trace.cols;
        let mut out = ChunkOut::default();
        let mut first_det: Vec<Option<u64>> = vec![None; chunk.len()];
        let ndff = ctx.ndff;
        let (dff_q, dff_d) = (kernel.dff_q(), kernel.dff_d());
        // In-window fault dropping: once a lane has its first detection it
        // can no longer influence anything observable (post-detection
        // deviations are only meaningful to syndrome collection), so when
        // syndromes are off the lane is masked out of every *propagation
        // decision*. Bitwise evaluation is lane-pure — an op's live-lane
        // output bits depend only on live-lane input bits — so the live
        // lanes stay exact while dead-lane wavefronts collapse.
        let mut live = low_mask(chunk.len() as u64);

        // Load the sparse flip-flop/MISR lane state: broadcast the good
        // bits, then flip the lanes whose packed state diffs from the good
        // machine (deviating state bits are rare, so walk the XOR words).
        scratch.qdev.fill(0);
        for (j, m) in scratch.misr.iter_mut().enumerate() {
            *m = 0u64.wrapping_sub(u64::from(get_bit(good_state, ndff + 1 + j)));
        }
        for (l, af) in chunk.iter().enumerate() {
            for (wi, (&aw, &gw)) in af.state.iter().zip(good_state.iter()).enumerate() {
                let mut diff = aw ^ gw;
                while diff != 0 {
                    let sbit = wi * 64 + diff.trailing_zeros() as usize;
                    diff &= diff - 1;
                    if sbit < ndff {
                        if scratch.qdev[sbit / 64] >> (sbit % 64) & 1 == 0 {
                            scratch.qdev[sbit / 64] |= 1u64 << (sbit % 64);
                            scratch.qwords[sbit] =
                                0u64.wrapping_sub(u64::from(get_bit(good_state, sbit)));
                        }
                        scratch.qwords[sbit] ^= 1u64 << l;
                    } else if sbit > ndff && sbit < ndff + 1 + ctx.misr_width {
                        // MISR stage bit (the `ndff` slot is the transition
                        // `prev` bit, carried by the injection entries).
                        scratch.misr[sbit - ndff - 1] ^= 1u64 << l;
                    }
                }
            }
        }

        // Injections: one per source net or gate a fault of the chunk sits
        // on, keyed by that net (a gate's output net also keys the faults
        // on its folded branch pins), in first-lane order, each list in
        // lane order; then split into scheduled gates and source nets.
        scratch.chunk_no += 1;
        let chunk_no = scratch.chunk_no;
        let mut injs: Vec<Injection> = Vec::new();
        for (l, af) in chunk.iter().enumerate() {
            let f = ctx.faults[af.idx];
            let entry = InjEntry {
                lane: l as u8,
                kind: f.kind,
                prev: get_bit(&af.state, ndff),
            };
            let (net, slot) = match ctx.sites[af.idx] {
                Site::Net(net) => (net, None),
                Site::Pin { op, slot } => (kernel.op_out(op as usize), Some(slot)),
            };
            let n = net as usize;
            if scratch.inj_mark[n] != chunk_no {
                scratch.inj_mark[n] = chunk_no;
                scratch.inj_slot[n] = injs.len() as u8;
                injs.push(Injection {
                    net,
                    out: Vec::new(),
                    pins: Vec::new(),
                });
            }
            let inj = &mut injs[scratch.inj_slot[n] as usize];
            match slot {
                None => inj.out.push(entry),
                Some(slot) => match inj.pins.iter_mut().find(|(s, _)| *s == slot) {
                    Some((_, entries)) => entries.push(entry),
                    None => inj.pins.push((slot, vec![entry])),
                },
            }
        }
        let mut site_ops: Vec<u32> = Vec::new();
        let mut src_sites: Vec<usize> = Vec::new();
        for (s, inj) in injs.iter().enumerate() {
            match kernel.sched_of(inj.net) {
                Some(p) => {
                    site_ops.push(p as u32);
                    scratch.inj_ops[p / 64] |= 1u64 << (p % 64);
                }
                None => src_sites.push(s),
            }
        }

        let mut read_cursor = 0usize;
        for t in window_start..window_start + wlen {
            let first_ever = t == 0;
            let r = (t - window_start) as u32;
            let devs = &mut scratch.devs;

            // Deviating flip-flop outputs only — `qdev` guarantees a live
            // lane differs, so fanouts and d-sinks are seeded.
            for wi in 0..scratch.qdev.len() {
                let mut rem = scratch.qdev[wi];
                while rem != 0 {
                    let j = wi * 64 + rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    let q = dff_q[j];
                    devs.store(
                        kernel,
                        q,
                        scratch.qwords[j] ^ gbit(cols, q as usize, r),
                        live,
                    );
                }
            }
            // Source-site injections (primary inputs, flip-flop outputs,
            // constants) — applied before the sweep.
            for &s in &src_sites {
                let inj = &mut injs[s];
                let n = inj.net as usize;
                let g = gbit(cols, n, r);
                let w = apply(g ^ devs.dev[n], &mut inj.out, first_ever);
                devs.store(kernel, inj.net, w ^ g, live);
            }
            // Injected gates are evaluated every cycle: their pins or
            // outputs are forced, and transition injections must update
            // `prev`. A folded branch's pin word is its stem's, forced
            // per lane before the gate is evaluated.
            for &p in &site_ops {
                devs.mark(p);
            }
            let (inj_ops, inj_slot) = (&scratch.inj_ops, &scratch.inj_slot);
            devs.sweep(
                kernel,
                |n| gbit(cols, n, r),
                |p, out, mut pins| {
                    if (inj_ops[p / 64] >> (p % 64)) & 1 == 0 {
                        return kernel.eval_pins(p, pins);
                    }
                    let inj = &mut injs[inj_slot[out as usize] as usize];
                    for (slot, entries) in &mut inj.pins {
                        let pin = &mut pins[*slot as usize];
                        *pin = apply(*pin, entries, first_ever);
                    }
                    apply(kernel.eval_pins(p, pins), &mut inj.out, first_ever)
                },
                live,
            );

            // Observation. The obs loop runs in `oi` order, so events stream
            // in (cycle, output) order per fault.
            if ctx.misr_width == 0 {
                for (oi, &o) in ctx.obs.iter().enumerate() {
                    let mut diff = devs.dev[o.index()] & live;
                    while diff != 0 {
                        let lane = diff.trailing_zeros() as usize;
                        diff &= diff - 1;
                        if first_det[lane].is_none() {
                            first_det[lane] = Some(t);
                            if !ctx.collect {
                                live &= !(1u64 << lane);
                            }
                        }
                        if ctx.collect {
                            out.events.push((chunk[lane].idx, t, oi as u64));
                        }
                    }
                }
            } else {
                let fb = scratch.misr[ctx.misr_width - 1];
                for j in (1..ctx.misr_width).rev() {
                    scratch.misr_next[j] = scratch.misr[j - 1];
                }
                scratch.misr_next[0] = 0;
                for (j, n) in scratch.misr_next.iter_mut().enumerate() {
                    if (ctx.misr_taps >> j) & 1 == 1 {
                        *n ^= fb;
                    }
                }
                for (oi, &o) in ctx.obs.iter().enumerate() {
                    let on = o.index();
                    scratch.misr_next[oi % ctx.misr_width] ^= gbit(cols, on, r) ^ devs.dev[on];
                }
                std::mem::swap(&mut scratch.misr, &mut scratch.misr_next);
                let is_read = read_cursor < trace.sigs.len() && trace.sigs[read_cursor].0 == t;
                if is_read {
                    let (_, read_idx, good_sig) = trace.sigs[read_cursor];
                    read_cursor += 1;
                    for (l, af) in chunk.iter().enumerate() {
                        let mut sig = 0u64;
                        for (j, &w) in scratch.misr.iter().enumerate() {
                            sig |= ((w >> l) & 1) << j;
                        }
                        if sig != good_sig {
                            if first_det[l].is_none() {
                                first_det[l] = Some(t);
                                if !ctx.collect {
                                    live &= !(1u64 << l);
                                }
                            }
                            if ctx.collect {
                                out.events.push((af.idx, read_idx, sig));
                            }
                        }
                    }
                }
            }

            // Clock. Only flip-flops whose `d` was stored with a deviation
            // this cycle can deviate next cycle; everything else snaps back
            // to the good trajectory, so `qdev` is rebuilt from `touched`.
            // Lane `r` of `d`'s column is the good `q` entering the next
            // cycle.
            scratch.qdev.fill(0);
            for &k in &devs.touched {
                let j = k as usize;
                let dn = dff_d[j] as usize;
                let d = devs.dev[dn];
                scratch.qwords[j] = gbit(cols, dn, r) ^ d;
                if d & live != 0 {
                    scratch.qdev[j / 64] |= 1u64 << (j % 64);
                }
            }
            devs.reset();
            // Every lane detected and no syndromes wanted: the rest of the
            // window cannot change any output (detected faults are dropped
            // at the window boundary), so stop simulating this chunk.
            if live == 0 {
                break;
            }
        }

        for &p in &site_ops {
            scratch.inj_ops[p as usize / 64] = 0;
        }
        for (l, d) in first_det.iter().enumerate() {
            if let Some(t) = d {
                out.detections.push((chunk[l].idx, *t));
            }
        }

        // Extract survivor states: start from the good end-of-window state
        // and overlay the deviating flip-flops and the MISR lane words, then
        // every lane's transition `prev` bit from its injection entry.
        for (l, af) in chunk.iter_mut().enumerate() {
            af.state.copy_from_slice(&trace.next_state);
            for wi in 0..scratch.qdev.len() {
                let mut rem = scratch.qdev[wi];
                while rem != 0 {
                    let j = wi * 64 + rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    set_bit(&mut af.state, j, (scratch.qwords[j] >> l) & 1 == 1);
                }
            }
            for (j, &w) in scratch.misr.iter().enumerate() {
                set_bit(&mut af.state, ndff + 1 + j, (w >> l) & 1 == 1);
            }
        }
        for inj in &injs {
            for e in inj.out.iter().chain(inj.pins.iter().flat_map(|(_, e)| e)) {
                set_bit(&mut chunk[e.lane as usize].state, ndff, e.prev);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The prefix scans agree with `apply`'s cycle-by-cycle recurrence
    /// for every seed, on random good words and on the all-0/all-1 edges.
    #[test]
    fn forced_site_scans_match_the_apply_recurrence() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut words = vec![0, u64::MAX, 1, 1 << 63, !1];
        for _ in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Sparse and dense words both, so runs of 0s and 1s are long.
            words.push(x & (x >> 1));
            words.push(x | (x >> 3));
        }
        for kind in [
            FaultKind::Sa0,
            FaultKind::Sa1,
            FaultKind::SlowToRise,
            FaultKind::SlowToFall,
        ] {
            for &g in &words {
                for (prev, first_ever) in [(false, false), (true, false), (false, true)] {
                    let mut entries = [InjEntry {
                        lane: 0,
                        kind,
                        prev,
                    }];
                    let mut want = 0u64;
                    for r in 0..64 {
                        let v = apply((g >> r) & 1, &mut entries, first_ever && r == 0);
                        want |= (v & 1) << r;
                    }
                    assert_eq!(
                        forced_site(kind, g, prev, first_ever),
                        want,
                        "{kind:?} g={g:#x} prev={prev} first_ever={first_ever}"
                    );
                }
            }
        }
    }
}
