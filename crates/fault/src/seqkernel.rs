//! Compiled-kernel window engine for [`crate::SeqFaultSim`].
//!
//! [`KernelEngine`] executes one window of the `seqsim` window loop on top
//! of the flattened [`CompiledNetlist`] schedule, with one key
//! optimization: **incremental re-evaluation against the cached good
//! trace**. The good pass records the broadcast value of *every* net at
//! *every* cycle of the window; each 64-fault chunk then starts its cycle
//! from that row (one `memcpy`) and sweeps only the gates that can
//! actually deviate — seeded from the injection sites and from flip-flops
//! whose lane word differs from the good machine, expanding along the
//! kernel's scheduled fanout lists in topological order. Every net the
//! sweep never touches holds the good value by construction.
//!
//! Sequential state is tracked just as sparsely: a bitmap marks the
//! deviating flip-flops, and the clock edge only visits flip-flops whose
//! `d` net was stored with a deviation this cycle (via the kernel's
//! sequential-sink CSR) — so per-cycle chunk cost follows the size of the
//! deviated region, not the size of the netlist. Random BIST patterns drop
//! most faults early and surviving deviations are shallow, which is what
//! makes this the fast path.
//!
//! The contract — detections, syndrome streams, and survivor trajectories
//! — is pinned against the naive reference interpreter by the `fault`
//! conformance pair and the case-study leg of `difftest`.

use std::sync::Arc;

use soctest_netlist::CompiledNetlist;

use crate::seqsim::{
    apply, get_bit, set_bit, ActiveFault, ChunkOut, GoodTrace, InjEntry, WindowCtx,
};

/// The compiled-kernel window engine (see the [module docs](self)).
pub(crate) struct KernelEngine {
    kernel: Arc<CompiledNetlist>,
}

/// Per-worker scratch. `qdev` marks the flip-flops whose lane word
/// currently deviates from the good machine; `qwords[j]` is only meaningful
/// while bit `j` is set. `inj_mark` is stamped with `chunk_no` so it never
/// needs clearing between chunks; while a net's stamp is current,
/// `inj_slot` holds the index of its injection site. `sampled` stages the
/// good pass's `d` samples at each clock edge.
pub(crate) struct KernelScratch {
    vals: Vec<u64>,
    sampled: Vec<u64>,
    dev: Vec<u64>,
    stored: Vec<u32>,
    pending: Vec<u64>,
    qwords: Vec<u64>,
    qdev: Vec<u64>,
    touched: Vec<u32>,
    misr: Vec<u64>,
    misr_next: Vec<u64>,
    inj_mark: Vec<u64>,
    inj_slot: Vec<u8>,
    chunk_no: u64,
}

impl KernelEngine {
    pub(crate) fn new(kernel: Arc<CompiledNetlist>) -> Self {
        KernelEngine { kernel }
    }
}

/// Broadcast of the good bit of `net` from a packed per-cycle row.
#[inline]
fn gbit(row: &[u64], net: usize) -> u64 {
    0u64.wrapping_sub((row[net / 64] >> (net % 64)) & 1)
}

impl KernelEngine {
    /// Allocates one worker's scratchpad, reused across windows and chunks.
    pub(crate) fn new_scratch(&self, ctx: &WindowCtx<'_>) -> KernelScratch {
        let sched_words = self.kernel.ops().div_ceil(64).max(1);
        KernelScratch {
            vals: self.kernel.fresh_values(),
            sampled: Vec::with_capacity(ctx.ndff),
            dev: vec![0u64; self.kernel.nets()],
            stored: Vec::new(),
            pending: vec![0u64; sched_words],
            qwords: vec![0u64; ctx.ndff],
            qdev: vec![0u64; ctx.ndff.div_ceil(64).max(1)],
            touched: Vec::new(),
            misr: vec![0u64; ctx.misr_width],
            misr_next: vec![0u64; ctx.misr_width],
            inj_mark: vec![0u64; self.kernel.nets()],
            inj_slot: vec![0u8; self.kernel.nets()],
            chunk_no: 0,
        }
    }

    /// Simulates the good machine alone over one window. Besides the MISR
    /// signatures at read boundaries and the end-of-window state, it
    /// captures the good value of every net at every cycle as a packed
    /// per-cycle bitmap — small enough to stay cache-resident while every
    /// chunk replays the window against it.
    pub(crate) fn good_window(
        &self,
        ctx: &WindowCtx<'_>,
        good_state: &[u64],
        window_start: u64,
        wlen: u64,
        scratch: &mut KernelScratch,
    ) -> GoodTrace {
        let kernel = &*self.kernel;
        let net_words = kernel.nets().div_ceil(64).max(1);
        let mut trace = GoodTrace {
            sigs: Vec::new(),
            next_state: vec![0u64; good_state.len()],
            net_bits: vec![0u64; net_words * wlen as usize],
            net_words,
        };
        let values = &mut scratch.vals;
        let sampled = &mut scratch.sampled;

        for (j, &q) in kernel.dff_q().iter().enumerate() {
            values[q as usize] = if get_bit(good_state, j) { u64::MAX } else { 0 };
        }
        let mut misr: u64 = (0..ctx.misr_width).rev().fold(0u64, |acc, j| {
            (acc << 1) | u64::from(get_bit(good_state, ctx.ndff + 1 + j))
        });
        let misr_mask = match ctx.misr_width {
            0 => 0,
            64.. => u64::MAX,
            w => (1u64 << w) - 1,
        };
        // Monotone read-index counter, seeded with the number of boundary
        // reads strictly before this window (`t` is absolute, so earlier
        // windows contributed exactly `window_start / read_every` reads;
        // the forced off-boundary final read can only occur in the last
        // window). Assigning indices sequentially instead of re-deriving
        // `t / read_every` per read makes collisions between a boundary
        // read and the forced final read structurally impossible.
        let mut read_idx = if ctx.misr_width == 0 {
            0
        } else {
            window_start / ctx.misr_read
        };

        for t in window_start..window_start + wlen {
            for (k, &pi) in kernel.pis().iter().enumerate() {
                values[pi as usize] = if ctx.stim.get(t, k) { u64::MAX } else { 0 };
            }
            kernel.eval(values);
            let rel = (t - window_start) as usize;
            let row = &mut trace.net_bits[rel * net_words..(rel + 1) * net_words];
            for (net, &v) in values.iter().enumerate() {
                row[net / 64] |= (v & 1) << (net % 64);
            }
            if ctx.misr_width != 0 {
                // Scalar form of the per-lane MISR update in `run_chunk`.
                let fb = (misr >> (ctx.misr_width - 1)) & 1;
                let mut next = (misr << 1) & misr_mask;
                if fb == 1 {
                    next ^= ctx.misr_taps;
                }
                for (oi, &o) in ctx.obs.iter().enumerate() {
                    next ^= (values[o.index()] & 1) << (oi % ctx.misr_width);
                }
                misr = next & misr_mask;
                let is_read = (t + 1) % ctx.misr_read == 0 || t + 1 == ctx.total_cycles;
                if is_read {
                    trace.sigs.push((t, read_idx, misr));
                    read_idx += 1;
                }
            }
            // Clock: stage every d sample before writing any q so chained
            // flip-flops see pre-edge values.
            sampled.clear();
            sampled.extend(kernel.dff_d().iter().map(|&d| values[d as usize]));
            for (&q, &v) in kernel.dff_q().iter().zip(sampled.iter()) {
                values[q as usize] = v;
            }
        }

        for (j, &q) in kernel.dff_q().iter().enumerate() {
            set_bit(&mut trace.next_state, j, values[q as usize] & 1 == 1);
        }
        for j in 0..ctx.misr_width {
            set_bit(
                &mut trace.next_state,
                ctx.ndff + 1 + j,
                (misr >> j) & 1 == 1,
            );
        }
        trace
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
        let nw = trace.net_words;
        let mut out = ChunkOut::default();
        let mut first_det: Vec<Option<u64>> = vec![None; chunk.len()];
        let lanes_mask = if chunk.len() == 64 {
            u64::MAX
        } else {
            (1u64 << chunk.len()) - 1
        };
        let ndff = ctx.ndff;
        let (dff_q, dff_d) = (kernel.dff_q(), kernel.dff_d());
        // In-window fault dropping: once a lane has its first detection it
        // can no longer influence anything observable (post-detection
        // deviations are only meaningful to syndrome collection), so when
        // syndromes are off the lane is masked out of every *propagation
        // decision*. Bitwise evaluation is lane-pure — an op's live-lane
        // output bits depend only on live-lane input bits — so the live
        // lanes stay exact while dead-lane wavefronts collapse.
        let mut live = lanes_mask;

        // Load the sparse flip-flop/MISR lane state: broadcast the good
        // bits, then flip the lanes whose packed state diffs from the good
        // machine (deviating state bits are rare, so walk the XOR words).
        scratch.qdev.fill(0);
        for (j, m) in scratch.misr.iter_mut().enumerate() {
            *m = if get_bit(good_state, ndff + 1 + j) {
                u64::MAX
            } else {
                0
            };
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
                            scratch.qwords[sbit] = if get_bit(good_state, sbit) {
                                u64::MAX
                            } else {
                                0
                            };
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

        // Injection sites: one per faulted net, in first-lane order, each
        // with its entries in lane order; then split into scheduled gate
        // sites and source sites.
        scratch.chunk_no += 1;
        let chunk_no = scratch.chunk_no;
        let mut sites: Vec<(u32, Vec<InjEntry>)> = Vec::new();
        for (l, af) in chunk.iter().enumerate() {
            let f = ctx.faults[af.idx];
            let n = f.net.0 as usize;
            if scratch.inj_mark[n] != chunk_no {
                scratch.inj_mark[n] = chunk_no;
                scratch.inj_slot[n] = sites.len() as u8;
                sites.push((f.net.0, Vec::new()));
            }
            sites[scratch.inj_slot[n] as usize].1.push(InjEntry {
                lane: l as u8,
                kind: f.kind,
                prev: get_bit(&af.state, ndff),
            });
        }
        let mut site_ops: Vec<u32> = Vec::new();
        let mut src_sites: Vec<usize> = Vec::new();
        for (s, &(net, _)) in sites.iter().enumerate() {
            match kernel.sched_of(net) {
                Some(p) => site_ops.push(p as u32),
                None => src_sites.push(s),
            }
        }

        let mut read_cursor = 0usize;
        for t in window_start..window_start + wlen {
            let first_ever = t == 0;
            let rel = (t - window_start) as usize;
            let row = &trace.net_bits[rel * nw..(rel + 1) * nw];

            // Deviating flip-flop outputs only — `qdev` guarantees the lane
            // word differs, so fanouts and d-sinks are seeded untested.
            for wi in 0..scratch.qdev.len() {
                let mut rem = scratch.qdev[wi];
                while rem != 0 {
                    let j = wi * 64 + rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    let q = dff_q[j];
                    scratch.dev[q as usize] = scratch.qwords[j] ^ gbit(row, q as usize);
                    scratch.stored.push(q);
                    for &op in kernel.fanout_ops(q) {
                        scratch.pending[op as usize / 64] |= 1u64 << (op % 64);
                    }
                    for &k in kernel.dff_d_sinks(q) {
                        scratch.touched.push(k);
                    }
                }
            }
            // Source-site injections (primary inputs, flip-flop outputs,
            // constants) — applied before the sweep.
            for &s in &src_sites {
                let (net, entries) = &mut sites[s];
                let net = *net;
                let n = net as usize;
                let g = gbit(row, n);
                let w = apply(g ^ scratch.dev[n], entries, first_ever);
                scratch.dev[n] = w ^ g;
                scratch.stored.push(net);
                if (w ^ g) & live != 0 {
                    for &op in kernel.fanout_ops(net) {
                        scratch.pending[op as usize / 64] |= 1u64 << (op % 64);
                    }
                    for &k in kernel.dff_d_sinks(net) {
                        scratch.touched.push(k);
                    }
                }
            }
            // Injected gates are evaluated every cycle: their outputs are
            // forced, and transition injections must update `prev`.
            for &p in &site_ops {
                scratch.pending[p as usize / 64] |= 1u64 << (p % 64);
            }

            // Event-driven sweep in schedule order. Fanout positions are
            // strictly greater than the producing op's, so newly seeded
            // work always lies ahead of the cursor.
            for wi in 0..scratch.pending.len() {
                loop {
                    let rem = scratch.pending[wi];
                    if rem == 0 {
                        break;
                    }
                    let b = rem.trailing_zeros() as usize;
                    scratch.pending[wi] &= !(1u64 << b);
                    let p = wi * 64 + b;
                    let [pa, pb, pc] = kernel.op_pins(p);
                    let mut w = kernel.eval_pins(
                        p,
                        [
                            gbit(row, pa as usize) ^ scratch.dev[pa as usize],
                            gbit(row, pb as usize) ^ scratch.dev[pb as usize],
                            gbit(row, pc as usize) ^ scratch.dev[pc as usize],
                        ],
                    );
                    let outn = kernel.op_out(p);
                    if scratch.inj_mark[outn as usize] == chunk_no {
                        let entries = &mut sites[scratch.inj_slot[outn as usize] as usize].1;
                        w = apply(w, entries, first_ever);
                    }
                    let d = w ^ gbit(row, outn as usize);
                    scratch.dev[outn as usize] = d;
                    scratch.stored.push(outn);
                    if d & live != 0 {
                        for &op in kernel.fanout_ops(outn) {
                            scratch.pending[op as usize / 64] |= 1u64 << (op % 64);
                        }
                        for &k in kernel.dff_d_sinks(outn) {
                            scratch.touched.push(k);
                        }
                    }
                }
            }

            // Observation. The obs loop runs in `oi` order, so events stream
            // in (cycle, output) order per fault.
            if ctx.misr_width == 0 {
                for (oi, &o) in ctx.obs.iter().enumerate() {
                    let on = o.index();
                    let mut diff = scratch.dev[on] & live;
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
                    scratch.misr_next[oi % ctx.misr_width] ^= gbit(row, on) ^ scratch.dev[on];
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
            // `row[d]` is the good post-eval value of `d` at this cycle,
            // i.e. the good `q` entering the next cycle.
            scratch.qdev.fill(0);
            for &k in &scratch.touched {
                let j = k as usize;
                let dn = dff_d[j] as usize;
                let d = scratch.dev[dn];
                scratch.qwords[j] = gbit(row, dn) ^ d;
                if d & live != 0 {
                    scratch.qdev[j / 64] |= 1u64 << (j % 64);
                }
            }
            scratch.touched.clear();
            // Reset the deviation overlay sparsely: only stored nets can
            // hold a nonzero word, so `dev` is all-zero again afterwards.
            for &n in &scratch.stored {
                scratch.dev[n as usize] = 0;
            }
            scratch.stored.clear();
            // Every lane detected and no syndromes wanted: the rest of the
            // window cannot change any output (detected faults are dropped
            // at the window boundary), so stop simulating this chunk.
            if live == 0 {
                break;
            }
        }

        for (l, d) in first_det.iter().enumerate() {
            if let Some(t) = d {
                out.detections.push((chunk[l].idx, *t));
            }
        }

        // Extract survivor states: start from the good end-of-window state
        // and overlay the deviating flip-flops, the transition `prev` bit,
        // and the MISR lane words.
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
            let f = ctx.faults[af.idx];
            let entries = &sites[scratch.inj_slot[f.net.0 as usize] as usize].1;
            if let Some(e) = entries.iter().find(|e| e.lane as usize == l) {
                set_bit(&mut af.state, ndff, e.prev);
            }
            for (j, &w) in scratch.misr.iter().enumerate() {
                set_bit(&mut af.state, ndff + 1 + j, (w >> l) & 1 == 1);
            }
        }
        out
    }
}
