//! Compiled structure-of-arrays netlist kernel.
//!
//! [`compile`] flattens a [`Netlist`] into a [`CompiledNetlist`]: a
//! levelized, contiguous, `u32`-indexed execution schedule that the fault
//! simulators (and any other hot loop) can sweep at memory-bandwidth speed
//! instead of chasing per-gate heap pointers through the graph. The
//! compiled form is immutable and shared behind an [`Arc`], so one
//! compilation serves every engine, window, and worker thread of a
//! campaign.
//!
//! The kernel carries two things on top of the plain gate list:
//!
//! * **Levelized SoA schedule** — every combinational gate as parallel
//!   arrays (`kind`, output net, fixed-width pin triple), ordered
//!   level-major so each level occupies a contiguous range
//!   ([`CompiledNetlist::level_range`]), and grouped by kind within a
//!   level so [`CompiledNetlist::eval`] picks the gate function once per
//!   run of one kind.
//! * **Scheduled fanout CSR** — for every net, the ascending schedule
//!   positions of the combinational gates it feeds
//!   ([`CompiledNetlist::fanout_ops`]), the seed set for event-driven
//!   incremental re-evaluation.
//!
//! [`compile_folding`] compiles with chosen buffers folded away — the fault
//! view's fanout-branch buffers — so the schedule holds only the gates a
//! simulation must evaluate, while net ids stay those of the netlist.
//!
//! Evaluation over the compiled schedule is bit-identical to walking the
//! graph with [`crate::GateKind::eval_word`]: same gate semantics, any
//! topological order. `crates/conformance` pins the simulators built on it
//! against a naive one-bit reference interpreter.

use std::ops::Range;
use std::sync::Arc;

use crate::{GateKind, NetId, Netlist, NetlistError};

/// A flattened, levelized, structure-of-arrays compile of a [`Netlist`].
///
/// Create one with [`compile`] (or [`Netlist::compile`]); the comment at
/// the top of `kernel.rs` describes the layout.
#[derive(Debug)]
pub struct CompiledNetlist {
    nets: usize,
    // SoA over scheduled (combinational) gates, level-major order.
    op_kind: Vec<GateKind>,
    op_out: Vec<u32>,
    op_pins: Vec<[u32; 3]>,
    /// Maximal runs of one gate kind over the schedule: `(kind, end)`,
    /// each run starting where the previous one ends.
    kind_runs: Vec<(GateKind, u32)>,
    level_offsets: Vec<u32>,
    /// Per net: schedule position + 1 of its driving gate (0 = source or
    /// folded buffer).
    sched_of: Vec<u32>,
    pis: Vec<u32>,
    pos: Vec<u32>,
    dff_q: Vec<u32>,
    dff_d: Vec<u32>,
    const1: Vec<u32>,
    // CSR: net -> ascending schedule positions of its combinational sinks.
    fan_off: Vec<u32>,
    fan_ops: Vec<u32>,
    // CSR: net -> indices of flip-flops whose `d` pin it drives.
    dsink_off: Vec<u32>,
    dsink_idx: Vec<u32>,
}

/// Compiles `netlist` into an [`Arc`]-shared [`CompiledNetlist`].
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the combinational
/// subgraph cannot be levelized.
pub fn compile(netlist: &Netlist) -> Result<Arc<CompiledNetlist>, NetlistError> {
    compile_folding(netlist, |_| false)
}

/// Compiles `netlist` with the buffers `fold` selects folded away. A
/// selected [`GateKind::Buf`] that feeds no flip-flop `d` pin and is no
/// primary output is not scheduled: every gate it feeds reads the buffer's
/// input in its place. Its net keeps its id as a dead net — not a source,
/// never written, 0 in every value array — so net ids and the ids of
/// everything that refers to them do not move. Levels are those of the
/// folded graph. The fault view folds its fanout-branch buffers this way
/// and injects a branch fault at the pin the branch fed.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the combinational
/// subgraph cannot be levelized.
pub fn compile_folding(
    netlist: &Netlist,
    fold: impl Fn(NetId) -> bool,
) -> Result<Arc<CompiledNetlist>, NetlistError> {
    let n = netlist.len();
    let order = netlist.levelize()?;
    let mut folded: Vec<bool> = netlist
        .iter()
        .map(|(id, g)| g.kind == GateKind::Buf && fold(id))
        .collect();
    for q in netlist.dffs() {
        folded[netlist.gate(q).pins[0].index()] = false;
    }
    for po in netlist.primary_outputs() {
        folded[po.index()] = false;
    }
    let resolve = |mut net: NetId| {
        while folded[net.index()] {
            net = netlist.gate(net).pins[0];
        }
        net
    };
    // Levels of the folded graph, along the unfolded topological order
    // (folding only shortcuts edges, so the order stays topological).
    let mut levels = vec![0u32; n];
    for &id in &order {
        if !folded[id.index()] {
            let pins = &netlist.gate(id).pins;
            let deepest = pins.iter().map(|&p| levels[resolve(p).index()]).max();
            levels[id.index()] = deepest.unwrap_or(0) + 1;
        }
    }
    // Level-major schedule, grouped by gate kind within a level (gates of
    // one level are independent, so any order among them is valid) and
    // then by net id, so the layout is deterministic for a given netlist.
    let mut sched: Vec<u32> = order
        .iter()
        .filter(|id| !folded[id.index()])
        .map(|id| id.0)
        .collect();
    sched.sort_by_key(|&id| (levels[id as usize], netlist.gate(NetId(id)).kind as u8, id));

    let max_level = sched.last().map_or(0, |&id| levels[id as usize] as usize);
    let mut level_offsets = vec![0u32; max_level + 2];
    let mut op_kind = Vec::with_capacity(sched.len());
    let mut arity = Vec::with_capacity(sched.len());
    let mut op_out = Vec::with_capacity(sched.len());
    let mut op_pins = Vec::with_capacity(sched.len());
    let mut sched_of = vec![0u32; n];
    let mut kind_runs: Vec<(GateKind, u32)> = Vec::new();
    for (p, &id) in sched.iter().enumerate() {
        let gate = netlist.gate(NetId(id));
        match kind_runs.last_mut() {
            Some((kind, end)) if *kind == gate.kind => *end = p as u32 + 1,
            _ => kind_runs.push((gate.kind, p as u32 + 1)),
        }
        let mut pins = [0u32; 3];
        for (i, &pin) in gate.pins.iter().enumerate() {
            pins[i] = resolve(pin).0;
        }
        op_kind.push(gate.kind);
        arity.push(gate.pins.len() as u8);
        op_out.push(id);
        op_pins.push(pins);
        sched_of[id as usize] = p as u32 + 1;
        // Scheduled gates are level >= 1; record the end of each level.
        level_offsets[levels[id as usize] as usize] = p as u32 + 1;
    }
    // Turn per-level end positions into monotone offsets.
    for l in 1..level_offsets.len() {
        if level_offsets[l] < level_offsets[l - 1] {
            level_offsets[l] = level_offsets[l - 1];
        }
    }

    // Fanout CSR over scheduled sinks, ascending by construction.
    let mut fan_count = vec![0u32; n];
    for (p, pins) in op_pins.iter().enumerate() {
        for (i, &pin) in pins.iter().enumerate().take(arity[p] as usize) {
            // Skip duplicate pins on the same net (count each sink once).
            if i == 0 || pins[..i].iter().all(|&q| q != pin) {
                fan_count[pin as usize] += 1;
            }
        }
    }
    let mut fan_off = vec![0u32; n + 1];
    for i in 0..n {
        fan_off[i + 1] = fan_off[i] + fan_count[i];
    }
    let mut fan_ops = vec![0u32; fan_off[n] as usize];
    let mut cursor: Vec<u32> = fan_off[..n].to_vec();
    for (p, pins) in op_pins.iter().enumerate() {
        for (i, &pin) in pins.iter().enumerate().take(arity[p] as usize) {
            if i == 0 || pins[..i].iter().all(|&q| q != pin) {
                fan_ops[cursor[pin as usize] as usize] = p as u32;
                cursor[pin as usize] += 1;
            }
        }
    }

    let mut pis = Vec::new();
    let mut pos = Vec::new();
    for id in netlist.primary_inputs() {
        pis.push(id.0);
    }
    for id in netlist.primary_outputs() {
        pos.push(id.0);
    }
    let mut dff_q = Vec::new();
    let mut dff_d = Vec::new();
    for q in netlist.dffs() {
        dff_q.push(q.0);
        dff_d.push(netlist.gate(q).pins[0].0);
    }
    let const1: Vec<u32> = netlist
        .iter()
        .filter(|(_, g)| g.kind == GateKind::Const1)
        .map(|(id, _)| id.0)
        .collect();

    // Sequential-sink CSR: net -> flip-flop indices clocked from it (the
    // complement of the combinational fanout CSR, used by incremental
    // engines to track which state bits a deviation can reach at the edge).
    let mut dsink_count = vec![0u32; n];
    for &d in &dff_d {
        dsink_count[d as usize] += 1;
    }
    let mut dsink_off = vec![0u32; n + 1];
    for i in 0..n {
        dsink_off[i + 1] = dsink_off[i] + dsink_count[i];
    }
    let mut dsink_idx = vec![0u32; dsink_off[n] as usize];
    let mut dcursor: Vec<u32> = dsink_off[..n].to_vec();
    for (j, &d) in dff_d.iter().enumerate() {
        dsink_idx[dcursor[d as usize] as usize] = j as u32;
        dcursor[d as usize] += 1;
    }

    Ok(Arc::new(CompiledNetlist {
        nets: n,
        op_kind,
        op_out,
        op_pins,
        kind_runs,
        level_offsets,
        sched_of,
        pis,
        pos,
        dff_q,
        dff_d,
        const1,
        fan_off,
        fan_ops,
        dsink_off,
        dsink_idx,
    }))
}

impl Netlist {
    /// Compiles this netlist into an [`Arc`]-shared SoA kernel; see
    /// [`compile`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the combinational
    /// subgraph cannot be levelized.
    pub fn compile(&self) -> Result<Arc<CompiledNetlist>, NetlistError> {
        compile(self)
    }
}

/// Evaluates one scheduled gate on single-word operands; identical to
/// [`GateKind::eval_word`] for combinational kinds.
#[inline]
fn eval_op(kind: GateKind, a: u64, b: u64, c: u64) -> u64 {
    match kind {
        GateKind::Buf => a,
        GateKind::Not => !a,
        GateKind::And => a & b,
        GateKind::Or => a | b,
        GateKind::Nand => !(a & b),
        GateKind::Nor => !(a | b),
        GateKind::Xor => a ^ b,
        GateKind::Xnor => !(a ^ b),
        GateKind::Mux2 => (!a & b) | (a & c),
        // Sources are never scheduled; Const1 is materialized in the value
        // array, not evaluated.
        GateKind::Input | GateKind::Const0 | GateKind::Const1 | GateKind::Dff => 0,
    }
}

/// Evaluates one run of `kind` gates. Always inlined, and every caller
/// passes a constant `kind`, so the gate function folds out of the loop.
#[inline(always)]
fn sweep(kind: GateKind, values: &mut [u64], pins: &[[u32; 3]], outs: &[u32]) {
    for (&[a, b, c], &out) in pins.iter().zip(outs) {
        values[out as usize] = eval_op(
            kind,
            values[a as usize],
            values[b as usize],
            values[c as usize],
        );
    }
}

impl CompiledNetlist {
    /// Total net (= gate) count of the source netlist.
    pub fn nets(&self) -> usize {
        self.nets
    }

    /// Number of scheduled combinational gates.
    pub fn ops(&self) -> usize {
        self.op_kind.len()
    }

    /// Number of logic levels in the schedule.
    pub fn levels(&self) -> usize {
        self.level_offsets.len() - 1
    }

    /// The contiguous schedule range occupied by level `l` (1-based levels;
    /// level 0 holds the sources and is always empty).
    pub fn level_range(&self, l: usize) -> Range<usize> {
        if l == 0 || l >= self.level_offsets.len() {
            return 0..0;
        }
        self.level_offsets[l - 1] as usize..self.level_offsets[l] as usize
    }

    /// Output net of the gate at schedule position `p`.
    #[inline]
    pub fn op_out(&self, p: usize) -> u32 {
        self.op_out[p]
    }

    /// The pin triple of the gate at schedule position `p` (unused pins 0).
    #[inline]
    pub fn op_pins(&self, p: usize) -> [u32; 3] {
        self.op_pins[p]
    }

    /// Schedule position of the gate driving `net`, or `None` for sources
    /// and for buffers [`compile_folding`] folded away.
    #[inline]
    pub fn sched_of(&self, net: u32) -> Option<usize> {
        let s = self.sched_of[net as usize];
        (s != 0).then(|| s as usize - 1)
    }

    /// Primary-input nets, in port order.
    pub fn pis(&self) -> &[u32] {
        &self.pis
    }

    /// Primary-output nets, in port order.
    pub fn pos(&self) -> &[u32] {
        &self.pos
    }

    /// Flip-flop output (`q`) nets, in [`Netlist::dffs`] order.
    pub fn dff_q(&self) -> &[u32] {
        &self.dff_q
    }

    /// Flip-flop data (`d`) nets, aligned with [`CompiledNetlist::dff_q`].
    pub fn dff_d(&self) -> &[u32] {
        &self.dff_d
    }

    /// Constant-1 nets (their value word must be all-ones).
    pub fn const1(&self) -> &[u32] {
        &self.const1
    }

    /// Ascending schedule positions of the combinational gates fed by
    /// `net` (flip-flop `d` sinks are sequential and not listed).
    #[inline]
    pub fn fanout_ops(&self, net: u32) -> &[u32] {
        let s = self.fan_off[net as usize] as usize;
        let e = self.fan_off[net as usize + 1] as usize;
        &self.fan_ops[s..e]
    }

    /// Indices (into [`CompiledNetlist::dff_q`] order) of the flip-flops
    /// whose `d` pin `net` drives — the sequential complement of
    /// [`CompiledNetlist::fanout_ops`].
    #[inline]
    pub fn dff_d_sinks(&self, net: u32) -> &[u32] {
        let s = self.dsink_off[net as usize] as usize;
        let e = self.dsink_off[net as usize + 1] as usize;
        &self.dsink_idx[s..e]
    }

    /// A value array sized for this kernel with constants materialized.
    pub fn fresh_values(&self) -> Vec<u64> {
        let mut values = vec![0u64; self.nets];
        for &c in &self.const1 {
            values[c as usize] = u64::MAX;
        }
        values
    }

    /// One full evaluation pass over the schedule (64 lanes per net).
    ///
    /// Sweeps one kind run at a time, so the gate function is chosen once
    /// per run instead of once per gate.
    pub fn eval(&self, values: &mut [u64]) {
        let mut start = 0;
        for &(kind, end) in &self.kind_runs {
            let end = end as usize;
            let pins = &self.op_pins[start..end];
            let outs = &self.op_out[start..end];
            match kind {
                GateKind::Buf => sweep(GateKind::Buf, values, pins, outs),
                GateKind::Not => sweep(GateKind::Not, values, pins, outs),
                GateKind::And => sweep(GateKind::And, values, pins, outs),
                GateKind::Or => sweep(GateKind::Or, values, pins, outs),
                GateKind::Nand => sweep(GateKind::Nand, values, pins, outs),
                GateKind::Nor => sweep(GateKind::Nor, values, pins, outs),
                GateKind::Xor => sweep(GateKind::Xor, values, pins, outs),
                GateKind::Xnor => sweep(GateKind::Xnor, values, pins, outs),
                GateKind::Mux2 => sweep(GateKind::Mux2, values, pins, outs),
                // Sources are never scheduled.
                GateKind::Input | GateKind::Const0 | GateKind::Const1 | GateKind::Dff => {}
            }
            start = end;
        }
    }

    /// Evaluates the gate at schedule position `p` against caller-supplied
    /// pin words (in `op_pins` slot order; unused slots are ignored) and
    /// returns the result. Lets incremental engines substitute per-pin
    /// fallback values without materializing a full `values` array.
    #[inline]
    pub fn eval_pins(&self, p: usize, pins: [u64; 3]) -> u64 {
        eval_op(self.op_kind[p], pins[0], pins[1], pins[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModuleBuilder;

    fn sample() -> Netlist {
        let mut mb = ModuleBuilder::new("blk");
        let a = mb.input_bus("a", 4);
        let x0 = mb.xor(a[0], a[1]);
        let x1 = mb.and(a[2], a[3]);
        let o = mb.or(x0, x1);
        let q = mb.register(&[x0, x1, o]);
        mb.output_bus("q", &q);
        mb.finish().unwrap()
    }

    #[test]
    fn compile_schedules_every_comb_gate_in_level_major_order() {
        let nl = sample();
        let k = nl.compile().unwrap();
        let comb = nl.gates().iter().filter(|g| !g.kind.is_source()).count();
        assert_eq!(k.ops(), comb);
        assert_eq!(k.nets(), nl.len());
        let levels = nl.levels().unwrap();
        // Level-major: levels are non-decreasing along the schedule and
        // every level occupies exactly its level_range.
        let mut prev = 0;
        for p in 0..k.ops() {
            let l = levels[k.op_out(p) as usize];
            assert!(l >= prev, "schedule must be level-major");
            assert!(k.level_range(l as usize).contains(&p));
            prev = l;
        }
        // Topological: every pin is a source or scheduled earlier.
        for p in 0..k.ops() {
            let arity = nl.gate(NetId(k.op_out(p))).pins.len();
            for &pin in k.op_pins(p).iter().take(arity) {
                match k.sched_of(pin) {
                    None => {}
                    Some(q) => assert!(q < p),
                }
            }
        }
    }

    #[test]
    fn kernel_eval_matches_graph_eval_word() {
        let nl = sample();
        let k = nl.compile().unwrap();
        let order = nl.levelize().unwrap();
        for seed in 0..16u64 {
            let mut kv = k.fresh_values();
            let mut gv = k.fresh_values();
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for &pi in k.pis() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                kv[pi as usize] = s;
                gv[pi as usize] = s;
            }
            k.eval(&mut kv);
            let mut pins = [0u64; 3];
            for &id in &order {
                let gate = nl.gate(id);
                for (i, &p) in gate.pins.iter().enumerate() {
                    pins[i] = gv[p.index()];
                }
                gv[id.index()] = gate.kind.eval_word(&pins[..gate.pins.len()]);
            }
            assert_eq!(kv, gv, "seed {seed}");
        }
    }

    #[test]
    fn fanout_ops_are_ascending_and_complete() {
        let nl = sample();
        let k = nl.compile().unwrap();
        for net in 0..k.nets() as u32 {
            let ops = k.fanout_ops(net);
            assert!(ops.windows(2).all(|w| w[0] < w[1]), "ascending, deduped");
            for &p in ops {
                assert!(
                    k.op_pins(p as usize).contains(&net),
                    "fanout op must read the net"
                );
            }
        }
        // Every scheduled pin appears in its net's fanout list.
        for p in 0..k.ops() {
            let arity = nl.gate(NetId(k.op_out(p))).pins.len();
            for &pin in k.op_pins(p).iter().take(arity) {
                assert!(k.fanout_ops(pin).contains(&(p as u32)));
            }
        }
    }

    /// A folded buffer's readers read its input and its net stays dead; a
    /// selected buffer into a flip-flop `d` pin or a primary output stays
    /// scheduled. Every other net evaluates as in the unfolded kernel.
    #[test]
    fn folding_rewires_readers_and_keeps_d_pin_and_output_buffers() {
        let mut mb = ModuleBuilder::new("fold");
        let a = mb.input_bus("a", 2);
        let (ba, bb) = (mb.buf(a[0]), mb.buf(a[1]));
        let x = mb.and(ba, bb);
        let y = mb.xor(bb, x);
        let bd = mb.buf(y);
        let q = mb.dff(bd);
        let bo = mb.buf(q);
        mb.output_bus("y", &[y, bo]);
        let nl = mb.finish().unwrap();
        let bufs = [ba, bb, bd, bo];
        let plain = nl.compile().unwrap();
        let folded = compile_folding(&nl, |n| bufs.contains(&n)).unwrap();
        assert_eq!(folded.ops(), plain.ops() - 2);
        assert_eq!(folded.levels(), plain.levels() - 1);
        for (net, scheduled) in [(ba, false), (bb, false), (bd, true), (bo, true)] {
            assert_eq!(folded.sched_of(net.0).is_some(), scheduled, "{net}");
        }
        let and = folded.sched_of(x.0).unwrap();
        assert_eq!(folded.op_pins(and)[..2], [a[0].0, a[1].0]);
        assert_eq!(folded.fanout_ops(a[1].0).len(), 2, "x and y read a[1]");
        assert!(folded.fanout_ops(bb.0).is_empty());
        for word in [0u64, u64::MAX, 0x5A5A_F0F0_3C3C_9999] {
            let (mut pv, mut fv) = (plain.fresh_values(), folded.fresh_values());
            for (v, &pi) in [word, !word.rotate_left(7)].iter().zip(plain.pis()) {
                pv[pi as usize] = *v;
                fv[pi as usize] = *v;
            }
            plain.eval(&mut pv);
            folded.eval(&mut fv);
            for net in 0..nl.len() {
                let dead = net == ba.index() || net == bb.index();
                let want = if dead { 0 } else { pv[net] };
                assert_eq!(fv[net], want, "net {net}");
            }
        }
    }

    #[test]
    fn compile_is_shareable_across_threads() {
        let nl = sample();
        let k = nl.compile().unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let k = Arc::clone(&k);
                s.spawn(move || {
                    let mut v = k.fresh_values();
                    k.eval(&mut v);
                });
            }
        });
    }

    #[test]
    fn cyclic_netlists_fail_to_compile() {
        let mut nl = Netlist::new("cyc");
        let a = nl.add_gate(GateKind::Input, vec![]);
        let b = nl.add_gate_unchecked(GateKind::And, vec![a, NetId(2)]);
        let c = nl.add_gate_unchecked(GateKind::Or, vec![b, a]);
        nl.set_pin(b, 1, c);
        assert!(matches!(
            nl.compile(),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }
}
