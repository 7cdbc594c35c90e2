//! The event-driven deviation sweep both fault simulators run.
//!
//! [`Deviations`] overlays a good machine that holds one word per net — a
//! 64-pattern block in [`crate::CombFaultSim`], a window's 64 cycles in
//! the word pass of [`crate::SeqFaultSim`], one cycle's broadcast bit in
//! its lane engine — with `dev[n]`, net `n`'s XOR against the good word.
//! A `stored` list remembers the nets that deviate, so cleanup is
//! O(stored) rather than O(nets), and a two-level pending bitmap over
//! schedule positions sweeps exactly the gates downstream of a live
//! deviation, one level batch at a time.
//!
//! [`Deviations::propagate`] is the parallel-pattern single-fault entry
//! point both simulators share: it stores a fault site's deviation word —
//! or, for a fault on a folded fanout branch (see
//! [`crate::FaultUniverse`]), evaluates the sink gate once with its pin
//! forced — and sweeps it through the schedule. The lane engine drives
//! [`Deviations::store`] and [`Deviations::sweep`] itself, with its own
//! evaluation of the injected gates and a mask of live lanes.

use soctest_netlist::CompiledNetlist;

use crate::universe::Site;

/// The low `n` bits set (`n` ≤ 64).
#[inline]
pub(crate) fn low_mask(n: u64) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Per schedule position of `kernel`, the end of its level's position
/// range.
fn level_ends(kernel: &CompiledNetlist) -> Vec<u32> {
    let mut level_end = vec![0u32; kernel.ops()];
    for l in 1..=kernel.levels() {
        let range = kernel.level_range(l);
        level_end[range.clone()].fill(range.end as u32);
    }
    level_end
}

/// Pending schedule positions of one sweep: a bitmap over positions plus a
/// summary bitmap over its nonzero words, so a sweep visits only the words
/// that hold work. Work is always marked beyond the level being evaluated
/// (a gate's fanout sits at higher levels, and the schedule is
/// level-major), so `pop_level` can keep a forward cursor until the sweep
/// drains.
struct Pending {
    words: Vec<u64>,
    summary: Vec<u64>,
    cursor: usize,
}

impl Pending {
    fn new(ops: usize) -> Self {
        let words = ops.div_ceil(64).max(1);
        Pending {
            words: vec![0u64; words],
            summary: vec![0u64; words.div_ceil(64)],
            cursor: 0,
        }
    }

    #[inline]
    fn mark(&mut self, op: u32) {
        let w = op as usize / 64;
        self.words[w] |= 1u64 << (op % 64);
        self.summary[w / 64] |= 1u64 << (w % 64);
    }

    /// The pending positions of the lowest pending word that share the
    /// lowest one's level, removed, as `(word base, bits)`; `None` once
    /// drained (which rewinds the cursor for the next sweep). A level's
    /// gates never feed each other, so a batch can be evaluated in any
    /// order — the CPU overlaps their independent loads — and all the work
    /// it marks lies beyond it.
    #[inline]
    fn pop_level(&mut self, level_end: &[u32]) -> Option<(usize, u64)> {
        while let Some(&s) = self.summary.get(self.cursor) {
            if s == 0 {
                self.cursor += 1;
                continue;
            }
            let w = self.cursor * 64 + s.trailing_zeros() as usize;
            let bits = self.words[w];
            let base = w * 64;
            let end = level_end[base + bits.trailing_zeros() as usize] as usize - base;
            let batch = bits & low_mask(end as u64);
            let rest = bits & !batch;
            self.words[w] = rest;
            if rest == 0 {
                self.summary[self.cursor] &= !(1u64 << (w % 64));
            }
            return Some((base, batch));
        }
        self.cursor = 0;
        None
    }
}

/// The deviation overlay of one sweep: `dev[n]` is net `n`'s XOR against
/// the good machine (nonzero only for nets in `stored`), `touched` lists
/// the flip-flops whose `d` net was stored with a live deviation.
pub(crate) struct Deviations {
    pub(crate) dev: Vec<u64>,
    pub(crate) stored: Vec<u32>,
    pub(crate) touched: Vec<u32>,
    pending: Pending,
    /// Per schedule position, the end of its level's position range.
    level_end: Vec<u32>,
}

impl Deviations {
    pub(crate) fn new(kernel: &CompiledNetlist) -> Self {
        Deviations {
            dev: vec![0u64; kernel.nets()],
            stored: Vec::new(),
            touched: Vec::new(),
            pending: Pending::new(kernel.ops()),
            level_end: level_ends(kernel),
        }
    }

    /// Stores `d` as `net`'s deviation; a deviation in a `live` bit
    /// schedules the net's fanout and marks its flip-flop sinks.
    #[inline]
    pub(crate) fn store(&mut self, kernel: &CompiledNetlist, net: u32, d: u64, live: u64) {
        self.dev[net as usize] = d;
        self.stored.push(net);
        if d & live != 0 {
            for &op in kernel.fanout_ops(net) {
                self.pending.mark(op);
            }
            self.touched.extend_from_slice(kernel.dff_d_sinks(net));
        }
    }

    /// Schedules the gate at position `op` for the next sweep.
    #[inline]
    pub(crate) fn mark(&mut self, op: u32) {
        self.pending.mark(op);
    }

    /// Event-driven sweep in schedule order, a level batch at a time:
    /// re-evaluates every pending gate through `eval` — which gets the
    /// gate's schedule position, its output net, and its pins' good words
    /// (`good`) XOR their deviations, and returns the output word (fault
    /// sites force their pins or output there) — and stores the output's
    /// deviation. Each gate is evaluated at most once and its output holds
    /// no deviation before, so a zero deviation needs no store.
    #[inline]
    pub(crate) fn sweep(
        &mut self,
        kernel: &CompiledNetlist,
        good: impl Fn(usize) -> u64,
        mut eval: impl FnMut(usize, u32, [u64; 3]) -> u64,
        live: u64,
    ) {
        while let Some((base, mut batch)) = self.pending.pop_level(&self.level_end) {
            while batch != 0 {
                let p = base + batch.trailing_zeros() as usize;
                batch &= batch - 1;
                let [a, b, c] = kernel.op_pins(p);
                let (a, b, c) = (a as usize, b as usize, c as usize);
                let out = kernel.op_out(p);
                let w = eval(
                    p,
                    out,
                    [
                        good(a) ^ self.dev[a],
                        good(b) ^ self.dev[b],
                        good(c) ^ self.dev[c],
                    ],
                );
                let d = w ^ good(out as usize);
                if d != 0 {
                    self.store(kernel, out, d, live);
                }
            }
        }
    }

    /// Propagates one fault's deviation word `site_dev` (nonzero) through
    /// the good machine's words `good`: stores it as the deviation of the
    /// net `site` forces — or, on a folded branch, evaluates the sink gate
    /// once with that pin's good word XOR `site_dev` and stores the
    /// output's deviation — then sweeps every bit of it.
    #[inline]
    pub(crate) fn propagate(
        &mut self,
        kernel: &CompiledNetlist,
        site: Site,
        site_dev: u64,
        good: &[u64],
    ) {
        match site {
            Site::Net(net) => self.store(kernel, net, site_dev, u64::MAX),
            Site::Pin { op, slot } => {
                // Only the sink reads a folded branch, and nothing upstream
                // of it deviates: evaluate it once, with the forced pin.
                let op = op as usize;
                let mut pins = kernel.op_pins(op).map(|n| good[n as usize]);
                pins[slot as usize] ^= site_dev;
                let out = kernel.op_out(op);
                let d = kernel.eval_pins(op, pins) ^ good[out as usize];
                if d != 0 {
                    self.store(kernel, out, d, u64::MAX);
                }
            }
        }
        self.sweep(
            kernel,
            |n| good[n],
            |p, _, pins| kernel.eval_pins(p, pins),
            u64::MAX,
        );
    }

    /// Clears every stored deviation, so `dev` is all-zero again.
    pub(crate) fn reset(&mut self) {
        for &n in &self.stored {
            self.dev[n as usize] = 0;
        }
        self.stored.clear();
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_pops_one_level_batch_at_a_time() {
        // Levels end at 40, 70 and 5000: word 0 splits at 40, word 1 at 70.
        let level_end: Vec<u32> = (0..5000u32)
            .map(|p| match p {
                0..40 => 40,
                40..70 => 70,
                _ => 5000,
            })
            .collect();
        let mut p = Pending::new(5000);
        for op in [4999u32, 3, 39, 41, 63, 64, 100, 3] {
            p.mark(op);
        }
        let mut got = Vec::new();
        while let Some((base, bits)) = p.pop_level(&level_end) {
            // Marks beyond the batch are picked up by the same drain.
            if base == 0 && bits & 1 << 3 != 0 {
                p.mark(69);
            }
            got.push((base, bits));
        }
        assert_eq!(
            got,
            [
                (0, 1 << 3 | 1 << 39),
                (0, 1 << 41 | 1 << 63),
                (64, 1 << 0 | 1 << 5),
                (64, 1 << 36),
                (4992, 1 << 7)
            ]
        );
        assert!(p.words.iter().chain(&p.summary).all(|&w| w == 0));
        assert_eq!(p.cursor, 0, "a drained sweep rewinds");
    }

    /// Every scheduled gate lies inside its level's range.
    #[test]
    fn level_ends_bound_every_gate() {
        let mut mb = soctest_netlist::ModuleBuilder::new("lv");
        let a = mb.input_bus("a", 3);
        let x = mb.xor(a[0], a[1]);
        let y = mb.and(x, a[2]);
        let z = mb.or(y, x);
        let q = mb.register(&[z]);
        mb.output_bus("q", &q);
        let kernel = mb.finish().unwrap().compile().unwrap();
        let level_end = level_ends(&kernel);
        assert_eq!(level_end.len(), kernel.ops());
        for (p, &end) in level_end.iter().enumerate() {
            assert!(p < end as usize, "gate {p}");
        }
    }
}
