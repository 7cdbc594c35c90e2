//! Sequential 64-lane simulation over a compiled SoA kernel.

use std::sync::Arc;

use soctest_netlist::{CompiledNetlist, NetId, Netlist, NetlistError};

use crate::broadcast;

/// A cycle-accurate sequential simulator running on a
/// [`CompiledNetlist`] instead of walking the gate graph.
///
/// Mirrors [`crate::SeqSim`] semantics exactly — same reset state, same
/// sample-all-`d`-then-write-`q` clocking — but sweeps the kernel's flat
/// level-major schedule. The conformance suite pins `KernelSim` against
/// [`crate::SeqSim`] lane for lane.
#[derive(Debug, Clone)]
pub struct KernelSim {
    kernel: Arc<CompiledNetlist>,
    values: Vec<u64>,
    /// Reused by [`KernelSim::clock`] to sample every `d` pin.
    sampled: Vec<u64>,
    cycle: u64,
}

impl KernelSim {
    /// Compiles `netlist` and prepares a simulator with all flip-flops 0.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn new(netlist: &Netlist) -> Result<Self, NetlistError> {
        Ok(Self::from_kernel(netlist.compile()?))
    }

    /// Wraps an already-compiled kernel (shared compilations are free).
    pub fn from_kernel(kernel: Arc<CompiledNetlist>) -> Self {
        let values = kernel.fresh_values();
        let sampled = Vec::with_capacity(kernel.dff_d().len());
        KernelSim {
            kernel,
            values,
            sampled,
            cycle: 0,
        }
    }

    /// The compiled kernel this simulator executes.
    pub fn kernel(&self) -> &Arc<CompiledNetlist> {
        &self.kernel
    }

    /// Number of clock cycles applied since construction or reset.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Resets all flip-flops to 0 and the cycle counter.
    pub fn reset(&mut self) {
        for &q in self.kernel.dff_q() {
            self.values[q as usize] = 0;
        }
        self.cycle = 0;
    }

    /// Writes a 64-lane input word.
    #[inline]
    pub fn set_input(&mut self, net: NetId, word: u64) {
        self.values[net.index()] = word;
    }

    /// Writes the same boolean to all 64 lanes of an input.
    #[inline]
    pub fn set_input_bit(&mut self, net: NetId, bit: bool) {
        self.values[net.index()] = broadcast(bit);
    }

    /// Broadcasts one boolean per primary input, in port order, to all 64
    /// lanes. Extra or missing bits are ignored.
    pub fn drive_inputs(&mut self, bits: &[bool]) {
        for (&net, &bit) in self.kernel.pis().iter().zip(bits) {
            self.values[net as usize] = broadcast(bit);
        }
    }

    /// Reads lane 0 of every primary output, in port order, into `out`
    /// (valid after [`KernelSim::eval_comb`]).
    pub fn read_outputs(&self, out: &mut [bool]) {
        for (o, &net) in out.iter_mut().zip(self.kernel.pos()) {
            *o = self.values[net as usize] & 1 == 1;
        }
    }

    /// Evaluates combinational logic for the current cycle without clocking.
    pub fn eval_comb(&mut self) {
        self.kernel.eval(&mut self.values);
    }

    /// Clocks every flip-flop (d pins must be up to date; see
    /// [`KernelSim::eval_comb`]).
    pub fn clock(&mut self) {
        // Sample every d before writing any q, as in `SeqSim::clock`.
        self.sampled.clear();
        self.sampled
            .extend(self.kernel.dff_d().iter().map(|&d| self.values[d as usize]));
        for (&q, &v) in self.kernel.dff_q().iter().zip(&self.sampled) {
            self.values[q as usize] = v;
        }
        self.cycle += 1;
    }

    /// One full clock cycle: evaluate, then clock.
    pub fn step(&mut self) {
        self.eval_comb();
        self.clock();
    }

    /// Reads a net's 64-lane word (valid after [`KernelSim::eval_comb`]).
    #[inline]
    pub fn get(&self, net: NetId) -> u64 {
        self.values[net.index()]
    }

    /// The full per-net value array (64 lanes per net).
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Snapshot of the flip-flop state words, in [`Netlist::dffs`] order.
    pub fn state(&self) -> Vec<u64> {
        self.kernel
            .dff_q()
            .iter()
            .map(|&q| self.values[q as usize])
            .collect()
    }

    /// Restores a state snapshot taken with [`KernelSim::state`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot length does not match the flip-flop count.
    pub fn restore_state(&mut self, state: &[u64]) {
        assert_eq!(
            state.len(),
            self.kernel.dff_q().len(),
            "state snapshot size"
        );
        for (&q, &w) in self.kernel.dff_q().iter().zip(state) {
            self.values[q as usize] = w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeqSim;
    use soctest_netlist::ModuleBuilder;

    fn counter() -> Netlist {
        let mut mb = ModuleBuilder::new("cnt");
        let en = mb.input("en");
        let clr = mb.input("clr");
        let q = mb.counter(8, en, clr);
        mb.output_bus("q", &q);
        mb.finish().unwrap()
    }

    #[test]
    fn kernel_sim_tracks_seq_sim_cycle_for_cycle() {
        let nl = counter();
        let mut ks = KernelSim::new(&nl).unwrap();
        let mut gs = SeqSim::new(&nl).unwrap();
        let en = nl.port("en").unwrap().bits()[0];
        let clr = nl.port("clr").unwrap().bits()[0];
        let mut s = 0xDEAD_BEEF_u64;
        for _ in 0..32 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            for (net, bit) in [(en, s & 1 == 1), (clr, s & 0x100 == 0x100)] {
                ks.set_input_bit(net, bit);
                gs.set_input_bit(net, bit);
            }
            ks.eval_comb();
            gs.eval_comb();
            for id in 0..nl.len() {
                assert_eq!(
                    ks.get(NetId(id as u32)),
                    gs.get(NetId(id as u32)),
                    "net {id} cycle {}",
                    ks.cycle()
                );
            }
            ks.clock();
            gs.clock();
            assert_eq!(ks.state(), gs.state());
        }
    }

    #[test]
    fn reset_and_state_roundtrip() {
        let nl = counter();
        let mut sim = KernelSim::new(&nl).unwrap();
        sim.set_input_bit(nl.port("en").unwrap().bits()[0], true);
        sim.set_input_bit(nl.port("clr").unwrap().bits()[0], false);
        for _ in 0..5 {
            sim.step();
        }
        let snap = sim.state();
        for _ in 0..3 {
            sim.step();
        }
        sim.restore_state(&snap);
        assert_eq!(sim.state(), snap);
        sim.reset();
        assert_eq!(sim.cycle(), 0);
        assert!(sim.state().iter().all(|&w| w == 0));
    }

    #[test]
    fn port_helpers_drive_and_read_lane_zero() {
        let nl = counter();
        let mut sim = KernelSim::new(&nl).unwrap();
        // Inputs in port order: en, clr.
        sim.drive_inputs(&[true, false]);
        let mut q = [false; 8];
        for _ in 0..5 {
            sim.step();
        }
        sim.eval_comb();
        sim.read_outputs(&mut q);
        assert_eq!(q, [true, false, true, false, false, false, false, false]);
    }

    #[test]
    fn from_kernel_shares_one_compile() {
        let nl = counter();
        let k = nl.compile().unwrap();
        let a = KernelSim::from_kernel(Arc::clone(&k));
        let b = KernelSim::from_kernel(k);
        assert!(Arc::ptr_eq(a.kernel(), b.kernel()));
    }
}
