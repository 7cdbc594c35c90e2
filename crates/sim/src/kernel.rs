//! Sequential 64-lane simulation over a compiled SoA kernel.

use std::sync::Arc;

use soctest_netlist::{CompiledNetlist, NetId, Netlist, NetlistError};

use crate::broadcast;

/// A cycle-accurate sequential simulator running on a
/// [`CompiledNetlist`]: the workspace's one logic simulator.
///
/// Each net carries 64 lanes (see the [crate docs](crate)); flip-flops
/// reset to 0 and clock by sampling every `d` pin before writing any `q`.
/// A [`KernelSim::step`] evaluates the kernel's flat level-major schedule
/// and then clocks. The `sim` conformance pair pins `KernelSim` against
/// the naive reference interpreter lane by lane.
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

    /// Writes a whole port from a lane-0 integer, broadcast to all lanes
    /// (bit *i* of `value` goes to port bit *i*). `netlist` must be the
    /// netlist this simulator's kernel was compiled from.
    ///
    /// Returns `false` if the port does not exist.
    pub fn drive_port(&mut self, netlist: &Netlist, name: &str, value: u64) -> bool {
        match netlist.port(name) {
            Some(p) => {
                for (i, &net) in p.bits().iter().enumerate() {
                    self.set_input_bit(net, (value >> i) & 1 == 1);
                }
                true
            }
            None => false,
        }
    }

    /// Reads one lane of a port as an integer (bit *i* of the result is
    /// port bit *i* in that lane), valid after [`KernelSim::eval_comb`].
    /// `netlist` must be the netlist this simulator's kernel was compiled
    /// from. Returns `None` for unknown ports.
    pub fn read_port_lane(&self, netlist: &Netlist, name: &str, lane: u32) -> Option<u64> {
        let p = netlist.port(name)?;
        let mut out = 0u64;
        for (i, &net) in p.bits().iter().enumerate() {
            out |= ((self.values[net.index()] >> lane) & 1) << i;
        }
        Some(out)
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
        // Sample every d before writing any q: a flip-flop whose d pin is
        // another flip-flop's q net must see the pre-edge value.
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
    fn counter_counts_and_clears() {
        let nl = counter();
        let mut sim = KernelSim::new(&nl).unwrap();
        assert!(sim.drive_port(&nl, "en", 1));
        assert!(sim.drive_port(&nl, "clr", 0));
        for _ in 0..10 {
            sim.step();
        }
        sim.eval_comb();
        assert_eq!(sim.read_port_lane(&nl, "q", 0), Some(10));
        assert_eq!(sim.read_port_lane(&nl, "q", 63), Some(10));
        sim.drive_port(&nl, "clr", 1);
        sim.step();
        sim.eval_comb();
        assert_eq!(sim.read_port_lane(&nl, "q", 7), Some(0));
        assert_eq!(sim.cycle(), 11);
    }

    #[test]
    fn enable_holds_value() {
        let nl = counter();
        let mut sim = KernelSim::new(&nl).unwrap();
        sim.drive_port(&nl, "en", 1);
        sim.drive_port(&nl, "clr", 0);
        sim.step();
        sim.step();
        sim.drive_port(&nl, "en", 0);
        sim.step();
        sim.step();
        sim.eval_comb();
        assert_eq!(sim.read_port_lane(&nl, "q", 0), Some(2));
    }

    #[test]
    fn evaluates_an_adder_in_every_lane() {
        let mut mb = ModuleBuilder::new("add");
        let a = mb.input_bus("a", 8);
        let b = mb.input_bus("b", 8);
        let r = mb.add(&a, &b);
        mb.output_bus("sum", &r.sum);
        mb.output("cout", r.carry);
        let nl = mb.finish().unwrap();

        let mut sim = KernelSim::new(&nl).unwrap();
        // 64 lanes: lane i computes i + 3*i.
        for bit in 0..8 {
            let mut wa = 0u64;
            let mut wb = 0u64;
            for lane in 0..64u64 {
                wa |= ((lane >> bit) & 1) << lane;
                wb |= ((((3 * lane) & 0xFF) >> bit) & 1) << lane;
            }
            sim.set_input(nl.port("a").unwrap().bits()[bit as usize], wa);
            sim.set_input(nl.port("b").unwrap().bits()[bit as usize], wb);
        }
        sim.eval_comb();
        for lane in 0..64u32 {
            let expect = (u64::from(lane) * 4) & 0xFF;
            assert_eq!(
                sim.read_port_lane(&nl, "sum", lane),
                Some(expect),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn constants_hold_their_value() {
        let mut mb = ModuleBuilder::new("c");
        let k = mb.constant(0b01, 2);
        mb.output_bus("k", &k);
        let nl = mb.finish().unwrap();
        let mut sim = KernelSim::new(&nl).unwrap();
        sim.eval_comb();
        let bits = nl.port("k").unwrap().bits();
        assert_eq!(sim.get(bits[0]), u64::MAX);
        assert_eq!(sim.get(bits[1]), 0);
    }

    #[test]
    fn unknown_ports_are_reported() {
        let nl = counter();
        let mut sim = KernelSim::new(&nl).unwrap();
        assert!(!sim.drive_port(&nl, "nope", 1));
        assert_eq!(sim.read_port_lane(&nl, "nope", 0), None);
    }

    #[test]
    fn reset_and_state_roundtrip() {
        let nl = counter();
        let mut sim = KernelSim::new(&nl).unwrap();
        sim.drive_port(&nl, "en", 1);
        sim.drive_port(&nl, "clr", 0);
        for _ in 0..5 {
            sim.step();
        }
        let snap = sim.state();
        for _ in 0..3 {
            sim.step();
        }
        sim.eval_comb();
        assert_eq!(sim.read_port_lane(&nl, "q", 0), Some(8));
        sim.restore_state(&snap);
        assert_eq!(sim.state(), snap);
        sim.eval_comb();
        assert_eq!(sim.read_port_lane(&nl, "q", 0), Some(5));
        sim.reset();
        sim.eval_comb();
        assert_eq!(sim.read_port_lane(&nl, "q", 0), Some(0));
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
