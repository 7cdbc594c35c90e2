//! The deliberately naive reference interpreter.
//!
//! [`RefMachine`] evaluates one bit per net by sweeping *all* gates to a
//! fixpoint — no levelization, no event scheduling, no bit-parallel words.
//! It shares no code with `soctest-sim` or `soctest-fault` beyond the
//! netlist data structure, which is exactly what makes it a useful oracle:
//! a bug would have to be reimplemented here, in a completely different
//! style, to go unnoticed.
//!
//! A single optional *forced net* mimics a stuck-at fault: after every
//! sweep the forced value is re-asserted, which matches how the fault
//! simulators inject at a site (the site's own gate function is ignored,
//! its fanout sees the forced value). A single optional *delayed net*
//! mimics a gross-delay transition fault ([`RefMachine::delay`]).

use std::collections::HashMap;

use soctest_netlist::{GateKind, NetId, Netlist};

/// Naive single-bit interpreter with DFF state and an optional forced net.
#[derive(Debug, Clone)]
pub struct RefMachine<'a> {
    nl: &'a Netlist,
    values: Vec<bool>,
    dffs: Vec<NetId>,
    dff_state: Vec<bool>,
    dff_pos: HashMap<NetId, usize>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    forced: Option<(NetId, bool)>,
    delayed: Option<Delay>,
    clocked: bool,
}

/// A gross-delay transition fault: the site's value one clock ago, as the
/// faulty machine saw it.
#[derive(Debug, Clone, Copy)]
struct Delay {
    net: NetId,
    slow_to_rise: bool,
    prev: bool,
}

impl<'a> RefMachine<'a> {
    /// Wraps `nl`; all nets and DFF states start at 0.
    pub fn new(nl: &'a Netlist) -> Self {
        let dffs = nl.dffs();
        let dff_pos = dffs.iter().enumerate().map(|(i, &d)| (d, i)).collect();
        RefMachine {
            nl,
            values: vec![false; nl.len()],
            dff_state: vec![false; dffs.len()],
            dffs,
            dff_pos,
            inputs: nl.primary_inputs(),
            outputs: nl.primary_outputs(),
            forced: None,
            delayed: None,
            clocked: false,
        }
    }

    /// Clears all net values and DFF state, and restarts the clock count
    /// a delayed net depends on (the forced and delayed nets persist).
    pub fn reset(&mut self) {
        self.values.iter_mut().for_each(|v| *v = false);
        self.dff_state.iter_mut().for_each(|v| *v = false);
        self.clocked = false;
        if let Some(d) = self.delayed.as_mut() {
            d.prev = false;
        }
    }

    /// Forces `net` to `value` (stuck-at injection).
    pub fn force(&mut self, net: NetId, value: bool) {
        self.forced = Some((net, value));
    }

    /// Removes the forced net.
    pub fn clear_force(&mut self) {
        self.forced = None;
    }

    /// Delays `net` (transition-fault injection). Before the first
    /// [`RefMachine::clock`] the net keeps its logic value; after it, a
    /// slow-to-rise net reads `cur && prev` and a slow-to-fall net reads
    /// `cur || prev`, where `prev` is the net's (faulty) value latched at
    /// the last clock edge.
    pub fn delay(&mut self, net: NetId, slow_to_rise: bool) {
        self.delayed = Some(Delay {
            net,
            slow_to_rise,
            prev: false,
        });
    }

    /// Drives the primary inputs, port-declaration order.
    ///
    /// # Panics
    ///
    /// Panics when `bits` does not match the primary-input count.
    pub fn set_inputs(&mut self, bits: &[bool]) {
        assert_eq!(bits.len(), self.inputs.len(), "primary-input arity");
        for (net, &b) in self.inputs.iter().zip(bits) {
            self.values[net.index()] = b;
        }
    }

    /// Drives a single input net.
    pub fn set_input(&mut self, net: NetId, value: bool) {
        self.values[net.index()] = value;
    }

    fn eval_gate(&self, id: usize) -> bool {
        let gate = self.nl.gate(NetId(id as u32));
        let pin = |p: usize| self.values[gate.pins[p].index()];
        match gate.kind {
            GateKind::Input => self.values[id],
            GateKind::Const0 => false,
            GateKind::Const1 => true,
            GateKind::Dff => self.dff_state[self.dff_pos[&NetId(id as u32)]],
            GateKind::Buf => pin(0),
            GateKind::Not => !pin(0),
            GateKind::And => pin(0) & pin(1),
            GateKind::Or => pin(0) | pin(1),
            GateKind::Nand => !(pin(0) & pin(1)),
            GateKind::Nor => !(pin(0) | pin(1)),
            GateKind::Xor => pin(0) ^ pin(1),
            GateKind::Xnor => !(pin(0) ^ pin(1)),
            GateKind::Mux2 => {
                if pin(0) {
                    pin(2)
                } else {
                    pin(1)
                }
            }
        }
    }

    /// Sweeps every gate until no value changes (bounded by the gate
    /// count, which is enough for any acyclic combinational cloud).
    pub fn settle(&mut self) {
        for _ in 0..self.nl.len() + 2 {
            let mut changed = false;
            for id in 0..self.nl.len() {
                let mut next = self.eval_gate(id);
                if let Some((f, v)) = self.forced {
                    if f.index() == id {
                        next = v;
                    }
                }
                if let Some(d) = self.delayed {
                    if d.net.index() == id && self.clocked {
                        next = if d.slow_to_rise {
                            next && d.prev
                        } else {
                            next || d.prev
                        };
                    }
                }
                if next != self.values[id] {
                    self.values[id] = next;
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
        unreachable!("combinational fixpoint did not converge");
    }

    /// Clock edge: every DFF samples its `d` pin, and a delayed net
    /// latches its current value. Call [`settle`](RefMachine::settle)
    /// first so the sampled values are current.
    pub fn clock(&mut self) {
        let next: Vec<bool> = self
            .dffs
            .iter()
            .map(|d| self.values[self.nl.gate(*d).pins[0].index()])
            .collect();
        self.dff_state = next;
        if let Some(d) = self.delayed.as_mut() {
            d.prev = self.values[d.net.index()];
        }
        self.clocked = true;
    }

    /// Convenience: settle then clock.
    pub fn step(&mut self) {
        self.settle();
        self.clock();
    }

    /// The value of one net.
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// The primary-output values, port-declaration order.
    pub fn outputs(&self) -> Vec<bool> {
        self.outputs
            .iter()
            .map(|n| self.values[n.index()])
            .collect()
    }
}

/// One-shot combinational evaluation of `nl` under `inputs`.
pub fn eval_comb(nl: &Netlist, inputs: &[bool]) -> Vec<bool> {
    let mut m = RefMachine::new(nl);
    m.set_inputs(inputs);
    m.settle();
    m.outputs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_netlist::PortDir;

    fn xor_with_ff() -> Netlist {
        let mut nl = Netlist::new("t");
        let a = nl.add_gate(GateKind::Input, vec![]);
        let b = nl.add_gate(GateKind::Input, vec![]);
        let x = nl.add_gate(GateKind::Xor, vec![a, b]);
        let q = nl.add_gate_unchecked(GateKind::Dff, vec![x]);
        let y = nl.add_gate(GateKind::Xnor, vec![q, a]);
        nl.add_port(PortDir::Input, "in", vec![a, b]).unwrap();
        nl.add_port(PortDir::Output, "out", vec![y]).unwrap();
        nl
    }

    #[test]
    fn settles_combinational_logic() {
        let nl = xor_with_ff();
        assert_eq!(eval_comb(&nl, &[true, false]), vec![false]);
        assert_eq!(eval_comb(&nl, &[false, false]), vec![true]);
    }

    #[test]
    fn clock_updates_dff_state() {
        let nl = xor_with_ff();
        let mut m = RefMachine::new(&nl);
        m.set_inputs(&[true, false]);
        m.step();
        m.set_inputs(&[false, false]);
        m.settle();
        // q is now 1 (xor of 1,0 sampled), so y = !(1 ^ 0) = 0.
        assert_eq!(m.outputs(), vec![false]);
    }

    /// Steps `m` through `inputs` (one row per cycle) and returns the value
    /// of `net` after each settle.
    fn trace(m: &mut RefMachine<'_>, net: NetId, inputs: &[[bool; 2]]) -> Vec<bool> {
        inputs
            .iter()
            .map(|row| {
                m.set_inputs(row);
                m.settle();
                let v = m.value(net);
                m.clock();
                v
            })
            .collect()
    }

    // Nets of `xor_with_ff`: a = 0 and b = 1 (inputs), x = 2 (Xor gate),
    // q = 3 (DFF of x), y = 4 (Xnor of q and a, the output).
    const A: NetId = NetId(0);
    const X: NetId = NetId(2);
    const Q: NetId = NetId(3);

    #[test]
    fn delayed_gate_passes_through_on_cycle_zero() {
        let nl = xor_with_ff();
        for slow_to_rise in [true, false] {
            let mut m = RefMachine::new(&nl);
            m.delay(X, slow_to_rise);
            // x = a ^ b = 1 on cycle 0: no clock edge yet, so no history.
            m.set_inputs(&[true, false]);
            m.settle();
            assert!(m.value(X), "slow_to_rise={slow_to_rise}");
            // And 0 stays 0.
            let mut m = RefMachine::new(&nl);
            m.delay(X, slow_to_rise);
            m.set_inputs(&[false, false]);
            m.settle();
            assert!(!m.value(X), "slow_to_rise={slow_to_rise}");
        }
    }

    #[test]
    fn slow_to_rise_gate_holds_zero_and_slow_to_fall_holds_one() {
        let nl = xor_with_ff();
        // x = a ^ b: 0, 1, 1, 0, 1 — one rise at cycle 1, one at cycle 4.
        let rows = [
            [false, false],
            [true, false],
            [false, true],
            [true, true],
            [true, false],
        ];
        let mut good = RefMachine::new(&nl);
        assert_eq!(trace(&mut good, X, &rows), [false, true, true, false, true]);
        // Slow-to-rise: cur && prev. Cycle 1 rises from a latched 0 and
        // holds 0, and the faulty 0 it latches keeps the net low.
        let mut str_ = RefMachine::new(&nl);
        str_.delay(X, true);
        assert_eq!(trace(&mut str_, X, &rows), [false; 5]);
        // Slow-to-fall: cur || prev. Cycle 0 passes 0, cycle 1 rises
        // freely, and the fall at cycle 3 holds the latched 1.
        let mut stf = RefMachine::new(&nl);
        stf.delay(X, false);
        assert_eq!(trace(&mut stf, X, &rows), [false, true, true, true, true]);
        // The delayed value is what the fanout sees: q samples x.
        let mut stf = RefMachine::new(&nl);
        stf.delay(X, false);
        let q: Vec<bool> = rows
            .iter()
            .map(|row| {
                stf.set_inputs(row);
                stf.settle();
                stf.clock();
                stf.settle();
                stf.value(Q)
            })
            .collect();
        assert_eq!(q, [false, true, true, true, true]);
    }

    #[test]
    fn delayed_input_and_dff_sites() {
        let nl = xor_with_ff();
        // Input site a: 1, 0, 1 with b = 0. Slow-to-fall holds the 1 at
        // cycle 1; slow-to-rise passes cycle 0's 1, then sticks at the 0.
        let rows = [[true, false], [false, false], [true, false]];
        let mut stf = RefMachine::new(&nl);
        stf.delay(A, false);
        assert_eq!(trace(&mut stf, A, &rows), [true, true, true]);
        let mut str_ = RefMachine::new(&nl);
        str_.delay(A, true);
        assert_eq!(trace(&mut str_, A, &rows), [true, false, false]);
        // The input's fanout sees the delayed value: x = a ^ b.
        let mut stf = RefMachine::new(&nl);
        stf.delay(A, false);
        assert_eq!(trace(&mut stf, X, &rows), [true, true, true]);

        // DFF site q: x = 1, 1, 0, 0 makes good q = 0, 1, 1, 0.
        let rows = [[true, false], [true, false], [false, false], [false, false]];
        let mut good = RefMachine::new(&nl);
        assert_eq!(trace(&mut good, Q, &rows), [false, true, true, false]);
        // Slow-to-rise: q's rise at cycle 1 is held low, and stays low.
        let mut str_ = RefMachine::new(&nl);
        str_.delay(Q, true);
        assert_eq!(trace(&mut str_, Q, &rows), [false, false, false, false]);
        // Slow-to-fall: the rise passes, the fall at cycle 3 holds 1.
        let mut stf = RefMachine::new(&nl);
        stf.delay(Q, false);
        assert_eq!(trace(&mut stf, Q, &rows), [false, true, true, true]);
    }

    #[test]
    fn reset_restarts_the_delay_history() {
        let nl = xor_with_ff();
        let mut m = RefMachine::new(&nl);
        m.delay(X, true);
        assert_eq!(
            trace(&mut m, X, &[[false, false], [true, false]]),
            [false, false]
        );
        m.reset();
        // After a reset cycle 0 passes through again.
        assert_eq!(trace(&mut m, X, &[[true, false]]), [true]);
    }

    #[test]
    fn forced_net_overrides_logic() {
        let nl = xor_with_ff();
        let mut m = RefMachine::new(&nl);
        m.force(NetId(2), true); // the Xor output stuck-at-1
        m.set_inputs(&[false, false]);
        m.settle();
        assert!(m.value(NetId(2)));
    }
}
