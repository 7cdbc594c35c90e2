//! Gate-level implementations of every BIST block, plus the full
//! core-plus-BIST assembly of the paper's Fig. 2.
//!
//! Each `build_*` function synthesizes a block *inline* into an existing
//! [`ModuleBuilder`]; each same-named free function wraps one block as a
//! standalone [`Netlist`] (for unit testing and per-block area accounting
//! in Table 2). The structural blocks are cycle-accurate twins of the
//! behavioral models in this crate — the equivalence tests at the bottom
//! simulate both and compare states cycle by cycle.

use soctest_netlist::{ModuleBuilder, NetId, Netlist, NetlistError, Word};

use crate::{Alfsr, ConstraintGenerator, HoldCycler, Misr, PortWiring};

/// Control outputs of the structural control unit.
#[derive(Debug, Clone)]
pub struct ControlSignals {
    /// Asserted while patterns are applied.
    pub test_enable: NetId,
    /// Asserted when the programmed pattern count has been reached.
    pub end_test: NetId,
    /// The pattern counter value.
    pub counter: Word,
}

/// Builds an XNOR-form ALFSR inline; `en` gates stepping. Returns the state
/// word (every stage is visible, as the pattern generator taps all of
/// them).
///
/// # Errors
///
/// Returns [`NetlistError::UnsupportedWidth`] for a width outside the
/// polynomial table ([`Alfsr::new`]).
pub fn build_alfsr(mb: &mut ModuleBuilder, en: NetId, width: usize) -> Result<Word, NetlistError> {
    let template = Alfsr::new(width).ok_or(NetlistError::UnsupportedWidth {
        block: "ALFSR",
        width,
    })?;
    let taps = template.taps_mask();
    let q = mb.dff_bank(width);
    let tapped: Vec<NetId> = (0..width)
        .filter(|i| (taps >> i) & 1 == 1)
        .map(|i| q[i])
        .collect();
    let parity = mb.reduce_xor(&tapped);
    let feedback = mb.not(parity); // XNOR form
    let mut shifted = Vec::with_capacity(width);
    shifted.push(feedback);
    shifted.extend_from_slice(&q[..width - 1]);
    let next = mb.mux_w(en, &q, &shifted);
    mb.connect(&q, &next);
    Ok(q)
}

/// Builds a MISR inline: absorbs `data` while `en` is high, clears on
/// `clr`. Returns the signature word.
pub fn build_misr(mb: &mut ModuleBuilder, en: NetId, clr: NetId, data: &[NetId]) -> Word {
    let width = data.len();
    let taps = Misr::default_taps(width);
    let q = mb.dff_bank(width);
    let fb = q[width - 1];
    let mut next = Vec::with_capacity(width);
    for j in 0..width {
        let mut v = if j > 0 { q[j - 1] } else { mb.zero() };
        if (taps >> j) & 1 == 1 {
            v = mb.xor(v, fb);
        }
        v = mb.xor(v, data[j]);
        next.push(v);
    }
    let held = mb.mux_w(en, &q, &next);
    let nclr = mb.not(clr);
    let cleared: Word = held.iter().map(|&b| mb.and(nclr, b)).collect();
    mb.connect(&q, &cleared);
    q
}

/// Builds the XOR cascade inline: folds `data` onto `out_width` bits
/// (bit `i` ← XOR of data bits with index ≡ i mod `out_width`), matching
/// [`crate::fold_xor`].
pub fn build_xor_cascade(mb: &mut ModuleBuilder, data: &[NetId], out_width: usize) -> Word {
    (0..out_width)
        .map(|i| {
            let taps: Vec<NetId> = data
                .iter()
                .copied()
                .enumerate()
                .filter(|(k, _)| k % out_width == i)
                .map(|(_, n)| n)
                .collect();
            mb.reduce_xor(&taps)
        })
        .collect()
}

/// Builds a [`HoldCycler`] constraint generator inline; `en` gates
/// advancement and `clr` restarts the sequence. Returns the value word.
///
/// # Panics
///
/// Panics if the cycler's hold time is not a power of two (the structural
/// form uses the low counter bits as the hold divider).
pub fn build_hold_cycler(mb: &mut ModuleBuilder, en: NetId, clr: NetId, cg: &HoldCycler) -> Word {
    assert!(
        cg.hold().is_power_of_two(),
        "structural HoldCycler needs a power-of-two hold time"
    );
    let hold_bits = cg.hold().trailing_zeros() as usize;
    let len = cg.values().len();
    let idx_bits = usize::BITS as usize - (len - 1).max(1).leading_zeros() as usize;

    // Hold divider: a free-running counter over hold_bits (if any).
    let tick = if hold_bits == 0 {
        en
    } else {
        let h = mb.counter(hold_bits, en, clr);
        let wrap = mb.eq_const(&h, (cg.hold() - 1) & ((1 << hold_bits) - 1));
        mb.and(en, wrap)
    };
    // Index counter with wrap at len.
    let idx = mb.dff_bank(idx_bits);
    let at_last = mb.eq_const(&idx, (len - 1) as u64);
    let inc = mb.inc(&idx).sum;
    let zero = mb.constant(0, idx_bits);
    let bumped = mb.mux_w(at_last, &inc, &zero);
    let advanced = mb.mux_w(tick, &idx, &bumped);
    let nclr = mb.not(clr);
    let next: Word = advanced.iter().map(|&b| mb.and(nclr, b)).collect();
    mb.connect(&idx, &next);

    // Value table lookup.
    let options: Vec<Word> = cg
        .values()
        .iter()
        .map(|&v| mb.constant(v, cg.width()))
        .collect();
    mb.select(&idx, &options)
}

/// Builds the control unit inline: a pattern counter compared against the
/// externally-held `npat` word, started by `start` and cleared by `rst`.
pub fn build_control_unit(
    mb: &mut ModuleBuilder,
    start: NetId,
    rst: NetId,
    npat: &[NetId],
) -> ControlSignals {
    // running := (running | start) & !done & !rst
    let running = mb.dff_bank(1);
    let counter = mb.dff_bank(npat.len());
    let done_now = mb.eq_w(&counter, npat);
    let started = mb.or(running[0], start);
    let not_done = mb.not(done_now);
    let keep = mb.and(started, not_done);
    let nrst = mb.not(rst);
    let run_next = mb.and(keep, nrst);
    mb.connect(&running, &[run_next]);
    // Patterns are applied only while running and not yet at the target.
    let test_enable = mb.and(running[0], not_done);
    // counter increments while applying, clears on rst.
    let inc = mb.inc(&counter).sum;
    let advanced = mb.mux_w(test_enable, &counter, &inc);
    let cleared: Word = advanced.iter().map(|&b| mb.and(nrst, b)).collect();
    mb.connect(&counter, &cleared);
    ControlSignals {
        test_enable,
        end_test: done_now,
        counter,
    }
}

/// Standalone ALFSR netlist (ports: `en` → `q`).
pub fn alfsr(width: usize) -> Result<Netlist, NetlistError> {
    let mut mb = ModuleBuilder::new(format!("alfsr{width}"));
    let en = mb.input("en");
    let q = build_alfsr(&mut mb, en, width)?;
    mb.output_bus("q", &q);
    mb.finish()
}

/// Standalone MISR netlist (ports: `data`, `en`, `clr` → `sig`).
pub fn misr(width: usize) -> Result<Netlist, NetlistError> {
    let mut mb = ModuleBuilder::new(format!("misr{width}"));
    let data = mb.input_bus("data", width);
    let en = mb.input("en");
    let clr = mb.input("clr");
    let sig = build_misr(&mut mb, en, clr, &data);
    mb.output_bus("sig", &sig);
    mb.finish()
}

/// Standalone XOR cascade netlist (ports: `data` → `folded`).
pub fn xor_cascade(in_width: usize, out_width: usize) -> Result<Netlist, NetlistError> {
    let mut mb = ModuleBuilder::new(format!("xorcas{in_width}to{out_width}"));
    let data = mb.input_bus("data", in_width);
    let folded = build_xor_cascade(&mut mb, &data, out_width);
    mb.output_bus("folded", &folded);
    mb.finish()
}

/// Standalone constraint-generator netlist (ports: `en`, `clr` → `value`).
pub fn hold_cycler(cg: &HoldCycler) -> Result<Netlist, NetlistError> {
    let mut mb = ModuleBuilder::new("constraint_gen");
    let en = mb.input("en");
    let clr = mb.input("clr");
    let value = build_hold_cycler(&mut mb, en, clr, cg);
    mb.output_bus("value", &value);
    mb.finish()
}

/// Standalone control-unit netlist (ports: `start`, `rst`, `npat` →
/// `test_en`, `end_test`, `count`).
pub fn control_unit(counter_bits: usize) -> Result<Netlist, NetlistError> {
    let mut mb = ModuleBuilder::new(format!("bist_cu{counter_bits}"));
    let start = mb.input("start");
    let rst = mb.input("rst");
    let npat = mb.input_bus("npat", counter_bits);
    let sig = build_control_unit(&mut mb, start, rst, &npat);
    mb.output("test_en", sig.test_enable);
    mb.output("end_test", sig.end_test);
    mb.output_bus("count", &sig.counter);
    mb.finish()
}

/// Everything [`insert_bist`] needs to know about the engine.
#[derive(Debug, Clone)]
pub struct BistSpec {
    /// ALFSR width (20 bits in the case study).
    pub alfsr_width: usize,
    /// MISR width per module (16 bits in the case study).
    pub misr_width: usize,
    /// Pattern-counter width (12 bits in the case study).
    pub counter_bits: usize,
    /// Constraint generators, indexed by [`crate::BitSource::Cg`].
    pub cgs: Vec<HoldCycler>,
    /// One wiring per module, same order as the module list.
    pub wirings: Vec<PortWiring>,
}

/// Assembles the complete design of the paper's Fig. 2: the logic-core
/// modules with input-side test muxes, the shared ALFSR, the constraint
/// generators, the per-module XOR cascades and MISRs, the output selector,
/// and the control unit.
///
/// Ports of the combined netlist:
/// * functional: `<module>_<port>` for every module port;
/// * test control: `bist_start`, `bist_rst`, `bist_npat`, `bist_sel`;
/// * test response: `bist_out` (selected signature), `bist_end`.
///
/// # Errors
///
/// Propagates construction errors (width mismatches between wirings and
/// module ports, duplicate names).
pub fn insert_bist(modules: &[&Netlist], spec: &BistSpec) -> Result<Netlist, NetlistError> {
    assert_eq!(modules.len(), spec.wirings.len(), "one wiring per module");
    let mut mb = ModuleBuilder::new("core_bist");
    let start = mb.input("bist_start");
    let rst = mb.input("bist_rst");
    let npat = mb.input_bus("bist_npat", spec.counter_bits);
    let sel_bits =
        usize::BITS as usize - (modules.len().saturating_sub(1)).max(1).leading_zeros() as usize;
    let sel = mb.input_bus("bist_sel", sel_bits);

    let cu = build_control_unit(&mut mb, start, rst, &npat);
    let test_en = cu.test_enable;
    let alfsr_q = build_alfsr(&mut mb, test_en, spec.alfsr_width)?;
    let cg_values: Vec<Word> = spec
        .cgs
        .iter()
        .map(|cg| build_hold_cycler(&mut mb, test_en, rst, cg))
        .collect();

    let mut signatures: Vec<Word> = Vec::new();
    for (module, wiring) in modules.iter().zip(&spec.wirings) {
        assert_eq!(
            module.input_width(),
            wiring.width(),
            "wiring width must match module {} input width",
            module.name()
        );
        // Per input bit: functional input muxed with the pattern source.
        let mut test_bits = Vec::with_capacity(wiring.width());
        for src in wiring.bits() {
            let bit = match *src {
                crate::BitSource::Alfsr(i) => alfsr_q[i % spec.alfsr_width],
                crate::BitSource::Cg { cg, bit } => cg_values[cg][bit],
                crate::BitSource::Const(true) => mb.one(),
                crate::BitSource::Const(false) => mb.zero(),
            };
            test_bits.push(bit);
        }
        let mut input_map = std::collections::HashMap::new();
        let mut offset = 0usize;
        let in_ports: Vec<(String, usize)> = module
            .input_ports()
            .iter()
            .map(|p| (p.name().to_owned(), p.width()))
            .collect();
        for (name, width) in &in_ports {
            let func = mb.input_bus(&format!("{}_{name}", module.name()), *width);
            let muxed = mb.mux_w(test_en, &func, &test_bits[offset..offset + width]);
            offset += width;
            input_map.insert(name.clone(), muxed);
        }
        let outs = mb.netlist_mut().instantiate(module, &input_map)?;
        let mut response: Vec<NetId> = Vec::new();
        for port in module.output_ports() {
            let bits = &outs[port.name()];
            mb.output_bus(&format!("{}_{}", module.name(), port.name()), bits);
            response.extend(bits.iter().copied());
        }
        let folded = build_xor_cascade(&mut mb, &response, spec.misr_width);
        let sig = build_misr(&mut mb, test_en, rst, &folded);
        signatures.push(sig);
    }

    let selected = mb.select(&sel, &signatures);
    mb.output_bus("bist_out", &selected);
    mb.output("bist_end", cu.end_test);
    mb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_sim::KernelSim;

    #[test]
    fn structural_alfsr_matches_behavioral() {
        let nl = alfsr(8).unwrap();
        let mut sim = KernelSim::new(&nl).unwrap();
        sim.drive_port(&nl, "en", 1);
        let mut model = Alfsr::new(8).unwrap();
        for cycle in 0..300 {
            sim.step();
            let expect = model.step();
            sim.eval_comb();
            assert_eq!(
                sim.read_port_lane(&nl, "q", 0),
                Some(expect),
                "cycle {cycle}"
            );
        }
    }

    #[test]
    fn structural_alfsr_holds_when_disabled() {
        let nl = alfsr(8).unwrap();
        let mut sim = KernelSim::new(&nl).unwrap();
        sim.drive_port(&nl, "en", 1);
        for _ in 0..5 {
            sim.step();
        }
        sim.eval_comb();
        let held = sim.read_port_lane(&nl, "q", 0);
        sim.drive_port(&nl, "en", 0);
        for _ in 0..5 {
            sim.step();
        }
        sim.eval_comb();
        assert_eq!(sim.read_port_lane(&nl, "q", 0), held);
    }

    #[test]
    fn structural_misr_matches_behavioral() {
        let nl = misr(16).unwrap();
        let mut sim = KernelSim::new(&nl).unwrap();
        let mut model = Misr::new(16);
        sim.drive_port(&nl, "en", 1);
        sim.drive_port(&nl, "clr", 0);
        let mut x = 0xACE1u64;
        for _ in 0..200 {
            x = (x.wrapping_mul(25_214_903_917).wrapping_add(11)) & 0xFFFF;
            sim.drive_port(&nl, "data", x);
            sim.step();
            model.absorb(x);
            sim.eval_comb();
            assert_eq!(sim.read_port_lane(&nl, "sig", 0), Some(model.signature()));
        }
    }

    #[test]
    fn structural_cascade_matches_fold_xor() {
        let nl = xor_cascade(23, 8).unwrap();
        let mut sim = KernelSim::new(&nl).unwrap();
        for seed in [0u64, 0x5A5A5A, 0x7FFFFF, 0x123456] {
            sim.drive_port(&nl, "data", seed);
            sim.eval_comb();
            let bits: Vec<bool> = (0..23).map(|i| (seed >> i) & 1 == 1).collect();
            assert_eq!(
                sim.read_port_lane(&nl, "folded", 0),
                Some(crate::fold_xor(&bits, 8))
            );
        }
    }

    #[test]
    fn structural_hold_cycler_matches_behavioral() {
        use crate::ConstraintGenerator;
        let cg = HoldCycler::new(4, vec![0b0001, 0b1111, 0b0110], 4);
        let nl = hold_cycler(&cg).unwrap();
        let mut sim = KernelSim::new(&nl).unwrap();
        sim.drive_port(&nl, "en", 1);
        sim.drive_port(&nl, "clr", 0);
        for cycle in 0..40u64 {
            sim.eval_comb();
            assert_eq!(
                sim.read_port_lane(&nl, "value", 0),
                Some(cg.value_at(cycle)),
                "cycle {cycle}"
            );
            sim.step();
        }
    }

    #[test]
    fn structural_control_unit_counts_and_stops() {
        let nl = control_unit(6).unwrap();
        let mut sim = KernelSim::new(&nl).unwrap();
        sim.drive_port(&nl, "rst", 0);
        sim.drive_port(&nl, "npat", 5);
        sim.drive_port(&nl, "start", 1);
        sim.step();
        sim.drive_port(&nl, "start", 0);
        let mut enabled_cycles = 0;
        for _ in 0..20 {
            sim.eval_comb();
            if sim.read_port_lane(&nl, "test_en", 0) == Some(1) {
                enabled_cycles += 1;
            }
            if sim.read_port_lane(&nl, "end_test", 0) == Some(1) {
                break;
            }
            sim.step();
        }
        sim.eval_comb();
        assert_eq!(sim.read_port_lane(&nl, "end_test", 0), Some(1));
        assert_eq!(enabled_cycles, 5, "exactly npat enabled cycles");
    }

    #[test]
    fn insert_bist_builds_and_runs_a_session() {
        use soctest_netlist::ModuleBuilder;
        // Tiny module: registered xor-reduce of a 6-bit input.
        let mut m = ModuleBuilder::new("blk");
        let a = m.input_bus("a", 6);
        let x = m.reduce_xor(&a);
        let q = m.register(&[x]);
        m.output_bus("y", &q);
        let module = m.finish().unwrap();

        let spec = BistSpec {
            alfsr_width: 8,
            misr_width: 4,
            counter_bits: 6,
            cgs: vec![],
            wirings: vec![PortWiring::direct(6)],
        };
        let combined = insert_bist(&[&module], &spec).unwrap();
        let mut sim = KernelSim::new(&combined).unwrap();
        sim.drive_port(&combined, "bist_rst", 0);
        sim.drive_port(&combined, "bist_npat", 32);
        sim.drive_port(&combined, "bist_sel", 0);
        sim.drive_port(&combined, "blk_a", 0);
        sim.drive_port(&combined, "bist_start", 1);
        sim.step();
        sim.drive_port(&combined, "bist_start", 0);
        let mut cycles = 0;
        loop {
            sim.eval_comb();
            if sim.read_port_lane(&combined, "bist_end", 0) == Some(1) {
                break;
            }
            sim.step();
            cycles += 1;
            assert!(cycles < 100, "session must terminate");
        }
        let sig = sim.read_port_lane(&combined, "bist_out", 0).unwrap();
        // Golden: re-run and compare — the signature is deterministic.
        let mut sim2 = KernelSim::new(&combined).unwrap();
        sim2.drive_port(&combined, "bist_rst", 0);
        sim2.drive_port(&combined, "bist_npat", 32);
        sim2.drive_port(&combined, "bist_sel", 0);
        sim2.drive_port(&combined, "blk_a", 0);
        sim2.drive_port(&combined, "bist_start", 1);
        sim2.step();
        sim2.drive_port(&combined, "bist_start", 0);
        loop {
            sim2.eval_comb();
            if sim2.read_port_lane(&combined, "bist_end", 0) == Some(1) {
                break;
            }
            sim2.step();
        }
        assert_eq!(sim2.read_port_lane(&combined, "bist_out", 0), Some(sig));
    }
}
