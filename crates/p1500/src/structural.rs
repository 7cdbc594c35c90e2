//! Gate-level wrapper structures for area and timing accounting.
//!
//! The behavioral models in this crate answer protocol questions; these
//! netlists answer *cost* questions: the wrapper's silicon area (Table 2)
//! and the frequency penalty its boundary cells put on the functional path
//! (Table 4's "Sequential approach" column — a standard P1500 wrapper with
//! no scan cells inside the core).

use soctest_netlist::{ModuleBuilder, NetId, Netlist, NetlistError, Word};

/// Builds one P1500 input boundary cell inline: a shift stage, an update
/// stage, and the functional-path mux that injects test data in INTEST
/// mode. Returns `(to_core, shift_out)`.
pub fn build_input_cell(
    mb: &mut ModuleBuilder,
    func_in: NetId,
    shift_in: NetId,
    shift_en: NetId,
    update_en: NetId,
    test_mode: NetId,
) -> (NetId, NetId) {
    // Shift stage: captures the chain when shifting, else holds.
    let shift_q = mb.dff_bank(1);
    let shift_d = mb.mux(shift_en, shift_q[0], shift_in);
    mb.connect(&shift_q, &[shift_d]);
    // Update stage: loads from the shift stage on update.
    let upd_q = mb.dff_bank(1);
    let upd_d = mb.mux(update_en, upd_q[0], shift_q[0]);
    mb.connect(&upd_q, &[upd_d]);
    // Functional-path mux — the Table 4 delay cost of wrapping.
    let to_core = mb.mux(test_mode, func_in, upd_q[0]);
    (to_core, shift_q[0])
}

/// Builds one P1500 output boundary cell inline: a capture/shift stage
/// observing the core output. The functional output passes through
/// untouched. Returns the cell's shift output.
pub fn build_output_cell(
    mb: &mut ModuleBuilder,
    core_out: NetId,
    shift_in: NetId,
    shift_en: NetId,
    capture_en: NetId,
) -> NetId {
    let shift_q = mb.dff_bank(1);
    let shifted = mb.mux(shift_en, shift_q[0], shift_in);
    let captured = mb.mux(capture_en, shifted, core_out);
    mb.connect(&shift_q, &[captured]);
    shift_q[0]
}

/// Wraps a core netlist with a standard P1500 boundary: every functional
/// input gets an input cell (shift + update + path mux), every functional
/// output an observation cell; the cells form one chain from `wsi` to
/// `wso`. The WIR itself (3 shift + 3 update flops plus decode) is also
/// instantiated so the area report covers the full wrapper.
///
/// Ports whose name starts with `bist_` are *not* wrapped: they are the
/// BIST engine's command/response interface, which in silicon terminates
/// inside the wrapper's own WCDR/WDR registers rather than at chip pins —
/// wrapping them would double-count boundary cells.
///
/// Ports: the core's ports (same names), plus `wsi`, `wrap_shift`,
/// `wrap_capture`, `wrap_update`, `wrap_test`, and `wso`.
///
/// # Errors
///
/// Propagates netlist-construction errors.
pub fn wrap_core(core: &Netlist) -> Result<Netlist, NetlistError> {
    let mut mb = ModuleBuilder::new(format!("{}_p1500", core.name()));
    let wsi = mb.input("wsi");
    let shift_en = mb.input("wrap_shift");
    let capture_en = mb.input("wrap_capture");
    let update_en = mb.input("wrap_update");
    let test_mode = mb.input("wrap_test");

    // WIR: 3-bit shift + 3-bit update + a few decode gates.
    let wir_shift = {
        let q = mb.dff_bank(3);
        let mut prev = wsi;
        let mut next = Vec::new();
        for &stage in &q {
            next.push(mb.mux(shift_en, stage, prev));
            prev = stage;
        }
        mb.connect(&q, &next);
        q
    };
    let wir_update = {
        let q = mb.dff_bank(3);
        let next = mb.mux_w(update_en, &q, &wir_shift);
        mb.connect(&q, &next);
        q
    };
    let _decode = mb.decode(&wir_update, 5);

    // Input cells, chained after the WIR shift path.
    let mut chain = wir_shift[2];
    let mut input_map = std::collections::HashMap::new();
    let in_ports: Vec<(String, usize)> = core
        .input_ports()
        .iter()
        .map(|p| (p.name().to_owned(), p.width()))
        .collect();
    for (name, width) in &in_ports {
        let func = mb.input_bus(name, *width);
        if name.starts_with("bist_") {
            input_map.insert(name.clone(), func);
            continue;
        }
        let mut to_core = Vec::with_capacity(*width);
        for &f in &func {
            let (tc, so) = build_input_cell(&mut mb, f, chain, shift_en, update_en, test_mode);
            to_core.push(tc);
            chain = so;
        }
        input_map.insert(name.clone(), to_core);
    }
    let outs = mb.netlist_mut().instantiate(core, &input_map)?;
    let out_ports: Vec<String> = core
        .output_ports()
        .iter()
        .map(|p| p.name().to_owned())
        .collect();
    for name in &out_ports {
        let bits: Word = outs[name].clone();
        if !name.starts_with("bist_") {
            for &b in &bits {
                chain = build_output_cell(&mut mb, b, chain, shift_en, capture_en);
            }
        }
        mb.output_bus(name, &bits);
    }
    mb.output("wso", chain);
    mb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_netlist::ModuleBuilder;
    use soctest_sim::KernelSim;

    fn core() -> Netlist {
        let mut mb = ModuleBuilder::new("core");
        let a = mb.input_bus("a", 4);
        let q = mb.register(&a);
        let s = mb.add_mod(&q, &a);
        mb.output_bus("s", &s);
        mb.finish().unwrap()
    }

    #[test]
    fn wrapped_core_preserves_function_in_mission_mode() {
        let c = core();
        let w = wrap_core(&c).unwrap();
        let mut plain = KernelSim::new(&c).unwrap();
        let mut wrapped = KernelSim::new(&w).unwrap();
        // Mission mode: test off, no shifting.
        wrapped.drive_port(&w, "wrap_test", 0);
        wrapped.drive_port(&w, "wrap_shift", 0);
        wrapped.drive_port(&w, "wrap_capture", 0);
        wrapped.drive_port(&w, "wrap_update", 0);
        wrapped.drive_port(&w, "wsi", 0);
        for v in [3u64, 9, 15, 0, 7] {
            plain.drive_port(&c, "a", v);
            wrapped.drive_port(&w, "a", v);
            plain.step();
            wrapped.step();
            plain.eval_comb();
            wrapped.eval_comb();
            assert_eq!(
                plain.read_port_lane(&c, "s", 0),
                wrapped.read_port_lane(&w, "s", 0),
                "input {v}"
            );
        }
    }

    #[test]
    fn boundary_chain_shifts_end_to_end() {
        let c = core();
        let w = wrap_core(&c).unwrap();
        let mut sim = KernelSim::new(&w).unwrap();
        sim.drive_port(&w, "wrap_test", 1);
        sim.drive_port(&w, "wrap_shift", 1);
        sim.drive_port(&w, "wrap_capture", 0);
        sim.drive_port(&w, "wrap_update", 0);
        sim.drive_port(&w, "a", 0);
        // Chain: 3 WIR + 4 input cells + 4 output cells = 11 stages.
        sim.drive_port(&w, "wsi", 1);
        for _ in 0..11 {
            sim.eval_comb();
            sim.step();
        }
        sim.eval_comb();
        assert_eq!(sim.read_port_lane(&w, "wso", 0), Some(1));
    }

    #[test]
    fn wrapper_adds_flops() {
        let c = core();
        let w = wrap_core(&c).unwrap();
        // 4 inputs × 2 FF + 4 outputs × 1 FF + 6 WIR FF on top of the core.
        assert_eq!(w.dff_count(), c.dff_count() + 4 * 2 + 4 + 6);
    }
}
