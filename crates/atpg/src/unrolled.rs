//! Time-frame expansion for sequential ATPG.

use soctest_netlist::{GateKind, NetId, Netlist, NetlistError, PortDir};

use crate::scan::ScanView;

/// A sequential netlist unrolled over a fixed number of time frames.
///
/// Frame 0's state comes from unassignable `state0` inputs (the machine
/// starts in an unknown state); each later frame's state inputs are wired
/// to the previous frame's next-state nets. Primary outputs of *every*
/// frame are observable — a sequential test observes the outputs on each
/// cycle.
#[derive(Debug, Clone)]
pub struct UnrolledView {
    /// The flat combinational unrolled netlist.
    pub view: Netlist,
    /// Number of frames.
    pub frames: usize,
    /// For each frame, the mapping from template net id to unrolled net id.
    pub frame_map: Vec<Vec<NetId>>,
    /// Per-frame primary-input nets (original PI order).
    pub pi_frames: Vec<Vec<NetId>>,
    /// Assignability mask over the unrolled view's primary inputs: `false`
    /// for the unknown initial state.
    pub assignable: Vec<bool>,
}

impl UnrolledView {
    /// Maps a net of the *template* (the sequential netlist's combinational
    /// frame, which shares net ids with the sequential netlist) into frame
    /// `f` of the unrolled view.
    pub fn map_net(&self, f: usize, net: NetId) -> NetId {
        self.frame_map[f][net.index()]
    }
}

/// Unrolls `netlist` over `frames` time frames.
///
/// # Errors
///
/// Propagates view-construction and validation errors.
///
/// # Panics
///
/// Panics if `frames == 0`.
pub fn unroll(netlist: &Netlist, frames: usize) -> Result<UnrolledView, NetlistError> {
    assert!(frames > 0, "at least one frame");
    let template = ScanView::of(netlist)?;
    let t = &template.view;
    let ndff = template.ppis.len();

    let mut view = Netlist::new(format!("{}_x{}", netlist.name(), frames));
    // Unknown initial state.
    let state0: Vec<NetId> = (0..ndff)
        .map(|i| {
            let id = view.add_gate(GateKind::Input, vec![]);
            view.set_label(id, format!("state0[{i}]"));
            id
        })
        .collect();
    if !state0.is_empty() {
        view.add_port(PortDir::Input, "state0", state0.clone())?;
    }

    let template_pis: Vec<NetId> = t
        .input_ports()
        .iter()
        .filter(|p| p.name() != "ppi")
        .flat_map(|p| p.bits().iter().copied())
        .collect();
    let is_ppi: Vec<bool> = {
        let mut v = vec![false; t.len()];
        for &p in &template.ppis {
            v[p.index()] = true;
        }
        v
    };
    let ppi_pos: Vec<usize> = {
        let mut v = vec![0usize; t.len()];
        for (i, &p) in template.ppis.iter().enumerate() {
            v[p.index()] = i;
        }
        v
    };
    let is_pi: Vec<bool> = {
        let mut v = vec![false; t.len()];
        for &p in &template_pis {
            v[p.index()] = true;
        }
        v
    };

    let mut frame_map: Vec<Vec<NetId>> = Vec::with_capacity(frames);
    let mut pi_frames: Vec<Vec<NetId>> = Vec::with_capacity(frames);
    let mut prev_state: Vec<NetId> = state0;
    let mut all_pos: Vec<NetId> = Vec::new();

    for f in 0..frames {
        let mut map = vec![NetId(0); t.len()];
        let mut frame_pis = Vec::with_capacity(template_pis.len());
        for (id, gate) in t.iter() {
            let mapped = if is_ppi[id.index()] {
                prev_state[ppi_pos[id.index()]]
            } else if is_pi[id.index()] {
                let pi = view.add_gate(GateKind::Input, vec![]);
                view.set_label(pi, format!("f{f}.{}", t.describe(id)));
                frame_pis.push(pi);
                pi
            } else {
                let pins = gate.pins.iter().map(|p| map[p.index()]).collect();
                view.add_gate_unchecked(gate.kind, pins)
            };
            map[id.index()] = mapped;
        }
        if !frame_pis.is_empty() {
            view.add_port(PortDir::Input, format!("pi{f}"), frame_pis.clone())?;
        }
        for port in t.output_ports() {
            if port.name() == "ppo" {
                continue;
            }
            let bits: Vec<NetId> = port.bits().iter().map(|b| map[b.index()]).collect();
            all_pos.extend(bits.iter().copied());
            view.add_port(PortDir::Output, format!("f{f}.{}", port.name()), bits)?;
        }
        prev_state = template.ppos.iter().map(|p| map[p.index()]).collect();
        frame_map.push(map);
        pi_frames.push(frame_pis);
    }
    view.validate()?;
    view.levelize()?;

    let mut assignable = Vec::new();
    for port in view.input_ports() {
        let ok = port.name() != "state0";
        assignable.extend(std::iter::repeat_n(ok, port.width()));
    }

    Ok(UnrolledView {
        view,
        frames,
        frame_map,
        pi_frames,
        assignable,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_netlist::ModuleBuilder;
    use soctest_sim::KernelSim;

    fn toggler() -> Netlist {
        // q' = q XOR en; out = q.
        let mut mb = ModuleBuilder::new("tog");
        let en = mb.input("en");
        let q = mb.dff_bank(1);
        let nxt = mb.xor(q[0], en);
        mb.connect(&q, &[nxt]);
        mb.output("out", q[0]);
        mb.finish().unwrap()
    }

    #[test]
    fn unrolled_shape() {
        let nl = toggler();
        let u = unroll(&nl, 3).unwrap();
        assert_eq!(u.frames, 3);
        assert_eq!(u.pi_frames.len(), 3);
        assert_eq!(u.view.dff_count(), 0);
        // state0 (1 bit) + 3 frame PIs.
        assert_eq!(u.view.primary_inputs().len(), 4);
        assert_eq!(u.assignable, vec![false, true, true, true]);
    }

    #[test]
    fn unrolled_semantics_match_iteration() {
        let nl = toggler();
        let u = unroll(&nl, 3).unwrap();
        let mut sim = KernelSim::new(&u.view).unwrap();
        // state0 = 0, en = 1 in every frame: q toggles 0,1,0 → outputs.
        let pis = u.view.primary_inputs();
        sim.set_input(pis[0], 0); // state0
        for f in 0..3 {
            sim.set_input(u.pi_frames[f][0], u64::MAX);
        }
        sim.eval_comb();
        let out = |f: usize| {
            let p = u.view.port(&format!("f{f}.out")).unwrap().bits()[0];
            sim.get(p) & 1
        };
        assert_eq!(out(0), 0);
        assert_eq!(out(1), 1);
        assert_eq!(out(2), 0);
    }

    #[test]
    fn map_net_translates_frames() {
        let nl = toggler();
        let u = unroll(&nl, 2).unwrap();
        let q = nl.dffs()[0];
        let q_f1 = u.map_net(1, q);
        // Frame 1's state input is frame 0's next-state net, a XOR gate.
        assert_eq!(u.view.gate(q_f1).kind, soctest_netlist::GateKind::Xor);
    }
}
