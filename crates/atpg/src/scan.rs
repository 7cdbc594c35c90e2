//! Full-scan insertion, the combinational scan view, and test-time
//! accounting.

use soctest_netlist::{GateKind, NetId, Netlist, NetlistError, PortDir};

/// A scan-inserted design: every flip-flop is reachable through one of the
/// scan chains.
///
/// Scan insertion replaces each D flip-flop's input with a 2:1 mux selected
/// by `scan_en`: functional data when 0, the previous chain element when 1.
/// This is the "multiplexed scan cells" option the paper evaluates in its
/// full-scan baseline, and the source of the frequency penalty in Table 4
/// (a mux delay in front of every flop).
#[derive(Debug, Clone)]
pub struct ScanDesign {
    /// The scan-inserted netlist, with `scan_en`, `scan_in*` and
    /// `scan_out*` ports added.
    pub netlist: Netlist,
    /// Flip-flop output nets of each chain, in shift order (the first
    /// element is next to `scan_in`).
    pub chains: Vec<Vec<NetId>>,
}

impl ScanDesign {
    /// Length of the longest chain, which dictates shift time.
    pub fn max_chain_length(&self) -> usize {
        self.chains.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Total number of scan cells.
    pub fn cell_count(&self) -> usize {
        self.chains.iter().map(Vec::len).sum()
    }
}

/// Inserts `num_chains` balanced scan chains into a sequential netlist.
///
/// # Errors
///
/// Returns construction errors from port creation; a netlist without
/// flip-flops yields an empty chain set and is returned unchanged apart
/// from the `scan_en` port.
pub fn insert_scan(netlist: &Netlist, num_chains: usize) -> Result<ScanDesign, NetlistError> {
    assert!(num_chains > 0, "at least one scan chain");
    let mut nl = netlist.clone();
    nl.set_name(format!("{}_scan", netlist.name()));
    let dffs = nl.dffs();
    let scan_en = nl.add_gate(GateKind::Input, vec![]);
    nl.set_label(scan_en, "scan_en");
    nl.add_port(PortDir::Input, "scan_en", vec![scan_en])?;

    let chains_used = num_chains.min(dffs.len().max(1));
    let per_chain = dffs.len().div_ceil(chains_used);
    let mut chains = Vec::new();
    for (c, chunk) in dffs.chunks(per_chain.max(1)).enumerate() {
        let scan_in = nl.add_gate(GateKind::Input, vec![]);
        nl.set_label(scan_in, format!("scan_in{c}"));
        nl.add_port(PortDir::Input, format!("scan_in{c}"), vec![scan_in])?;
        let mut prev = scan_in;
        let mut chain = Vec::with_capacity(chunk.len());
        for &q in chunk {
            let d = nl.gate(q).pins[0];
            let mux = nl.add_gate(GateKind::Mux2, vec![scan_en, d, prev]);
            nl.set_label(mux, format!("{}_scanmux", nl.describe(q)));
            nl.set_pin(q, 0, mux);
            prev = q;
            chain.push(q);
        }
        nl.add_port(PortDir::Output, format!("scan_out{c}"), vec![prev])?;
        chains.push(chain);
    }
    nl.validate()?;
    Ok(ScanDesign {
        netlist: nl,
        chains,
    })
}

/// The combinational *scan view* of a sequential netlist: flip-flops become
/// pseudo-primary inputs (`ppi` port) and their data pins pseudo-primary
/// outputs (`ppo` port), exactly what ATPG and combinational fault
/// simulation operate on.
#[derive(Debug, Clone)]
pub struct ScanView {
    /// The combinational view netlist.
    pub view: Netlist,
    /// Pseudo-primary inputs (former flip-flop outputs), in state order.
    pub ppis: Vec<NetId>,
    /// Pseudo-primary outputs (former flip-flop data nets), in state order.
    pub ppos: Vec<NetId>,
}

impl ScanView {
    /// Builds the scan view of `netlist`.
    ///
    /// # Errors
    ///
    /// Returns port-construction errors; netlists without flip-flops get a
    /// view identical to the original.
    pub fn of(netlist: &Netlist) -> Result<Self, NetlistError> {
        let mut view = Netlist::new(format!("{}_view", netlist.name()));
        let mut ppis = Vec::new();
        let mut ppos = Vec::new();
        for (id, gate) in netlist.iter() {
            let new_id = if gate.kind == GateKind::Dff {
                ppis.push(id);
                ppos.push(gate.pins[0]);
                view.add_gate_unchecked(GateKind::Input, vec![])
            } else {
                view.add_gate_unchecked(gate.kind, gate.pins.clone())
            };
            debug_assert_eq!(new_id, id);
            if let Some(label) = netlist.label(id) {
                view.set_label(id, label.to_owned());
            }
        }
        for port in netlist.ports() {
            view.add_port(port.dir(), port.name(), port.bits().to_vec())?;
        }
        if !ppis.is_empty() {
            view.add_port(PortDir::Input, "ppi", ppis.clone())?;
            view.add_port(PortDir::Output, "ppo", ppos.clone())?;
        }
        view.validate()?;
        Ok(ScanView { view, ppis, ppos })
    }

    /// The `(ppi, ppo)` pairing used for launch-on-capture transition
    /// simulation.
    pub fn state_map(&self) -> Vec<(NetId, NetId)> {
        self.ppis
            .iter()
            .copied()
            .zip(self.ppos.iter().copied())
            .collect()
    }
}

/// Test-application time accounting for scan patterns.
///
/// Scan testing pays `chain_length` shift cycles per pattern (load
/// overlapped with the previous unload) plus capture cycles — this serial
/// cost is exactly why Table 3's full-scan clock-cycle counts dwarf the
/// BIST ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanSchedule {
    /// Longest chain length in cells.
    pub chain_length: usize,
    /// Number of scan patterns.
    pub patterns: usize,
}

impl ScanSchedule {
    /// Schedule for a design and pattern count.
    pub fn new(design: &ScanDesign, patterns: usize) -> Self {
        ScanSchedule {
            chain_length: design.max_chain_length(),
            patterns,
        }
    }

    /// Clock cycles to apply stuck-at patterns: per pattern one load
    /// (overlapping the previous unload) plus a capture cycle, plus the
    /// final unload.
    pub fn stuck_at_cycles(&self) -> u64 {
        let c = self.chain_length as u64;
        self.patterns as u64 * (c + 1) + c
    }

    /// Clock cycles for launch-on-capture transition patterns (one extra
    /// launch cycle per pattern).
    pub fn transition_cycles(&self) -> u64 {
        let c = self.chain_length as u64;
        self.patterns as u64 * (c + 2) + c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_netlist::ModuleBuilder;
    use soctest_sim::KernelSim;

    fn counter() -> Netlist {
        let mut mb = ModuleBuilder::new("cnt");
        let en = mb.input("en");
        let clr = mb.input("clr");
        let q = mb.counter(6, en, clr);
        mb.output_bus("q", &q);
        mb.finish().unwrap()
    }

    #[test]
    fn insertion_preserves_functional_behaviour() {
        let nl = counter();
        let scan = insert_scan(&nl, 2).unwrap();
        let mut a = KernelSim::new(&nl).unwrap();
        let mut b = KernelSim::new(&scan.netlist).unwrap();
        a.drive_port(&nl, "en", 1);
        a.drive_port(&nl, "clr", 0);
        b.drive_port(&scan.netlist, "en", 1);
        b.drive_port(&scan.netlist, "clr", 0);
        b.drive_port(&scan.netlist, "scan_en", 0);
        b.drive_port(&scan.netlist, "scan_in0", 0);
        b.drive_port(&scan.netlist, "scan_in1", 0);
        for _ in 0..9 {
            a.step();
            b.step();
        }
        assert_eq!(
            a.read_port_lane(&nl, "q", 0),
            b.read_port_lane(&scan.netlist, "q", 0)
        );
    }

    #[test]
    fn chains_shift_data_through() {
        let nl = counter();
        let scan = insert_scan(&nl, 1).unwrap();
        let mut sim = KernelSim::new(&scan.netlist).unwrap();
        sim.drive_port(&scan.netlist, "en", 0);
        sim.drive_port(&scan.netlist, "clr", 0);
        sim.drive_port(&scan.netlist, "scan_en", 1);
        // Shift in 6 ones: the whole chain fills with 1s.
        sim.drive_port(&scan.netlist, "scan_in0", 1);
        for _ in 0..6 {
            sim.step();
        }
        sim.eval_comb();
        assert_eq!(sim.read_port_lane(&scan.netlist, "q", 0), Some(0b11_1111));
        assert_eq!(sim.read_port_lane(&scan.netlist, "scan_out0", 0), Some(1));
    }

    #[test]
    fn chain_partition_is_balanced() {
        let nl = counter();
        let scan = insert_scan(&nl, 2).unwrap();
        assert_eq!(scan.chains.len(), 2);
        assert_eq!(scan.cell_count(), 6);
        assert_eq!(scan.max_chain_length(), 3);
    }

    #[test]
    fn view_has_pseudo_ports_and_levelizes() {
        let nl = counter();
        let view = ScanView::of(&nl).unwrap();
        assert_eq!(view.ppis.len(), 6);
        assert_eq!(view.ppos.len(), 6);
        assert_eq!(view.view.dff_count(), 0);
        assert!(view.view.levelize().is_ok());
        assert_eq!(view.state_map().len(), 6);
    }

    #[test]
    fn schedule_accounting() {
        let nl = counter();
        let scan = insert_scan(&nl, 1).unwrap();
        let sched = ScanSchedule::new(&scan, 10);
        assert_eq!(sched.stuck_at_cycles(), 10 * 7 + 6);
        assert_eq!(sched.transition_cycles(), 10 * 8 + 6);
    }
}
