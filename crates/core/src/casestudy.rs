//! The §4 case study: the LDPC decoder core equipped with the BIST engine.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use soctest_bist::structural::{
    build_alfsr, build_control_unit, build_hold_cycler, build_misr, build_xor_cascade, BistSpec,
};
use soctest_bist::{
    Alfsr, BistEngine, BistEngineConfig, BitSource, EngineError, HoldCycler, ModuleHookup,
    PatternGenerator, PortWiring,
};
use soctest_netlist::{CompiledNetlist, ModuleBuilder, NetId, Netlist, Word};

use crate::error::SessionError;

/// The assembled case study: the three decoder modules plus the BIST
/// sizing of the paper's §4.
///
/// * Pattern generator: one **20-bit ALFSR** shared by all modules;
/// * one **constraint generator** driving the 4-bit datapath selectors of
///   `BIT_NODE` and `CHECK_NODE` (each selector value held long enough to
///   exercise the selected path), plus a shared control cycler pulsing
///   `start`/`clr`;
/// * Result collector: three **16-bit MISRs**, one per module, each behind
///   an XOR cascade, reachable through the output selector;
/// * Control unit: a **12-bit pattern counter** (up to 4,096 patterns per
///   execution).
///
/// Each module's compiled kernel is built on first use by
/// [`CaseStudy::kernel`] and cached. Clones share the module netlists and
/// every kernel compiled before the clone; [`CaseStudy::module_mut`]
/// copies the one netlist it hands out (if shared) and drops its cached
/// kernel, so a clone with one planted defect copies and recompiles only
/// that module.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    modules: Vec<Arc<Netlist>>,
    kernels: Vec<OnceLock<Arc<CompiledNetlist>>>,
    spec: BistSpec,
    alfsr_proto: Alfsr,
}

/// Number of patterns per test execution in the paper (2^12).
pub const PAPER_PATTERNS: u64 = 4096;

/// BIST resources threaded through assembly:
/// `(test_en, alfsr_q, cg_vals, end_test, b_rst, b_sel)`.
type BistResources = (NetId, Word, Vec<Word>, NetId, NetId, Word);

impl CaseStudy {
    /// Builds the full case study with the paper's sizing.
    ///
    /// # Errors
    ///
    /// Propagates netlist-construction errors from the module generators,
    /// and [`SessionError::Engine`] if the spec's ALFSR width has no
    /// primitive polynomial (validated once here, so the accessors below
    /// never fail).
    pub fn paper() -> Result<Self, SessionError> {
        let modules = vec![
            soctest_ldpc::gatelevel::bit_node()?,
            soctest_ldpc::gatelevel::check_node()?,
            soctest_ldpc::gatelevel::control_unit()?,
        ];
        // CG 0: the 4-bit datapath selector, each value held for 256
        // cycles (16 × 256 = 4,096 — one full sweep per execution).
        let sel_cycler = HoldCycler::new(4, (0..16).collect(), 256);
        // CG 1: control pulses — bit 0 = start, bit 1 = clr. Period 512
        // (32 slots held 16 cycles each): start pulses at slots 0 and 16,
        // clr at slot 28. The long period lets module counters reach deep
        // states between clears — pulsing clr every few dozen cycles was
        // measured to cap the reachable state space and the coverage.
        let ctl_cycler = {
            let mut slots = vec![0u64; 32];
            slots[0] = 0b01;
            slots[16] = 0b01;
            slots[28] = 0b10;
            HoldCycler::new(2, slots, 16)
        };
        let wirings = vec![
            Self::wiring_for_module(
                &modules[0],
                &[("sel", 0)],
                &[("start", (1, 0)), ("clr", (1, 1))],
            ),
            Self::wiring_for_module(
                &modules[1],
                &[("sel", 0)],
                &[("start", (1, 0)), ("clr", (1, 1))],
            ),
            Self::wiring_for_module(&modules[2], &[], &[("start", (1, 0)), ("clr", (1, 1))]),
        ];
        let spec = BistSpec {
            alfsr_width: 20,
            misr_width: 16,
            counter_bits: 12,
            cgs: vec![sel_cycler, ctl_cycler],
            wirings,
        };
        let alfsr_proto = Alfsr::new(spec.alfsr_width).ok_or(EngineError::UnsupportedWidth {
            width: spec.alfsr_width,
        })?;
        Ok(CaseStudy {
            kernels: modules.iter().map(|_| OnceLock::new()).collect(),
            modules: modules.into_iter().map(Arc::new).collect(),
            spec,
            alfsr_proto,
        })
    }

    /// The same hardware with example-friendly defaults (alias of
    /// [`CaseStudy::paper`]; sessions simply run fewer patterns).
    ///
    /// # Errors
    ///
    /// See [`CaseStudy::paper`].
    pub fn small() -> Result<Self, SessionError> {
        Self::paper()
    }

    /// Builds a wiring: `cg_ports` routes whole ports to a CG (by CG
    /// index), `cg_bits` routes single-bit ports to `(cg, bit)`; everything
    /// else takes replicated ALFSR stages.
    fn wiring_for_module(
        module: &Netlist,
        cg_ports: &[(&str, usize)],
        cg_bits: &[(&str, (usize, usize))],
    ) -> PortWiring {
        let mut bits = Vec::with_capacity(module.input_width());
        let mut alfsr_next = 0usize;
        for port in module.input_ports() {
            if let Some((_, cg)) = cg_ports.iter().find(|(n, _)| *n == port.name()) {
                for b in 0..port.width() {
                    bits.push(BitSource::Cg { cg: *cg, bit: b });
                }
            } else if let Some((_, (cg, bit))) = cg_bits.iter().find(|(n, _)| *n == port.name()) {
                debug_assert_eq!(port.width(), 1, "cg_bits targets 1-bit ports");
                bits.push(BitSource::Cg { cg: *cg, bit: *bit });
            } else {
                for _ in 0..port.width() {
                    bits.push(BitSource::Alfsr(alfsr_next));
                    alfsr_next += 1;
                }
            }
        }
        PortWiring::custom(bits)
    }

    /// The three modules: `BIT_NODE`, `CHECK_NODE`, `CONTROL_UNIT`.
    pub fn modules(&self) -> &[Arc<Netlist>] {
        &self.modules
    }

    /// Mutable access to module `m`'s netlist — the fault-injection hook
    /// (e.g. [`Netlist::force_constant`] plants a stuck-at defect that a
    /// robust session must then detect and quarantine). Copies the netlist
    /// first if a clone shares it, and drops module `m`'s cached kernel, so
    /// the next [`CaseStudy::kernel`] recompiles it.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn module_mut(&mut self, m: usize) -> &mut Netlist {
        self.kernels[m] = OnceLock::new();
        Arc::make_mut(&mut self.modules[m])
    }

    /// Module `m`'s compiled kernel, compiled on first use and then shared
    /// by every simulator built from this case study or its clones.
    ///
    /// # Errors
    ///
    /// [`SessionError::Netlist`] if the module does not levelize.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn kernel(&self, m: usize) -> Result<&Arc<CompiledNetlist>, SessionError> {
        let slot = &self.kernels[m];
        if let Some(kernel) = slot.get() {
            return Ok(kernel);
        }
        let kernel = self.modules[m].compile()?;
        Ok(slot.get_or_init(|| kernel))
    }

    /// Module names in order.
    pub fn module_names(&self) -> Vec<&str> {
        self.modules.iter().map(|m| m.name()).collect()
    }

    /// The BIST sizing.
    pub fn spec(&self) -> &BistSpec {
        &self.spec
    }

    /// The wiring of module `m`.
    pub fn wiring(&self, m: usize) -> &PortWiring {
        &self.spec.wirings[m]
    }

    /// A behavioral pattern generator matching the spec (for fault
    /// simulation stimuli).
    pub fn pattern_generator(&self) -> PatternGenerator {
        PatternGenerator::new(
            self.alfsr_proto.clone(),
            self.boxed_cgs(),
            self.spec.wirings.clone(),
        )
    }

    /// A behavioral pattern generator using ALFSR polynomial `variant` and
    /// a non-default `seed` — the stimulus-side twin of
    /// [`CaseStudy::engine_variant`], so a coverage loop can *measure* what
    /// a reseeded or reciprocal-polynomial session would detect.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnsupportedVariant`] if `variant` is out of range
    /// for the spec's ALFSR width.
    pub fn pattern_generator_variant(
        &self,
        variant: u8,
        seed: u64,
    ) -> Result<PatternGenerator, EngineError> {
        let mut alfsr = Alfsr::with_variant(self.spec.alfsr_width, variant).ok_or(
            EngineError::UnsupportedVariant {
                width: self.spec.alfsr_width,
                variant,
            },
        )?;
        alfsr.set_seed(seed);
        Ok(PatternGenerator::new(
            alfsr,
            self.boxed_cgs(),
            self.spec.wirings.clone(),
        ))
    }

    /// A pattern generator whose ALFSR-driven inputs of module `m` are
    /// rerouted to a [`WeightedCg`](soctest_bist::WeightedCg) with the given
    /// per-bit 1-probabilities — the paper's "redesign the Constraint
    /// Generator" feedback, synthesized instead of hand-crafted. The
    /// existing hold-cycler CGs (datapath selector, start/clr pulses) keep
    /// their wiring; `weights` supplies one probability per module input
    /// bit in port order, and only the ALFSR-driven positions are used.
    ///
    /// # Errors
    ///
    /// [`SessionError::SourceWidth`] when `weights` does not cover the
    /// module's input width.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range (same contract as
    /// [`CaseStudy::module_mut`]).
    pub fn weighted_pattern_generator(
        &self,
        m: usize,
        weights: &[f64],
        seed: u64,
    ) -> Result<PatternGenerator, SessionError> {
        let module = &self.modules[m];
        if weights.len() != module.input_width() {
            return Err(SessionError::SourceWidth {
                module: module.name().to_owned(),
                port: "<weighted-cg>".to_owned(),
                expected: module.input_width(),
                got: weights.len(),
            });
        }
        let wcg_index = self.spec.cgs.len();
        let mut wcg_weights = Vec::new();
        let mut wirings = self.spec.wirings.clone();
        let rerouted: Vec<BitSource> = wirings[m]
            .bits()
            .iter()
            .zip(weights)
            .map(|(src, &w)| match src {
                BitSource::Alfsr(_) => {
                    wcg_weights.push(w);
                    BitSource::Cg {
                        cg: wcg_index,
                        bit: wcg_weights.len() - 1,
                    }
                }
                other => *other,
            })
            .collect();
        wirings[m] = PortWiring::custom(rerouted);
        let mut cgs = self.boxed_cgs();
        if !wcg_weights.is_empty() {
            cgs.push(Box::new(soctest_bist::WeightedCg::new(seed, &wcg_weights)));
        }
        Ok(PatternGenerator::new(
            self.alfsr_proto.clone(),
            cgs,
            wirings,
        ))
    }

    fn boxed_cgs(&self) -> Vec<Box<dyn soctest_bist::ConstraintGenerator + Send + Sync>> {
        self.spec
            .cgs
            .iter()
            .map(|cg| {
                Box::new(cg.clone()) as Box<dyn soctest_bist::ConstraintGenerator + Send + Sync>
            })
            .collect()
    }

    /// A behavioral BIST engine wired to the three modules.
    pub fn engine(&self) -> BistEngine {
        self.build_engine(self.alfsr_proto.clone())
    }

    /// A behavioral BIST engine using ALFSR polynomial `variant` and a
    /// non-default `seed` — the knobs a robust session turns when a
    /// signature mismatch might be aliasing rather than a real fault
    /// (the paper's step-2 feedback: pick another polynomial / seed and
    /// re-run).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnsupportedVariant`] if `variant` is out of range
    /// for the spec's ALFSR width.
    pub fn engine_variant(&self, variant: u8, seed: u64) -> Result<BistEngine, EngineError> {
        let alfsr = Alfsr::with_variant(self.spec.alfsr_width, variant).ok_or(
            EngineError::UnsupportedVariant {
                width: self.spec.alfsr_width,
                variant,
            },
        )?;
        let mut engine = self.build_engine(alfsr);
        engine.set_seed(seed);
        Ok(engine)
    }

    fn build_engine(&self, alfsr: Alfsr) -> BistEngine {
        let hookups = self
            .modules
            .iter()
            .zip(&self.spec.wirings)
            .map(|(m, w)| ModuleHookup {
                name: m.name().to_owned(),
                wiring: w.clone(),
                output_width: m.output_width(),
            })
            .collect();
        BistEngine::new(
            alfsr,
            self.boxed_cgs(),
            hookups,
            BistEngineConfig {
                counter_bits: self.spec.counter_bits,
                misr_width: self.spec.misr_width,
            },
        )
    }

    /// Golden (fault-free) signatures for an `npatterns` session, one per
    /// module, from a behavioral rehearsal.
    ///
    /// # Errors
    ///
    /// Propagates simulator-construction errors, and
    /// [`SessionError::Engine`] if the rehearsal hangs.
    pub fn golden_signatures(&self, npatterns: u64) -> Result<Vec<u64>, SessionError> {
        let mut backend = crate::session::WrappedCore::new(self)?;
        backend.rehearse(npatterns)
    }

    /// Assembles the complete structural core (`BIT_NODE` + `CHECK_NODE` +
    /// `CONTROL_UNIT` with their functional interconnect). With
    /// `with_bist`, the BIST engine of Fig. 2 is built in: test muxes on
    /// every module input, the shared ALFSR, both constraint generators,
    /// the XOR cascades and MISRs, the output selector, and the BIST
    /// control unit (ports `bist_start`, `bist_rst`, `bist_npat`,
    /// `bist_sel` → `bist_out`, `bist_end`).
    ///
    /// # Errors
    ///
    /// Propagates netlist-construction errors, and reports unsourced or
    /// mis-sized module ports as [`SessionError::MissingSource`] /
    /// [`SessionError::SourceWidth`].
    pub fn assemble(&self, with_bist: bool) -> Result<Netlist, SessionError> {
        let name = if with_bist {
            "ldpc_core_bist"
        } else {
            "ldpc_core"
        };
        let mut mb = ModuleBuilder::new(name);

        // External functional inputs.
        let llr_in = mb.input_bus("llr_in", 8);
        let sel_cfg = mb.input_bus("sel_cfg", 4);
        let mode_cfg = mb.input_bus("mode_cfg", 3);
        let degree_cfg = mb.input_bus("degree_cfg", 8);
        let clr = mb.input("clr");
        let start = mb.input("start");
        let halt = mb.input("halt");
        let max_iter = mb.input_bus("max_iter", 6);
        let n_edges = mb.input_bus("n_edges", 12);
        let n_checks = mb.input_bus("n_checks", 10);
        let cfg_base = mb.input_bus("cfg_base", 6);
        let ext_sync = mb.input("ext_sync");
        let resume = mb.input("resume");
        let step_en = mb.input("step_en");
        let quota = mb.input_bus("quota", 3);

        // BIST resources (built only when requested).
        let bist = if with_bist {
            let b_start = mb.input("bist_start");
            let b_rst = mb.input("bist_rst");
            let b_npat = mb.input_bus("bist_npat", self.spec.counter_bits);
            let b_sel = mb.input_bus("bist_sel", 2);
            let cu = build_control_unit(&mut mb, b_start, b_rst, &b_npat);
            let test_en = cu.test_enable;
            let alfsr_q = build_alfsr(&mut mb, test_en, self.spec.alfsr_width);
            let cg_vals: Vec<Word> = self
                .spec
                .cgs
                .iter()
                .map(|cg| build_hold_cycler(&mut mb, test_en, b_rst, cg))
                .collect();
            Some((test_en, alfsr_q, cg_vals, cu.end_test, b_rst, b_sel))
        } else {
            None
        };

        // A helper closure result: pattern bit for wiring entry `src`.
        let pattern_bit =
            |mb: &mut ModuleBuilder, bist: &Option<BistResources>, src: &BitSource| {
                match bist.as_ref() {
                    Some((_, alfsr_q, cg_vals, ..)) => match *src {
                        BitSource::Alfsr(i) => alfsr_q[i % alfsr_q.len()],
                        BitSource::Cg { cg, bit } => cg_vals[cg][bit],
                        BitSource::Const(true) => mb.one(),
                        BitSource::Const(false) => mb.zero(),
                    },
                    // Only reached when instantiating without BIST resources,
                    // where the mux path is never built; a constant keeps the
                    // closure total without a panic path.
                    None => mb.zero(),
                }
            };

        // Placeholders for CHECK_NODE outputs feeding BIT_NODE (the loop is
        // broken by module-internal registers; at netlist level we close it
        // afterwards via set_pin on these buffers).
        let z = mb.zero();
        let cn_msg_ph: Word = (0..8).map(|_| mb.buf(z)).collect();
        let cn_min1_ph: Word = (0..8).map(|_| mb.buf(z)).collect();

        // ---- CONTROL_UNIT instance (all inputs external).
        let cu_srcs: HashMap<&str, Word> = HashMap::from([
            ("start", vec![start]),
            ("halt", vec![halt]),
            ("clr", vec![clr]),
            ("mode", mode_cfg[..2].to_vec()),
            ("max_iter", max_iter.clone()),
            ("n_edges", n_edges.clone()),
            ("n_checks", n_checks.clone()),
            ("cfg_base", cfg_base.clone()),
            ("ext_sync", vec![ext_sync]),
            ("resume", vec![resume]),
            ("step_en", vec![step_en]),
            ("quota", quota.clone()),
        ]);
        let cu_outs = self.instantiate_module(&mut mb, 2, &cu_srcs, &bist, &pattern_bit)?;

        // ---- BIT_NODE instance.
        let bn_srcs: HashMap<&str, Word> = HashMap::from([
            ("ch_llr", llr_in.clone()),
            ("msg_a", cn_msg_ph.clone()),
            ("msg_b", cn_min1_ph.clone()),
            ("sel", sel_cfg.clone()),
            ("mode", mode_cfg.clone()),
            ("degree", degree_cfg.clone()),
            ("addr_in", cu_outs["addr_a"].clone()),
            ("start", vec![cu_outs["edge_wrap"][0]]),
            ("valid", vec![cu_outs["wr_a"][0]]),
            ("clr", vec![clr]),
        ]);
        let bn_outs = self.instantiate_module(&mut mb, 0, &bn_srcs, &bist, &pattern_bit)?;

        // ---- CHECK_NODE instance.
        let cn_srcs: HashMap<&str, Word> = HashMap::from([
            ("msg_in", bn_outs["msg_out"].clone()),
            ("msg_in2", bn_outs["msg_out2"].clone()),
            ("sel", sel_cfg.clone()),
            ("mode", mode_cfg.clone()),
            ("vaddr", cu_outs["addr_b"][..5].to_vec()),
            ("edge_idx", cu_outs["addr_a"][..4].to_vec()),
            ("addr_in", cu_outs["addr_b"].clone()),
            ("degree", degree_cfg[..4].to_vec()),
            ("start", vec![cu_outs["edge_wrap"][0]]),
            ("valid", vec![cu_outs["wr_b"][0]]),
            ("clr", vec![clr]),
            ("pass2", vec![cu_outs["phase"][0]]),
            ("last", vec![cu_outs["last_edge"][0]]),
        ]);
        let cn_outs = self.instantiate_module(&mut mb, 1, &cn_srcs, &bist, &pattern_bit)?;

        // Close the CN→BN feedback through the placeholders.
        for (ph, real) in cn_msg_ph.iter().zip(&cn_outs["msg_out"]) {
            mb.netlist_mut().set_pin(*ph, 0, *real);
        }
        for (ph, real) in cn_min1_ph.iter().zip(&cn_outs["min1_out"]) {
            mb.netlist_mut().set_pin(*ph, 0, *real);
        }

        // Functional outputs.
        mb.output("hard_bit", bn_outs["hard_bit"][0]);
        mb.output("parity", bn_outs["parity"][0]);
        mb.output_bus("acc_out", &bn_outs["acc_out"]);
        mb.output_bus("cn_msg", &cn_outs["msg_out"]);
        mb.output_bus("iter_out", &cu_outs["iter_out"]);
        mb.output("bn_done", bn_outs["done"][0]);
        mb.output("cn_done", cn_outs["done"][0]);
        mb.output("cu_done", cu_outs["done"][0]);
        mb.output("bn_busy", bn_outs["busy"][0]);
        mb.output("cn_busy", cn_outs["busy"][0]);

        // Result collector.
        if let Some((test_en, _, _, end_test, b_rst, b_sel)) = &bist {
            let mut signatures: Vec<Word> = Vec::new();
            for outs in [&bn_outs, &cn_outs, &cu_outs] {
                let response: Word = outs
                    .iter()
                    .collect::<std::collections::BTreeMap<_, _>>()
                    .into_values()
                    .flatten()
                    .copied()
                    .collect();
                let folded = build_xor_cascade(&mut mb, &response, self.spec.misr_width);
                let sig = build_misr(&mut mb, *test_en, *b_rst, &folded);
                signatures.push(sig);
            }
            let selected = mb.select(b_sel, &signatures);
            mb.output_bus("bist_out", &selected);
            mb.output("bist_end", *end_test);
        }
        Ok(mb.finish()?)
    }

    /// Instantiates module `m` with per-port functional sources, inserting
    /// the BIST input muxes when BIST resources are present.
    fn instantiate_module(
        &self,
        mb: &mut ModuleBuilder,
        m: usize,
        srcs: &HashMap<&str, Word>,
        bist: &Option<BistResources>,
        pattern_bit: &dyn Fn(&mut ModuleBuilder, &Option<BistResources>, &BitSource) -> NetId,
    ) -> Result<HashMap<String, Word>, SessionError> {
        let module = &self.modules[m];
        let wiring = &self.spec.wirings[m];
        let mut input_map = HashMap::new();
        let mut offset = 0usize;
        let ports: Vec<(String, usize)> = module
            .input_ports()
            .iter()
            .map(|p| (p.name().to_owned(), p.width()))
            .collect();
        for (name, width) in &ports {
            let func = srcs
                .get(name.as_str())
                .ok_or_else(|| SessionError::MissingSource {
                    module: module.name().to_owned(),
                    port: name.clone(),
                })?;
            if func.len() != *width {
                return Err(SessionError::SourceWidth {
                    module: module.name().to_owned(),
                    port: name.clone(),
                    expected: *width,
                    got: func.len(),
                });
            }
            let wired: Word = if let Some((test_en, ..)) = bist {
                (0..*width)
                    .map(|i| {
                        let pb = pattern_bit(mb, bist, &wiring.bits()[offset + i]);
                        mb.mux(*test_en, func[i], pb)
                    })
                    .collect()
            } else {
                func.clone()
            };
            offset += width;
            input_map.insert(name.clone(), wired);
        }
        Ok(mb.netlist_mut().instantiate(module, &input_map)?)
    }

    /// The P1500-wrapped variant of [`CaseStudy::assemble`].
    ///
    /// # Errors
    ///
    /// See [`CaseStudy::assemble`].
    pub fn wrapped(&self, with_bist: bool) -> Result<Netlist, SessionError> {
        Ok(soctest_p1500::structural::wrap_core(
            &self.assemble(with_bist)?,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_sim::KernelSim;

    #[test]
    fn spec_matches_the_paper() {
        let case = CaseStudy::paper().unwrap();
        assert_eq!(case.spec().alfsr_width, 20);
        assert_eq!(case.spec().misr_width, 16);
        assert_eq!(case.spec().counter_bits, 12);
        assert_eq!(case.modules().len(), 3);
        assert_eq!(
            case.module_names(),
            vec!["BIT_NODE", "CHECK_NODE", "CONTROL_UNIT"]
        );
    }

    #[test]
    fn wirings_cover_module_inputs() {
        let case = CaseStudy::paper().unwrap();
        for (m, module) in case.modules().iter().enumerate() {
            assert_eq!(case.wiring(m).width(), module.input_width());
        }
        // BIT_NODE's `sel` is constrained: its wiring entries are CG refs.
        let bn = &case.modules()[0];
        let mut offset = 0;
        for port in bn.input_ports() {
            if port.name() == "sel" {
                for i in 0..port.width() {
                    assert!(matches!(
                        case.wiring(0).bits()[offset + i],
                        BitSource::Cg { cg: 0, .. }
                    ));
                }
            }
            offset += port.width();
        }
    }

    #[test]
    fn assemble_plain_levelizes_and_simulates() {
        let case = CaseStudy::paper().unwrap();
        let top = case.assemble(false).unwrap();
        let mut sim = KernelSim::new(&top).unwrap();
        sim.drive_port(&top, "llr_in", 5);
        sim.drive_port(&top, "clr", 0);
        sim.drive_port(&top, "start", 1);
        sim.drive_port(&top, "step_en", 1);
        sim.drive_port(&top, "n_edges", 3);
        sim.drive_port(&top, "max_iter", 1);
        for _ in 0..20 {
            sim.step();
        }
        sim.eval_comb();
        assert!(sim.read_port_lane(&top, "iter_out", 0).is_some());
    }

    #[test]
    fn assemble_bist_runs_a_structural_session() {
        let case = CaseStudy::paper().unwrap();
        let top = case.assemble(true).unwrap();
        let run = |npat: u64| {
            let mut sim = KernelSim::new(&top).unwrap();
            sim.drive_port(&top, "bist_rst", 0);
            sim.drive_port(&top, "bist_npat", npat);
            sim.drive_port(&top, "bist_sel", 0);
            sim.drive_port(&top, "clr", 0);
            sim.drive_port(&top, "bist_start", 1);
            sim.step();
            sim.drive_port(&top, "bist_start", 0);
            let mut guard = 0;
            loop {
                sim.eval_comb();
                if sim.read_port_lane(&top, "bist_end", 0) == Some(1) {
                    break;
                }
                sim.step();
                guard += 1;
                assert!(guard < npat + 10, "session must terminate");
            }
            sim.read_port_lane(&top, "bist_out", 0).unwrap()
        };
        let sig_a = run(64);
        let sig_b = run(64);
        assert_eq!(sig_a, sig_b, "structural signatures are reproducible");
        let sig_c = run(96);
        assert_ne!(sig_a, sig_c, "longer runs give different signatures");
    }

    #[test]
    fn variant_and_weighted_generators_are_deterministic_knobs() {
        use soctest_fault::SeqStimulus;
        let case = CaseStudy::paper().unwrap();
        let rows = |pg: &PatternGenerator, m: usize| {
            let width = case.modules()[m].input_width();
            let mut stim = pg.stimulus(m, 8);
            let mut row = vec![false; width];
            (0..8)
                .map(|t| {
                    stim.fill(t, &mut row);
                    row.clone()
                })
                .collect::<Vec<_>>()
        };

        // Reseeding changes the stream; seed 0 reproduces the default.
        let base = case.pattern_generator();
        let reseeded = case.pattern_generator_variant(0, 0xABCDE).unwrap();
        assert_ne!(rows(&base, 0), rows(&reseeded, 0));
        let default_seed = case.pattern_generator_variant(0, 0).unwrap();
        assert_eq!(rows(&base, 0), rows(&default_seed, 0));
        assert!(case.pattern_generator_variant(9, 0).is_err());

        // The weighted generator is deterministic in (weights, seed), only
        // reroutes the requested module, and rejects mis-sized weights.
        let width = case.modules()[1].input_width();
        let weights = vec![0.5; width];
        let w1 = case.weighted_pattern_generator(1, &weights, 7).unwrap();
        let w2 = case.weighted_pattern_generator(1, &weights, 7).unwrap();
        assert_eq!(rows(&w1, 1), rows(&w2, 1));
        assert_ne!(rows(&w1, 1), rows(&base, 1));
        assert_eq!(rows(&w1, 0), rows(&base, 0), "module 0 wiring untouched");
        assert!(case.weighted_pattern_generator(1, &[0.5], 7).is_err());
    }

    #[test]
    fn clones_share_kernels_until_a_module_is_planted() {
        let case = CaseStudy::paper().unwrap();
        let n = case.modules().len();
        let kernels: Vec<_> = (0..n)
            .map(|m| Arc::clone(case.kernel(m).unwrap()))
            .collect();
        let mut planted = case.clone();
        for (m, k) in kernels.iter().enumerate() {
            assert!(
                Arc::ptr_eq(planted.kernel(m).unwrap(), k),
                "clone shares {m}"
            );
            assert!(Arc::ptr_eq(case.kernel(m).unwrap(), k), "cached in {m}");
        }

        // A detectable stuck-at on CONTROL_UNIT's first output.
        let victim = planted.modules()[2].primary_outputs()[0];
        planted.module_mut(2).force_constant(victim, true);
        assert!(!Arc::ptr_eq(planted.kernel(2).unwrap(), &kernels[2]));
        assert!(Arc::ptr_eq(case.kernel(2).unwrap(), &kernels[2]));
        for (m, k) in kernels.iter().enumerate().take(2) {
            assert!(
                Arc::ptr_eq(planted.kernel(m).unwrap(), k),
                "{m} stays shared"
            );
        }

        let golden = case.golden_signatures(64).unwrap();
        let defective = planted.golden_signatures(64).unwrap();
        assert_eq!(golden[..2], defective[..2]);
        assert_ne!(
            golden[2], defective[2],
            "the planted module's signature moves"
        );
    }

    #[test]
    fn bist_variant_is_strictly_larger() {
        let case = CaseStudy::paper().unwrap();
        let plain = case.assemble(false).unwrap();
        let with_bist = case.assemble(true).unwrap();
        assert!(with_bist.len() > plain.len() + 500);
    }
}
