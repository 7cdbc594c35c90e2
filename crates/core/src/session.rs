//! Live BIST sessions: the behavioral engine co-simulated against the
//! module netlists, pluggable behind the P1500 wrapper.

use std::sync::Arc;

use soctest_bist::{BistCommand, BistEngine, EngineError};
use soctest_netlist::Netlist;
use soctest_obs::TraceHandle;
use soctest_p1500::BistBackend;
use soctest_sim::{KernelSim, VcdProbe};

use crate::casestudy::CaseStudy;
use crate::error::SessionError;

/// The wrapped core: the BIST engine and one compiled-kernel simulator per
/// module, advancing in lock-step. Implements [`BistBackend`], so a
/// [`soctest_p1500::TapDriver`] can run complete test sessions against it
/// — load pattern count, start, burst at speed, read signatures.
///
/// The simulators run on the case study's cached kernels
/// ([`CaseStudy::kernel`]), so building a backend compiles nothing after
/// the first build on the same case study.
#[derive(Debug)]
pub struct WrappedCore<'a> {
    case: &'a CaseStudy,
    engine: BistEngine,
    sims: Vec<KernelSim>,
    /// Per-module response rows, reused every functional clock.
    responses: Vec<Vec<bool>>,
    vcd: Option<VcdProbe>,
    vcd_groups: Vec<usize>,
    functional_cycle: u64,
}

impl<'a> WrappedCore<'a> {
    /// Builds the backend for a case study.
    ///
    /// # Errors
    ///
    /// Propagates kernel-compilation errors.
    pub fn new(case: &'a CaseStudy) -> Result<Self, SessionError> {
        Self::with_engine(case, case.engine())
    }

    /// Builds the backend with a caller-supplied engine — e.g. one from
    /// [`CaseStudy::engine_variant`] with an alternate polynomial or seed,
    /// as a robust session's retry ladder does.
    ///
    /// # Errors
    ///
    /// Propagates kernel-compilation errors, and returns
    /// [`EngineError::ResponseArity`] when the engine's module hookups do
    /// not match the case study's modules.
    pub fn with_engine(case: &'a CaseStudy, engine: BistEngine) -> Result<Self, SessionError> {
        let mut sims = Vec::with_capacity(case.modules().len());
        let mut responses = Vec::with_capacity(case.modules().len());
        for m in 0..case.modules().len() {
            let kernel = case.kernel(m)?;
            responses.push(vec![false; kernel.pos().len()]);
            sims.push(KernelSim::from_kernel(Arc::clone(kernel)));
        }
        engine.check_arity(&responses)?;
        Ok(WrappedCore {
            case,
            engine,
            sims,
            responses,
            vcd: None,
            vcd_groups: Vec::new(),
            functional_cycle: 0,
        })
    }

    /// Attaches a trace handle to the embedded engine (BIST commands and
    /// MISR snapshots at read boundaries).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.engine.set_trace(trace);
    }

    /// Starts recording a VCD waveform of every module's ports, one
    /// timestep per functional clock. Module *m* appears as scope
    /// `m<m>_<module name>`; the timeline is monotonic across resets.
    pub fn enable_vcd(&mut self) {
        let mut probe = VcdProbe::new();
        let mut groups = Vec::with_capacity(self.sims.len());
        for (m, nl) in self.case.modules().iter().enumerate() {
            groups.push(probe.add_module(&format!("m{m}_{}", nl.name()), nl));
        }
        self.vcd = Some(probe);
        self.vcd_groups = groups;
    }

    /// Stops recording and returns the rendered VCD document, or `None` if
    /// [`WrappedCore::enable_vcd`] was never called.
    pub fn take_vcd(&mut self) -> Option<String> {
        self.vcd_groups.clear();
        self.vcd.take().map(|p| p.finish())
    }

    /// The engine (e.g. to inspect per-module signatures).
    pub fn engine(&self) -> &BistEngine {
        &self.engine
    }

    /// The module netlists being exercised.
    pub fn netlists(&self) -> &[Arc<Netlist>] {
        self.case.modules()
    }

    /// Runs a complete fault-free session (reset → load → start → run to
    /// completion) and returns every module's signature. Used to compute
    /// golden signatures.
    ///
    /// # Errors
    ///
    /// [`SessionError::Engine`] with [`EngineError::Hung`] if the engine
    /// never raises `end_test` within the `npatterns + 4` cycle watchdog —
    /// e.g. a session started with a pattern count of zero, which the
    /// control unit ignores. Earlier versions silently returned the
    /// power-on signatures here, which compared equal between a golden
    /// rehearsal and a defective DUT: a hung session looked like a pass.
    pub fn rehearse(&mut self, npatterns: u64) -> Result<Vec<u64>, SessionError> {
        self.command(BistCommand::Reset);
        self.command(BistCommand::LoadPatternCount(npatterns));
        self.command(BistCommand::Start);
        for sim in &mut self.sims {
            sim.reset();
        }
        let budget = npatterns + 4;
        let mut spent = 0u64;
        while !self.engine.control().end_test() {
            if spent >= budget {
                return Err(EngineError::Hung { cycles: spent }.into());
            }
            self.functional_clock();
            spent += 1;
        }
        Ok((0..self.sims.len())
            .map(|m| self.engine.signature(m))
            .collect())
    }
}

impl BistBackend for WrappedCore<'_> {
    fn command(&mut self, cmd: BistCommand) {
        // A reset command also returns the modules to their power-on state
        // (the BIST clr pulse would do this in silicon over a few cycles).
        if cmd == BistCommand::Reset {
            for sim in &mut self.sims {
                sim.reset();
            }
        }
        self.engine.command(cmd);
    }

    fn functional_clock(&mut self) {
        if !self.engine.control().test_enable() {
            return;
        }
        for (m, (sim, outs)) in self.sims.iter_mut().zip(&mut self.responses).enumerate() {
            sim.drive_inputs(&self.engine.inputs(m));
            sim.eval_comb();
            sim.read_outputs(outs);
            if let Some(probe) = self.vcd.as_mut() {
                probe.record(self.vcd_groups[m], sim.values());
            }
            sim.clock();
        }
        if let Some(probe) = self.vcd.as_mut() {
            probe.advance(self.functional_cycle);
        }
        self.functional_cycle += 1;
        // `with_engine` checked these rows against the engine's hookups,
        // and their sizes never change, so the clock cannot be refused.
        let _ = self.engine.try_clock(&self.responses);
    }

    fn end_test(&self) -> bool {
        self.engine.control().end_test()
    }

    fn selected_signature(&self) -> u64 {
        self.engine.selected_signature()
    }

    fn signature_width(&self) -> usize {
        self.engine.misr_width()
    }
}

impl crate::robust::SessionBackend for WrappedCore<'_> {
    fn set_trace(&mut self, trace: TraceHandle) {
        WrappedCore::set_trace(self, trace);
    }

    fn enable_vcd(&mut self) {
        WrappedCore::enable_vcd(self);
    }

    fn take_vcd(&mut self) -> Option<String> {
        WrappedCore::take_vcd(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::robust::RobustSession;
    use soctest_p1500::TapDriver;

    /// FNV-1a, 64-bit.
    fn fnv64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn clean_session_waveform_is_pinned() {
        // Pinned before the session moved onto the compiled kernel: the
        // change of simulator must leave the waveform byte-identical.
        let case = CaseStudy::paper().unwrap();
        let report = RobustSession::default()
            .with_vcd(true)
            .run(&case, &case, 64)
            .unwrap();
        let vcd = report.vcd.unwrap();
        assert_eq!(vcd.len(), 14_473);
        assert_eq!(fnv64(vcd.as_bytes()), 0xe7cc_5507_c5b8_78e2);
    }

    #[test]
    fn rehearsal_is_deterministic() {
        let case = CaseStudy::paper().unwrap();
        let mut a = WrappedCore::new(&case).unwrap();
        let mut b = WrappedCore::new(&case).unwrap();
        assert_eq!(a.rehearse(128).unwrap(), b.rehearse(128).unwrap());
    }

    #[test]
    fn signatures_depend_on_length() {
        let case = CaseStudy::paper().unwrap();
        let mut w = WrappedCore::new(&case).unwrap();
        let short = w.rehearse(64).unwrap();
        let long = w.rehearse(65).unwrap();
        assert_ne!(short, long);
    }

    #[test]
    fn rehearsal_can_be_repeated_on_the_same_backend() {
        let case = CaseStudy::paper().unwrap();
        let mut w = WrappedCore::new(&case).unwrap();
        let first = w.rehearse(100).unwrap();
        let second = w.rehearse(100).unwrap();
        assert_eq!(first, second, "reset must clear all state");
    }

    #[test]
    fn zero_pattern_rehearsal_is_a_typed_hang() {
        let case = CaseStudy::paper().unwrap();
        let mut w = WrappedCore::new(&case).unwrap();
        // The control unit ignores Start with a zero pattern count, so
        // end_test never rises; the watchdog must say so instead of
        // returning power-on signatures.
        match w.rehearse(0) {
            Err(SessionError::Engine(EngineError::Hung { cycles })) => {
                assert!(cycles <= 4, "watchdog fires at the budget, got {cycles}");
            }
            other => panic!("expected a Hung error, got {other:?}"),
        }
        // The backend stays usable afterwards.
        assert!(w.rehearse(64).is_ok());
    }

    #[test]
    fn variant_engines_give_different_signatures() {
        let case = CaseStudy::paper().unwrap();
        let golden = case.golden_signatures(64).unwrap();
        let alt = case.engine_variant(1, 0).unwrap();
        let mut w = WrappedCore::with_engine(&case, alt).unwrap();
        let recip = w.rehearse(64).unwrap();
        assert_ne!(golden, recip, "reciprocal polynomial changes the stream");
        let seeded = case.engine_variant(0, 0xBEEF).unwrap();
        let mut w = WrappedCore::with_engine(&case, seeded).unwrap();
        let reseeded = w.rehearse(64).unwrap();
        assert_ne!(golden, reseeded, "reseeding changes the stream");
    }

    #[test]
    fn tap_session_matches_rehearsal() {
        let case = CaseStudy::paper().unwrap();
        let golden = case.golden_signatures(96).unwrap();
        let backend = WrappedCore::new(&case).unwrap();
        let mut ate = TapDriver::new(backend);
        ate.reset();
        ate.bist_load_pattern_count(96);
        ate.bist_start();
        let stats = ate.wait_for_done(32, 10).unwrap();
        assert!(
            stats.cycles_waited >= 96,
            "at least npatterns functional cycles"
        );
        for (m, &gold) in golden.iter().enumerate() {
            ate.bist_select_result(m as u8);
            let (done, sig) = ate.read_status();
            assert!(done);
            assert_eq!(sig, gold, "module {m} signature");
        }
        assert!(ate.tck() > 100, "protocol cost is accounted");
    }
}
