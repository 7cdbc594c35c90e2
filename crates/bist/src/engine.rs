//! The assembled behavioral BIST engine.

use soctest_obs::{TraceEvent, TraceHandle};

use crate::{
    Alfsr, BistCommand, BistPhase, ConstraintGenerator, ControlUnit, EngineError, Misr,
    PatternGenerator, PortWiring,
};

/// Engine-level configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BistEngineConfig {
    /// Pattern-counter width (the case study uses 12 → up to 4,096
    /// patterns per execution).
    pub counter_bits: usize,
    /// MISR width per module (the case study uses three 16-bit MISRs).
    pub misr_width: usize,
}

impl Default for BistEngineConfig {
    fn default() -> Self {
        BistEngineConfig {
            counter_bits: 12,
            misr_width: 16,
        }
    }
}

/// How one module under test hooks up to the engine.
#[derive(Debug, Clone)]
pub struct ModuleHookup {
    /// Module name (reporting only).
    pub name: String,
    /// Input wiring from the pattern-generation resources.
    pub wiring: PortWiring,
    /// Module output width (fed to the XOR cascade of its MISR).
    pub output_width: usize,
}

/// The behavioral BIST engine: control unit + pattern generator + result
/// collector, co-simulated against module models.
///
/// The engine produces each module's stimulus row, absorbs each module's
/// response into that module's MISR (through the XOR cascade), and tracks
/// test progress. Drive it in lock-step with module simulations:
///
/// ```text
/// engine.begin(n);
/// while !done {
///     for m in modules { apply engine.inputs(m); capture outputs[m]; }
///     done = engine.try_clock(&outputs)?;
/// }
/// ```
#[derive(Debug)]
pub struct BistEngine {
    control: ControlUnit,
    pgen: PatternGenerator,
    alfsr: Alfsr,
    misrs: Vec<Misr>,
    names: Vec<String>,
    output_widths: Vec<usize>,
    cycle: u64,
    seed: u64,
    trace: TraceHandle,
}

impl BistEngine {
    /// Assembles an engine from an ALFSR, constraint generators, and the
    /// per-module hookups.
    pub fn new(
        alfsr: Alfsr,
        cgs: Vec<Box<dyn ConstraintGenerator + Send + Sync>>,
        hookups: Vec<ModuleHookup>,
        config: BistEngineConfig,
    ) -> Self {
        let names: Vec<String> = hookups.iter().map(|h| h.name.clone()).collect();
        let output_widths: Vec<usize> = hookups.iter().map(|h| h.output_width).collect();
        let wirings: Vec<PortWiring> = hookups.into_iter().map(|h| h.wiring).collect();
        let streaming = {
            let mut a = alfsr.clone();
            a.reset();
            a
        };
        BistEngine {
            control: ControlUnit::new(config.counter_bits),
            pgen: PatternGenerator::new(alfsr, cgs, wirings),
            alfsr: streaming,
            misrs: (0..names.len())
                .map(|_| Misr::new(config.misr_width))
                .collect(),
            names,
            output_widths,
            cycle: 0,
            seed: 0,
            trace: TraceHandle::none(),
        }
    }

    /// Attaches a trace handle; commands and MISR snapshots at read
    /// boundaries are emitted through it from now on (disabled by
    /// default).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Sets the ALFSR seed loaded on the next `Reset`/`Start` (the
    /// "choose a new seed" leg of the paper's step-2 feedback loop;
    /// seed 0 is the power-on default).
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// The configured ALFSR seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The control unit (for issuing raw commands).
    pub fn control_mut(&mut self) -> &mut ControlUnit {
        &mut self.control
    }

    /// The control unit, read-only.
    pub fn control(&self) -> &ControlUnit {
        &self.control
    }

    /// The pattern generator.
    pub fn pattern_generator(&self) -> &PatternGenerator {
        &self.pgen
    }

    /// Module names in hookup order.
    pub fn module_names(&self) -> &[String] {
        &self.names
    }

    /// Convenience: reset, load `npatterns`, start — so that
    /// [`BistEngine::inputs`] is valid for the first cycle.
    pub fn begin(&mut self, npatterns: u64) {
        self.command(BistCommand::Reset);
        self.command(BistCommand::LoadPatternCount(npatterns));
        self.command(BistCommand::Start);
    }

    /// Issues a command. `Reset` clears the signatures, re-seeds the ALFSR
    /// (pre-stepping it so the first cycle's patterns are ready), and
    /// rewinds the cycle counter, in addition to resetting the control
    /// unit.
    pub fn command(&mut self, cmd: BistCommand) {
        let prep = cmd == BistCommand::Reset
            || (cmd == BistCommand::Start && self.control.phase() == BistPhase::Idle);
        if prep {
            for m in &mut self.misrs {
                m.reset();
            }
            self.alfsr.set_state(self.seed);
            self.alfsr.step();
            self.cycle = 0;
        }
        self.control.command(cmd);
        self.trace.emit(
            self.cycle,
            TraceEvent::BistCommand {
                kind: cmd.name(),
                operand: cmd.operand(),
            },
        );
    }

    /// The stimulus row for module `m` in the current cycle.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn inputs(&self, m: usize) -> Vec<bool> {
        self.pgen.row_from_state(m, self.alfsr.state(), self.cycle)
    }

    /// Checks that `outputs` provides one response row per module of the
    /// declared width — the rows [`BistEngine::try_clock`] accepts.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ResponseArity`] on the first mismatch.
    pub fn check_arity(&self, outputs: &[Vec<bool>]) -> Result<(), EngineError> {
        if outputs.len() != self.misrs.len() {
            return Err(EngineError::ResponseArity {
                expected: self.misrs.len(),
                got: outputs.len(),
            });
        }
        for (out, width) in outputs.iter().zip(&self.output_widths) {
            if out.len() != *width {
                return Err(EngineError::ResponseArity {
                    expected: *width,
                    got: out.len(),
                });
            }
        }
        Ok(())
    }

    /// Completes the current cycle: absorbs every module's response into
    /// its MISR and advances the pattern counter and ALFSR. Returns `true`
    /// when the test has finished. The engine state is untouched when an
    /// error is returned.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ResponseArity`] if `outputs` does not provide
    /// one response row per module of the declared width.
    pub fn try_clock(&mut self, outputs: &[Vec<bool>]) -> Result<bool, EngineError> {
        self.check_arity(outputs)?;
        if self.control.test_enable() {
            for (misr, out) in self.misrs.iter_mut().zip(outputs) {
                misr.absorb_folded(out);
            }
        }
        self.control.clock();
        self.alfsr.step();
        self.cycle += 1;
        let done = self.control.end_test();
        if done {
            // Read boundary: the signatures are now stable for scan-out.
            for (m, misr) in self.misrs.iter().enumerate() {
                self.trace.emit(
                    self.cycle,
                    TraceEvent::MisrSnapshot {
                        module: m as u8,
                        signature: misr.signature(),
                    },
                );
            }
        }
        Ok(done)
    }

    /// The signature captured for module `m`.
    pub fn signature(&self, m: usize) -> u64 {
        self.misrs[m].signature()
    }

    /// The signature currently exposed by the output selector.
    pub fn selected_signature(&self) -> u64 {
        let sel = self.control.result_select() as usize % self.misrs.len().max(1);
        let sig = self.misrs.get(sel).map_or(0, Misr::signature);
        self.trace.emit(
            self.cycle,
            TraceEvent::MisrSnapshot {
                module: sel as u8,
                signature: sig,
            },
        );
        sig
    }

    /// Current phase.
    pub fn phase(&self) -> BistPhase {
        self.control.phase()
    }

    /// The per-module MISR width.
    pub fn misr_width(&self) -> usize {
        self.misrs.first().map_or(0, Misr::width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HoldCycler;

    fn engine() -> BistEngine {
        BistEngine::new(
            Alfsr::new(8).unwrap(),
            vec![Box::new(HoldCycler::new(2, vec![0, 1, 2, 3], 4))],
            vec![
                ModuleHookup {
                    name: "m0".into(),
                    wiring: PortWiring::direct(5),
                    output_width: 3,
                },
                ModuleHookup {
                    name: "m1".into(),
                    wiring: PortWiring::with_cg(6, 0, &[0, 1]),
                    output_width: 20,
                },
            ],
            BistEngineConfig {
                counter_bits: 8,
                misr_width: 8,
            },
        )
    }

    /// A toy "module": output = rotated input slice.
    fn fake_module(inputs: &[bool], width: usize) -> Vec<bool> {
        (0..width).map(|i| inputs[(i + 1) % inputs.len()]).collect()
    }

    fn run_session(e: &mut BistEngine, n: u64) -> (u64, u64, u64) {
        e.begin(n);
        let mut cycles = 0u64;
        loop {
            let o0 = fake_module(&e.inputs(0), 3);
            let o1 = fake_module(&e.inputs(1), 20);
            cycles += 1;
            if e.try_clock(&[o0, o1]).unwrap() {
                break;
            }
        }
        (cycles, e.signature(0), e.signature(1))
    }

    #[test]
    fn session_runs_exact_pattern_count() {
        let mut e = engine();
        let (cycles, s0, s1) = run_session(&mut e, 50);
        assert_eq!(cycles, 50);
        assert_ne!((s0, s1), (0, 0));
        assert_eq!(e.phase(), BistPhase::Done);
    }

    #[test]
    fn signatures_are_reproducible() {
        let mut e1 = engine();
        let mut e2 = engine();
        assert_eq!(run_session(&mut e1, 40), run_session(&mut e2, 40));
    }

    #[test]
    fn different_lengths_give_different_signatures() {
        let mut e1 = engine();
        let mut e2 = engine();
        let a = run_session(&mut e1, 40);
        let b = run_session(&mut e2, 41);
        assert_ne!((a.1, a.2), (b.1, b.2));
    }

    #[test]
    fn rerunning_begin_resets_state() {
        let mut e = engine();
        let first = run_session(&mut e, 30);
        let second = run_session(&mut e, 30);
        assert_eq!(first, second, "begin() must fully reset the engine");
    }

    #[test]
    fn reseeding_changes_signatures() {
        let mut e1 = engine();
        let a = run_session(&mut e1, 40);
        let mut e2 = engine();
        e2.set_seed(0x5A);
        let b = run_session(&mut e2, 40);
        assert_ne!((a.1, a.2), (b.1, b.2), "a new seed yields a new stream");
        let mut e3 = engine();
        e3.set_seed(0x5A);
        assert_eq!(b, run_session(&mut e3, 40), "reseeded runs replay");
    }

    #[test]
    fn malformed_responses_are_typed_errors() {
        let mut e = engine();
        e.begin(10);
        assert_eq!(
            e.try_clock(&[]),
            Err(EngineError::ResponseArity {
                expected: 2,
                got: 0
            })
        );
        let bad = vec![vec![false; 3], vec![false; 5]];
        assert_eq!(
            e.try_clock(&bad),
            Err(EngineError::ResponseArity {
                expected: 20,
                got: 5
            })
        );
        assert_eq!(
            e.control().pattern_counter(),
            0,
            "errors leave state untouched"
        );
    }

    #[test]
    fn selected_signature_follows_result_select() {
        let mut e = engine();
        let (_, s0, s1) = run_session(&mut e, 20);
        e.command(BistCommand::SelectResult(0));
        assert_eq!(e.selected_signature(), s0);
        e.command(BistCommand::SelectResult(1));
        assert_eq!(e.selected_signature(), s1);
    }
}
