//! The ATE model: a high-level driver that operates the TAP pins.

use soctest_bist::BistCommand;
use soctest_obs::{MetricsHandle, TraceEvent, TraceHandle};

use crate::tap::{DR_SCAN_OVERHEAD_TCKS, IR_SCAN_TCKS};
use crate::wrapper::WCDR_BITS;
use crate::{
    BistBackend, PinFaults, ProtocolError, TapController, TapInstruction, TapState, WaitStats,
    Wrapper, WrapperInstruction,
};

/// Drives a [`TapController`] the way an external tester would: composing
/// TMS/TDI sequences for instruction and data scans, issuing BIST commands
/// through the wrapper's WCDR, and reading status/signatures through the
/// WDR. Every operation pays its true cost in TCK cycles, which the driver
/// counts — this is where the protocol-level test-time numbers come from.
///
/// The driver steps the TAP one TCK at a time only when something observes
/// single edges: an attached trace or metrics handle, or an armed TMS, TDI
/// or dropped-TCK pin fault, which change the FSM's path. Otherwise each
/// IR or DR scan of at most 64 bits from Run-Test/Idle runs as one
/// operation on the TAP and wrapper registers, billed the same TCKs and
/// pin cycles and leaving the same state.
///
/// A [`PinFaults`] interposer can be armed between the ATE and the TAP to
/// model boundary-level defects (stuck/flipped TMS/TDI/TDO, dropped TCK
/// edges); see [`TapDriver::inject_pin_faults`].
#[derive(Debug, Clone)]
pub struct TapDriver<B> {
    tap: TapController<B>,
    functional_cycles: u64,
    pin_faults: PinFaults,
    pin_cycle: u64,
    trace: TraceHandle,
    metrics: MetricsHandle,
}

impl<B: BistBackend> TapDriver<B> {
    /// Wraps a backend in a P1500 wrapper, attaches a TAP, and the driver.
    pub fn new(backend: B) -> Self {
        TapDriver {
            tap: TapController::new(backend),
            functional_cycles: 0,
            pin_faults: PinFaults::none(),
            pin_cycle: 0,
            trace: TraceHandle::none(),
            metrics: MetricsHandle::none(),
        }
    }

    /// Attaches a trace handle; every TAP state edge, IR/WIR load, BIST
    /// command, and WDR capture is emitted through it from now on. The
    /// default handle is disabled (one null check per event site).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Attaches a metrics handle; TCK cycles, scans, and commands are
    /// counted through it from now on.
    pub fn set_metrics(&mut self, metrics: MetricsHandle) {
        self.metrics = metrics;
    }

    /// The attached trace handle (disabled by default).
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// The attached metrics handle (disabled by default).
    pub fn metrics(&self) -> &MetricsHandle {
        &self.metrics
    }

    /// The TAP (and through it the wrapper and backend).
    pub fn tap(&self) -> &TapController<B> {
        &self.tap
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &B {
        self.tap.wrapper().backend()
    }

    /// Mutable backend access (for co-simulation hookups).
    pub fn backend_mut(&mut self) -> &mut B {
        self.tap.wrapper_mut().backend_mut()
    }

    /// TCK cycles spent so far.
    pub fn tck(&self) -> u64 {
        self.tap.tck()
    }

    /// Functional (at-speed) cycles spent so far.
    pub fn functional_cycles(&self) -> u64 {
        self.functional_cycles
    }

    /// Arms a pin-fault interposer between the ATE and the TAP. Every
    /// subsequent TCK cycle passes through it until
    /// [`TapDriver::clear_pin_faults`].
    pub fn inject_pin_faults(&mut self, faults: PinFaults) {
        self.pin_faults = faults;
    }

    /// Removes the pin-fault interposer.
    pub fn clear_pin_faults(&mut self) {
        self.pin_faults = PinFaults::none();
    }

    /// The currently armed interposer.
    pub fn pin_faults(&self) -> PinFaults {
        self.pin_faults
    }

    /// One TCK cycle through the interposer.
    fn tick(&mut self, tms: bool, tdi: bool) -> bool {
        self.pin_cycle += 1;
        self.metrics.inc("tap_tck_cycles_total", 1);
        if self.pin_faults.drops_cycle(self.pin_cycle) {
            // The edge never reaches the TAP; the ATE reads a dead line.
            self.metrics.inc("tap_dropped_tck_edges_total", 1);
            return false;
        }
        let tms = self
            .pin_faults
            .tms
            .map_or(tms, |f| f.apply(tms, self.pin_cycle));
        let tdi = self
            .pin_faults
            .tdi
            .map_or(tdi, |f| f.apply(tdi, self.pin_cycle));
        let from = self.tap.state();
        let tdo = self.tap.tick(tms, tdi);
        let tdo = self
            .pin_faults
            .tdo
            .map_or(tdo, |f| f.apply(tdo, self.pin_cycle));
        self.trace.emit(
            self.tap.tck(),
            TraceEvent::TapStateChange {
                from: from.name(),
                to: self.tap.state().name(),
                tms,
                tdo,
            },
        );
        tdo
    }

    /// Whether the next scan may run as one register operation instead of
    /// TCK by TCK: nothing observes single edges, no armed pin fault
    /// changes the FSM's path, and the TAP sits in Run-Test/Idle, where
    /// the scan's TMS sequence starts.
    fn scans_whole(&self) -> bool {
        self.tap.state() == TapState::RunTestIdle
            && !self.trace.is_enabled()
            && !self.metrics.is_enabled()
            && self.pin_faults.tms.is_none()
            && self.pin_faults.tdi.is_none()
            && self.pin_faults.drop_tck_every.is_none()
    }

    /// The armed TDO fault applied to the `n` bits a whole DR scan shifted
    /// out, as the ATE reads them: shift bit `i` of a scan that starts
    /// after pin cycle `c` leaves on pin cycle `c + 4 + i`, and the TDO of
    /// the other TCKs is never read.
    fn tdo_faulted(&self, out: u64, n: usize) -> u64 {
        let Some(fault) = self.pin_faults.tdo else {
            return out;
        };
        let first = self.pin_cycle + 4;
        (0..n).fold(0, |acc, i| {
            let bit = fault.apply((out >> i) & 1 == 1, first + i as u64);
            acc | u64::from(bit) << i
        })
    }

    /// Hardware reset: five TMS-high cycles, then into Run-Test/Idle.
    pub fn reset(&mut self) {
        for _ in 0..5 {
            self.tick(true, false);
        }
        self.tick(false, false);
    }

    /// Loads a TAP instruction (assumes Run-Test/Idle; returns there).
    pub fn load_tap_ir(&mut self, instr: TapInstruction) {
        let code = instr.encode();
        if self.scans_whole() {
            // The ATE never reads TDO during an IR scan, so an armed TDO
            // fault has nothing to corrupt.
            self.pin_cycle += IR_SCAN_TCKS;
            self.tap.scan_ir(code);
        } else {
            self.tick(true, false); // SelectDrScan
            self.tick(true, false); // SelectIrScan
            self.tick(false, false); // CaptureIr
            self.tick(false, false); // capture; -> ShiftIr
            for i in 0..TapInstruction::LENGTH {
                let last = i == TapInstruction::LENGTH - 1;
                self.tick(last, (code >> i) & 1 == 1);
            }
            self.tick(true, false); // Exit1Ir -> UpdateIr
            self.tick(false, false); // update; -> RTI
        }
        self.metrics.inc("tap_ir_loads_total", 1);
        self.trace.emit(
            self.tap.tck(),
            TraceEvent::TapIrLoad {
                instruction: self.tap.instruction().name(),
            },
        );
    }

    /// Performs a DR scan of `bits`, returning the bits shifted out.
    /// (Assumes Run-Test/Idle; returns there.)
    pub fn shift_dr(&mut self, bits: &[bool]) -> Vec<bool> {
        let n = bits.len();
        if n > 64 {
            let mut out = Vec::with_capacity(n);
            self.tick_dr(n, |i| bits[i], |_, b| out.push(b));
            return out;
        }
        let word = bits
            .iter()
            .rev()
            .fold(0u64, |acc, &b| acc << 1 | u64::from(b));
        let out = self.scan_dr(word, n);
        (0..n).map(|i| (out >> i) & 1 == 1).collect()
    }

    /// A DR scan of the low `n <= 64` bits of `word`, bit 0 first,
    /// returning the bits shifted out, bit 0 first (assumes Run-Test/Idle;
    /// returns there).
    fn scan_dr(&mut self, word: u64, n: usize) -> u64 {
        if self.scans_whole() {
            let out = self.tap.scan_dr(word, n);
            let out = self.tdo_faulted(out, n);
            self.pin_cycle += n as u64 + DR_SCAN_OVERHEAD_TCKS;
            return out;
        }
        let mut out = 0u64;
        self.tick_dr(n, |i| (word >> i) & 1 == 1, |i, b| out |= u64::from(b) << i);
        out
    }

    /// The per-TCK DR scan from Run-Test/Idle back to it: `n + 5` TCKs,
    /// shift `i` driving `tdi(i)` and handing its TDO to `tdo(i, bit)`.
    fn tick_dr(&mut self, n: usize, tdi: impl Fn(usize) -> bool, mut tdo: impl FnMut(usize, bool)) {
        self.tick(true, false); // SelectDrScan
        self.tick(false, false); // -> CaptureDr
        self.tick(n == 0, false); // capture; -> ShiftDr, or Exit1Dr if nothing shifts
        for i in 0..n {
            let b = self.tick(i + 1 == n, tdi(i));
            tdo(i, b);
        }
        self.tick(true, false); // Exit1Dr -> UpdateDr
        self.tick(false, false); // update; -> RTI
        self.metrics.inc("tap_dr_scans_total", 1);
        self.metrics.observe("tap_dr_scan_bits", n as u64);
    }

    /// Loads a *wrapper* instruction through the WIR path, leaving the TAP
    /// pointed at the selected wrapper data register.
    pub fn wrapper_instruction(&mut self, wi: WrapperInstruction) {
        self.load_tap_ir(TapInstruction::WrapperInstr);
        self.scan_dr(wi.encode().into(), WrapperInstruction::LENGTH);
        self.emit_wir_load(wi);
        self.load_tap_ir(TapInstruction::WrapperData);
    }

    fn emit_wir_load(&mut self, wi: WrapperInstruction) {
        self.metrics.inc("wir_loads_total", 1);
        self.trace.emit(
            self.tap.tck(),
            TraceEvent::WirLoad {
                instruction: wi.name(),
            },
        );
    }

    /// Like [`TapDriver::wrapper_instruction`], but re-scans the WIR after
    /// loading and checks that the bits shifted back out match the code
    /// shifted in — catching TDI/TDO corruption on the instruction path
    /// before a misdecoded instruction silently selects the wrong register.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::WirReadbackMismatch`] when the readback
    /// differs.
    pub fn wrapper_instruction_verified(
        &mut self,
        wi: WrapperInstruction,
    ) -> Result<(), ProtocolError> {
        self.load_tap_ir(TapInstruction::WrapperInstr);
        let code = wi.encode();
        self.scan_dr(code.into(), WrapperInstruction::LENGTH);
        // The WIR shift stage still holds what actually arrived; scanning
        // the same code in again streams it back out.
        let got = self.scan_dr(code.into(), WrapperInstruction::LENGTH) as u8;
        if got != code {
            self.metrics.inc("wir_readback_mismatches_total", 1);
            return Err(ProtocolError::WirReadbackMismatch {
                expected: code,
                got,
            });
        }
        self.emit_wir_load(wi);
        self.load_tap_ir(TapInstruction::WrapperData);
        Ok(())
    }

    /// Issues a BIST command through the WCDR (selects the command register
    /// if needed).
    pub fn bist_command(&mut self, cmd: BistCommand) {
        self.select_wrapper_dr(WrapperInstruction::CommandReg);
        self.scan_dr(Wrapper::<B>::encode_command(cmd), WCDR_BITS);
        self.metrics.inc("bist_commands_total", 1);
        self.trace.emit(
            self.tap.tck(),
            TraceEvent::BistCommand {
                kind: cmd.name(),
                operand: cmd.operand(),
            },
        );
    }

    /// Makes sure DR scans reach the wrapper register `wi`: reloads the
    /// wrapper instruction when it differs, and re-points the TAP IR at
    /// `WrapperData` when an interleaved TAP operation (bypass scan,
    /// IDCODE read) moved it — otherwise the scan would shift into the
    /// TAP's own bypass bit and the wrapper would never see it.
    fn select_wrapper_dr(&mut self, wi: WrapperInstruction) {
        if self.tap.wrapper().instruction() != wi {
            self.wrapper_instruction(wi);
        } else if self.tap.instruction() != TapInstruction::WrapperData {
            self.load_tap_ir(TapInstruction::WrapperData);
        }
    }

    /// Loads the pattern count.
    pub fn bist_load_pattern_count(&mut self, n: u64) {
        self.bist_command(BistCommand::LoadPatternCount(n));
    }

    /// Starts the test.
    pub fn bist_start(&mut self) {
        self.bist_command(BistCommand::Start);
    }

    /// Selects which MISR the output selector exposes.
    pub fn bist_select_result(&mut self, idx: u8) {
        self.bist_command(BistCommand::SelectResult(idx));
    }

    /// Runs the core at functional speed for `cycles` clocks (the at-speed
    /// burst between TAP operations).
    pub fn run_functional(&mut self, cycles: u64) {
        self.functional_cycles += cycles;
        self.metrics.inc("functional_cycles_total", cycles);
        self.tap.wrapper_mut().run_functional(cycles);
    }

    /// Reads the WDR: returns `(end_test, selected signature)`.
    pub fn read_status(&mut self) -> (bool, u64) {
        self.select_wrapper_dr(WrapperInstruction::StatusReg);
        let n = self.tap.wrapper().wdr_length();
        let out = self.scan_dr(0, n);
        let done = out & 1 == 1;
        let sig = out >> 1;
        self.metrics.inc("wdr_captures_total", 1);
        self.trace.emit(
            self.tap.tck(),
            TraceEvent::WdrCapture {
                done,
                signature: sig,
            },
        );
        (done, sig)
    }

    /// Reads the WDR `votes` times and returns the majority `(end_test,
    /// signature)` value — each scan recaptures from the backend, so a
    /// transient upset on one read is outvoted by the clean re-reads.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::NoStatusMajority`] when no value reaches a
    /// strict majority.
    pub fn read_status_voted(&mut self, votes: u32) -> Result<(bool, u64), ProtocolError> {
        let votes = votes.max(1);
        let reads: Vec<(bool, u64)> = (0..votes).map(|_| self.read_status()).collect();
        let mut best: Option<((bool, u64), u32)> = None;
        for &r in &reads {
            let count = reads.iter().filter(|&&x| x == r).count() as u32;
            if best.is_none_or(|(_, c)| count > c) {
                best = Some((r, count));
            }
        }
        match best {
            Some((value, count)) if count * 2 > votes => Ok(value),
            _ => Err(ProtocolError::NoStatusMajority { votes }),
        }
    }

    /// Polls the status register until `end_test`, running the core in
    /// bursts of `burst` functional cycles, up to `max_bursts` times.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::DoneTimeout`] with the cycles spent when
    /// the budget is exhausted before `end_test` rises — the caller can
    /// distinguish a slow test (raise the budget) from a hung engine.
    pub fn wait_for_done(
        &mut self,
        burst: u64,
        max_bursts: u32,
    ) -> Result<WaitStats, ProtocolError> {
        let mut cycles_waited = 0u64;
        for b in 0..max_bursts {
            let (done, _) = self.read_status();
            if done {
                return Ok(WaitStats {
                    cycles_waited,
                    bursts: b,
                });
            }
            self.run_functional(burst);
            cycles_waited += burst;
        }
        let (done, _) = self.read_status();
        if done {
            Ok(WaitStats {
                cycles_waited,
                bursts: max_bursts,
            })
        } else {
            Err(ProtocolError::DoneTimeout {
                cycles_waited,
                bursts: max_bursts,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultyBackend, MockBackend, PinFault};

    #[test]
    fn full_session_through_the_tap() {
        let mut drv = TapDriver::new(MockBackend::new(16, 100));
        drv.reset();
        drv.bist_load_pattern_count(100);
        drv.bist_start();
        let stats = drv.wait_for_done(40, 10).unwrap();
        assert_eq!(stats.bursts, 3, "3 bursts of 40");
        assert_eq!(stats.cycles_waited, 120);
        let (done, sig) = drv.read_status();
        assert!(done);
        assert_eq!(sig, drv.backend().expected_signature());
        assert_eq!(drv.functional_cycles(), 120, "3 bursts of 40");
    }

    #[test]
    fn tck_accounting_is_nonzero_and_monotonic() {
        let mut drv = TapDriver::new(MockBackend::new(8, 4));
        drv.reset();
        let t0 = drv.tck();
        drv.bist_load_pattern_count(4);
        let t1 = drv.tck();
        assert!(t1 > t0);
        drv.bist_start();
        drv.run_functional(4);
        let (done, _) = drv.read_status();
        assert!(done);
        assert!(drv.tck() > t1);
    }

    #[test]
    fn select_result_changes_signature_view() {
        let mut drv = TapDriver::new(MockBackend::new(16, 1));
        drv.reset();
        drv.bist_load_pattern_count(5);
        drv.bist_start();
        drv.run_functional(1);
        drv.bist_select_result(0);
        let (_, s0) = drv.read_status();
        drv.bist_select_result(1);
        let (_, s1) = drv.read_status();
        assert_ne!(s0, s1, "mock signature depends on the selection");
    }

    #[test]
    fn timeout_reports_cycles_spent() {
        let mut drv = TapDriver::new(FaultyBackend::new(8, 2).with_hang());
        drv.reset();
        drv.bist_load_pattern_count(2);
        drv.bist_start();
        assert_eq!(
            drv.wait_for_done(16, 4),
            Err(ProtocolError::DoneTimeout {
                cycles_waited: 64,
                bursts: 4
            })
        );
    }

    #[test]
    fn wir_readback_passes_on_a_clean_path() {
        let mut drv = TapDriver::new(MockBackend::new(8, 1));
        drv.reset();
        drv.wrapper_instruction_verified(WrapperInstruction::CommandReg)
            .unwrap();
        assert_eq!(
            drv.tap().wrapper().instruction(),
            WrapperInstruction::CommandReg
        );
    }

    #[test]
    fn stuck_tdi_is_caught_by_wir_readback() {
        let mut drv = TapDriver::new(MockBackend::new(8, 1));
        drv.reset();
        drv.inject_pin_faults(PinFaults {
            tdi: Some(PinFault::StuckAt(false)),
            ..PinFaults::none()
        });
        let err = drv
            .wrapper_instruction_verified(WrapperInstruction::StatusReg)
            .unwrap_err();
        assert!(matches!(err, ProtocolError::WirReadbackMismatch { .. }));
    }

    #[test]
    fn voted_read_outlives_a_transient_upset() {
        let mut drv = TapDriver::new(FaultyBackend::new(16, 1).with_transient_reads(1, 0xFF));
        drv.reset();
        drv.bist_load_pattern_count(3);
        drv.bist_start();
        drv.run_functional(1);
        let (done, sig) = drv.read_status_voted(3).unwrap();
        assert!(done);
        assert_eq!(sig, drv.backend().expected_signature());
    }

    #[test]
    fn trace_captures_the_protocol_sequence() {
        use soctest_obs::{MetricsRegistry, TraceEvent, TraceHandle, TraceRecord, Tracer};
        use std::sync::Arc;

        let mut drv = TapDriver::new(MockBackend::new(16, 8));
        let trace = TraceHandle::new(Tracer::default());
        drv.set_trace(trace.clone());
        let reg = Arc::new(MetricsRegistry::new());
        drv.set_metrics(soctest_obs::MetricsHandle::from_arc(Arc::clone(&reg)));

        drv.reset();
        drv.bist_load_pattern_count(8);
        drv.bist_start();
        drv.run_functional(8);
        let (done, _) = drv.read_status();
        assert!(done);

        let recs: Vec<TraceRecord> = trace.with(|t| t.records().copied().collect()).unwrap();
        let names: Vec<&str> = recs.iter().map(|r| r.event.name()).collect();
        assert!(names.contains(&"TapStateChange"));
        assert!(names.contains(&"TapIrLoad"));
        assert!(names.contains(&"WirLoad"));
        assert!(names.contains(&"BistCommand"));
        assert!(names.contains(&"WdrCapture"));
        // Protocol order: the WIR load precedes the first BIST command,
        // which precedes the WDR capture.
        let pos = |n: &str| names.iter().position(|x| *x == n).unwrap();
        assert!(pos("WirLoad") < pos("BistCommand"));
        assert!(pos("BistCommand") < pos("WdrCapture"));
        // The LoadPatternCount command carries its operand.
        assert!(recs.iter().any(|r| matches!(
            r.event,
            TraceEvent::BistCommand {
                kind: "LoadPatternCount",
                operand: 8
            }
        )));
        // Cycle stamps are the driver's TCK counter: monotonic.
        let cycles: Vec<u64> = recs.iter().map(|r| r.cycle).collect();
        let mut sorted = cycles.clone();
        sorted.sort_unstable();
        assert_eq!(cycles, sorted);

        let snap = reg.snapshot();
        assert_eq!(snap.counters["tap_tck_cycles_total"], drv.tck());
        assert_eq!(snap.counters["functional_cycles_total"], 8);
        assert!(snap.counters["bist_commands_total"] >= 2);
        assert!(snap.histograms["tap_dr_scan_bits"].count >= 2);
    }

    /// A driver whose trace handle makes it step every TCK: the reference
    /// the whole-scan path must match.
    fn traced<B: BistBackend>(backend: B) -> TapDriver<B> {
        let mut drv = TapDriver::new(backend);
        drv.set_trace(TraceHandle::new(soctest_obs::Tracer::new(1)));
        drv
    }

    #[test]
    fn whole_scans_need_an_unobserved_idle_tap() {
        let mut drv = TapDriver::new(MockBackend::new(8, 1));
        assert!(!drv.scans_whole(), "Test-Logic-Reset is not a scan start");
        drv.reset();
        assert!(drv.scans_whole());
        drv.inject_pin_faults(PinFaults {
            tdo: Some(PinFault::FlipEvery(3)),
            ..PinFaults::none()
        });
        assert!(drv.scans_whole(), "a TDO fault is a mask over the window");
        for faults in [
            PinFaults {
                tms: Some(PinFault::StuckAt(false)),
                ..PinFaults::none()
            },
            PinFaults {
                tdi: Some(PinFault::FlipEvery(2)),
                ..PinFaults::none()
            },
            PinFaults {
                drop_tck_every: Some(7),
                ..PinFaults::none()
            },
        ] {
            drv.inject_pin_faults(faults);
            assert!(!drv.scans_whole(), "{faults:?} changes the FSM path");
        }
        drv.clear_pin_faults();
        let mut observed = traced(MockBackend::new(8, 1));
        observed.reset();
        assert!(!observed.scans_whole(), "a trace records every TCK");
        drv.set_metrics(soctest_obs::MetricsHandle::new(Default::default()));
        assert!(!drv.scans_whole(), "metrics count every TCK");
    }

    #[test]
    fn empty_dr_scan_returns_to_run_test_idle() {
        for mut drv in [
            TapDriver::new(MockBackend::new(8, 1)),
            traced(MockBackend::new(8, 1)),
        ] {
            drv.reset();
            drv.load_tap_ir(TapInstruction::Idcode);
            let t0 = drv.tck();
            assert!(drv.shift_dr(&[]).is_empty());
            assert_eq!(drv.tck() - t0, 5, "an empty scan still costs n + 5 TCKs");
            assert_eq!(drv.tap().state(), TapState::RunTestIdle);
            drv.load_tap_ir(TapInstruction::Bypass);
            assert_eq!(drv.tap().state(), TapState::RunTestIdle);
            assert_eq!(drv.tap().instruction(), TapInstruction::Bypass);
        }
    }

    /// Reset (6 TCKs) and a bypass IR load (10) end on pin cycle 16, so the
    /// 16-bit bypass scan below reaches Capture-DR on pin cycle 19, shifts
    /// bits 0..16 out on pin cycles 20..=35 and passes Exit1-DR on 36. The
    /// WIR load, commands and status read after it run under the same
    /// fault.
    fn window_script<B: BistBackend>(
        drv: &mut TapDriver<B>,
        tdo: Option<PinFault>,
    ) -> (Vec<bool>, (bool, u64)) {
        const PATTERN: [bool; 16] = [
            true, false, false, true, true, true, false, true, false, false, true, false, true,
            true, false, true,
        ];
        drv.reset();
        drv.load_tap_ir(TapInstruction::Bypass);
        drv.inject_pin_faults(PinFaults {
            tdo,
            ..PinFaults::none()
        });
        let out = drv.shift_dr(&PATTERN);
        drv.bist_load_pattern_count(3);
        drv.bist_start();
        drv.run_functional(3);
        (out, drv.read_status())
    }

    #[test]
    fn tdo_fault_mask_matches_the_per_tck_path_at_the_window_edges() {
        let (clean, _) = window_script(&mut TapDriver::new(MockBackend::new(16, 3)), None);
        // (fault, bypass-scan bits the fault flips)
        let cases: [(PinFault, Vec<usize>); 9] = [
            (PinFault::FlipEvery(1), (0..16).collect()),
            (PinFault::FlipEvery(20), vec![0]),
            (PinFault::FlipEvery(35), vec![15]),
            (PinFault::FlipEvery(19), vec![]),
            (PinFault::FlipEvery(36), vec![]),
            (PinFault::FlipEvery(1000), vec![]),
            (PinFault::FlipEvery(0), vec![]),
            (PinFault::StuckAt(true), vec![]),
            (PinFault::StuckAt(false), vec![]),
        ];
        for (fault, flipped) in cases {
            let mut whole = TapDriver::new(MockBackend::new(16, 3));
            let mut reference = traced(MockBackend::new(16, 3));
            let got = window_script(&mut whole, Some(fault));
            let want = window_script(&mut reference, Some(fault));
            assert_eq!(got, want, "{fault:?}: TDO words");
            assert_eq!(whole.tck(), reference.tck(), "{fault:?}: TCK bill");
            assert_eq!(whole.tap().state(), reference.tap().state());
            assert_eq!(whole.tap().instruction(), reference.tap().instruction());
            assert_eq!(
                whole.tap().wrapper().instruction(),
                reference.tap().wrapper().instruction()
            );
            let expected: Vec<bool> = match fault {
                PinFault::StuckAt(v) => vec![v; 16],
                PinFault::FlipEvery(_) => {
                    (0..16).map(|i| clean[i] ^ flipped.contains(&i)).collect()
                }
            };
            assert_eq!(got.0, expected, "{fault:?}: flipped bits");
        }
    }

    #[test]
    fn dropped_clocks_stall_the_protocol() {
        let mut clean = TapDriver::new(MockBackend::new(8, 1));
        let mut dirty = TapDriver::new(MockBackend::new(8, 1));
        dirty.inject_pin_faults(PinFaults {
            drop_tck_every: Some(2),
            ..PinFaults::none()
        });
        clean.reset();
        dirty.reset();
        clean.load_tap_ir(TapInstruction::Idcode);
        dirty.load_tap_ir(TapInstruction::Idcode);
        assert_eq!(clean.tap().instruction(), TapInstruction::Idcode);
        assert_ne!(
            dirty.tap().instruction(),
            TapInstruction::Idcode,
            "half the edges never arrived"
        );
    }
}
