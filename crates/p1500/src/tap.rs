//! The IEEE 1149.1 TAP controller (16-state FSM) routing to the P1500
//! wrapper.

use crate::wrapper::shift_register;
use crate::{BistBackend, Wrapper, WrapperPins};

/// The sixteen TAP controller states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum TapState {
    TestLogicReset,
    RunTestIdle,
    SelectDrScan,
    CaptureDr,
    ShiftDr,
    Exit1Dr,
    PauseDr,
    Exit2Dr,
    UpdateDr,
    SelectIrScan,
    CaptureIr,
    ShiftIr,
    Exit1Ir,
    PauseIr,
    Exit2Ir,
    UpdateIr,
}

impl TapState {
    /// The state's name, for trace events and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            TapState::TestLogicReset => "TestLogicReset",
            TapState::RunTestIdle => "RunTestIdle",
            TapState::SelectDrScan => "SelectDrScan",
            TapState::CaptureDr => "CaptureDr",
            TapState::ShiftDr => "ShiftDr",
            TapState::Exit1Dr => "Exit1Dr",
            TapState::PauseDr => "PauseDr",
            TapState::Exit2Dr => "Exit2Dr",
            TapState::UpdateDr => "UpdateDr",
            TapState::SelectIrScan => "SelectIrScan",
            TapState::CaptureIr => "CaptureIr",
            TapState::ShiftIr => "ShiftIr",
            TapState::Exit1Ir => "Exit1Ir",
            TapState::PauseIr => "PauseIr",
            TapState::Exit2Ir => "Exit2Ir",
            TapState::UpdateIr => "UpdateIr",
        }
    }

    /// The 1149.1 state transition function.
    pub fn next(self, tms: bool) -> TapState {
        use TapState::*;
        match (self, tms) {
            (TestLogicReset, false) => RunTestIdle,
            (TestLogicReset, true) => TestLogicReset,
            (RunTestIdle, false) => RunTestIdle,
            (RunTestIdle, true) => SelectDrScan,
            (SelectDrScan, false) => CaptureDr,
            (SelectDrScan, true) => SelectIrScan,
            (CaptureDr, false) => ShiftDr,
            (CaptureDr, true) => Exit1Dr,
            (ShiftDr, false) => ShiftDr,
            (ShiftDr, true) => Exit1Dr,
            (Exit1Dr, false) => PauseDr,
            (Exit1Dr, true) => UpdateDr,
            (PauseDr, false) => PauseDr,
            (PauseDr, true) => Exit2Dr,
            (Exit2Dr, false) => ShiftDr,
            (Exit2Dr, true) => UpdateDr,
            (UpdateDr, false) => RunTestIdle,
            (UpdateDr, true) => SelectDrScan,
            (SelectIrScan, false) => CaptureIr,
            (SelectIrScan, true) => TestLogicReset,
            (CaptureIr, false) => ShiftIr,
            (CaptureIr, true) => Exit1Ir,
            (ShiftIr, false) => ShiftIr,
            (ShiftIr, true) => Exit1Ir,
            (Exit1Ir, false) => PauseIr,
            (Exit1Ir, true) => UpdateIr,
            (PauseIr, false) => PauseIr,
            (PauseIr, true) => Exit2Ir,
            (Exit2Ir, false) => ShiftIr,
            (Exit2Ir, true) => UpdateIr,
            (UpdateIr, false) => RunTestIdle,
            (UpdateIr, true) => SelectDrScan,
        }
    }
}

/// TAP instructions (4-bit IR).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TapInstruction {
    /// Mandatory 1-bit bypass (IR all-ones per the standard).
    #[default]
    Bypass,
    /// 32-bit identification register.
    Idcode,
    /// DR scans reach the wrapper with `SelectWIR` asserted.
    WrapperInstr,
    /// DR scans reach the register selected by the wrapper's WIR.
    WrapperData,
}

impl TapInstruction {
    /// IR length in bits.
    pub const LENGTH: usize = 4;

    /// The instruction's name, for trace events and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            TapInstruction::Bypass => "Bypass",
            TapInstruction::Idcode => "Idcode",
            TapInstruction::WrapperInstr => "WrapperInstr",
            TapInstruction::WrapperData => "WrapperData",
        }
    }

    /// 4-bit encoding.
    pub fn encode(self) -> u8 {
        match self {
            TapInstruction::Bypass => 0b1111,
            TapInstruction::Idcode => 0b0001,
            TapInstruction::WrapperInstr => 0b0010,
            TapInstruction::WrapperData => 0b0011,
        }
    }

    /// Decode; unknown codes select bypass.
    pub fn decode(bits: u8) -> Self {
        match bits & 0b1111 {
            0b0001 => TapInstruction::Idcode,
            0b0010 => TapInstruction::WrapperInstr,
            0b0011 => TapInstruction::WrapperData,
            _ => TapInstruction::Bypass,
        }
    }
}

/// The IDCODE value presented by this model.
pub(crate) const IDCODE: u32 = 0x5050_1501;

/// TCKs of an IR scan from Run-Test/Idle back to it: one in each of
/// Run-Test/Idle, Select-DR, Select-IR, Capture-IR, Exit1-IR and
/// Update-IR, plus the shifts.
pub(crate) const IR_SCAN_TCKS: u64 = TapInstruction::LENGTH as u64 + 6;

/// TCKs of a DR scan beyond its shifts: one in each of Run-Test/Idle,
/// Select-DR, Capture-DR, Exit1-DR and Update-DR.
pub(crate) const DR_SCAN_OVERHEAD_TCKS: u64 = 5;

/// A TAP controller connected to a P1500 wrapper.
#[derive(Debug, Clone)]
pub struct TapController<B> {
    state: TapState,
    ir_shift: u8,
    ir: TapInstruction,
    bypass: bool,
    idcode_shift: u32,
    wrapper: Wrapper<B>,
    tck: u64,
}

impl<B: BistBackend> TapController<B> {
    /// Creates a controller in Test-Logic-Reset with the wrapper attached.
    pub fn new(backend: B) -> Self {
        TapController {
            state: TapState::TestLogicReset,
            ir_shift: 0,
            ir: TapInstruction::Bypass,
            bypass: false,
            idcode_shift: IDCODE,
            wrapper: Wrapper::new(backend),
            tck: 0,
        }
    }

    /// Current FSM state.
    pub fn state(&self) -> TapState {
        self.state
    }

    /// Current instruction.
    pub fn instruction(&self) -> TapInstruction {
        self.ir
    }

    /// TCK cycles applied so far (the ATE-side test-time metric).
    pub fn tck(&self) -> u64 {
        self.tck
    }

    /// The attached wrapper.
    pub fn wrapper(&self) -> &Wrapper<B> {
        &self.wrapper
    }

    /// Mutable access to the wrapper (e.g. to run functional bursts).
    pub fn wrapper_mut(&mut self) -> &mut Wrapper<B> {
        &mut self.wrapper
    }

    fn wrapper_pins(&self, shift: bool, capture: bool, update: bool, tdi: bool) -> WrapperPins {
        WrapperPins {
            wsi: tdi,
            select_wir: self.ir == TapInstruction::WrapperInstr,
            shift_wr: shift,
            capture_wr: capture,
            update_wr: update,
            wrstn: true,
        }
    }

    /// One TCK cycle: performs the current state's action, then moves by
    /// TMS. Returns TDO.
    // The hint makes the body available to every codegen unit that
    // instantiates `TapDriver`, so `TapDriver::tick` can inline it on
    // each TCK whichever unit it lands in; without it, inlining followed
    // unrelated edits to the instantiating crate.
    #[inline]
    pub fn tick(&mut self, tms: bool, tdi: bool) -> bool {
        self.tck += 1;
        let mut tdo = false;
        match self.state {
            TapState::TestLogicReset => {
                self.ir = TapInstruction::Bypass;
                // Reset the wrapper too.
                self.wrapper.clock(WrapperPins {
                    wrstn: false,
                    ..Default::default()
                });
                self.idcode_shift = IDCODE;
            }
            TapState::CaptureIr => {
                // Standard: capture `...01` into the IR shift stage.
                self.ir_shift = 0b0101;
            }
            TapState::ShiftIr => {
                tdo = self.ir_shift & 1 == 1;
                self.ir_shift =
                    (self.ir_shift >> 1) | ((tdi as u8) << (TapInstruction::LENGTH - 1));
            }
            TapState::UpdateIr => {
                self.ir = TapInstruction::decode(self.ir_shift);
            }
            TapState::CaptureDr => match self.ir {
                TapInstruction::Bypass => self.bypass = false,
                TapInstruction::Idcode => self.idcode_shift = IDCODE,
                _ => {
                    self.wrapper
                        .clock(self.wrapper_pins(false, true, false, tdi));
                }
            },
            TapState::ShiftDr => match self.ir {
                TapInstruction::Bypass => {
                    tdo = self.bypass;
                    self.bypass = tdi;
                }
                TapInstruction::Idcode => {
                    tdo = self.idcode_shift & 1 == 1;
                    self.idcode_shift = (self.idcode_shift >> 1) | ((tdi as u32) << 31);
                }
                _ => {
                    tdo = self
                        .wrapper
                        .clock(self.wrapper_pins(true, false, false, tdi));
                }
            },
            TapState::UpdateDr
                if !matches!(self.ir, TapInstruction::Bypass | TapInstruction::Idcode) =>
            {
                self.wrapper
                    .clock(self.wrapper_pins(false, false, true, tdi));
            }
            _ => {}
        }
        self.state = self.state.next(tms);
        tdo
    }

    /// One whole IR scan of `code` from Run-Test/Idle back to it, as the
    /// [`IR_SCAN_TCKS`] ticks of a clean pin sequence would run it: capture,
    /// the shifts, and the update into the instruction register.
    pub(crate) fn scan_ir(&mut self, code: u8) {
        debug_assert_eq!(self.state, TapState::RunTestIdle);
        self.tck += IR_SCAN_TCKS;
        self.ir_shift = code & 0b1111;
        self.ir = TapInstruction::decode(self.ir_shift);
    }

    /// One whole DR scan of the low `n <= 64` bits of `word` from
    /// Run-Test/Idle back to it, as the `n + 5` ticks of a clean pin
    /// sequence would run it: the Capture-DR action once, the `n` shifts
    /// as one shift of the register the instruction selects, and the
    /// Update-DR action once. Returns the `n` bits shifted out on TDO
    /// (bit 0 first).
    pub(crate) fn scan_dr(&mut self, word: u64, n: usize) -> u64 {
        debug_assert!(self.state == TapState::RunTestIdle && n <= 64);
        self.tck += n as u64 + DR_SCAN_OVERHEAD_TCKS;
        match self.ir {
            TapInstruction::Bypass => {
                let (reg, out) = shift_register(0, 1, word, n);
                self.bypass = reg == 1;
                out
            }
            TapInstruction::Idcode => {
                let (reg, out) = shift_register(IDCODE.into(), 32, word, n);
                self.idcode_shift = reg as u32;
                out
            }
            ir => self
                .wrapper
                .scan(ir == TapInstruction::WrapperInstr, word, n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MockBackend;

    /// All sixteen 1149.1 states in one place for exhaustive sweeps.
    const ALL_STATES: [TapState; 16] = {
        use TapState::*;
        [
            TestLogicReset,
            RunTestIdle,
            SelectDrScan,
            CaptureDr,
            ShiftDr,
            Exit1Dr,
            PauseDr,
            Exit2Dr,
            UpdateDr,
            SelectIrScan,
            CaptureIr,
            ShiftIr,
            Exit1Ir,
            PauseIr,
            Exit2Ir,
            UpdateIr,
        ]
    };

    #[test]
    fn transition_table_matches_ieee_1149_1_exhaustively() {
        use TapState::*;
        // (state, next on TMS=0, next on TMS=1) straight from the
        // standard's figure 6-1 — every state, both TMS values.
        let table: [(TapState, TapState, TapState); 16] = [
            (TestLogicReset, RunTestIdle, TestLogicReset),
            (RunTestIdle, RunTestIdle, SelectDrScan),
            (SelectDrScan, CaptureDr, SelectIrScan),
            (CaptureDr, ShiftDr, Exit1Dr),
            (ShiftDr, ShiftDr, Exit1Dr),
            (Exit1Dr, PauseDr, UpdateDr),
            (PauseDr, PauseDr, Exit2Dr),
            (Exit2Dr, ShiftDr, UpdateDr),
            (UpdateDr, RunTestIdle, SelectDrScan),
            (SelectIrScan, CaptureIr, TestLogicReset),
            (CaptureIr, ShiftIr, Exit1Ir),
            (ShiftIr, ShiftIr, Exit1Ir),
            (Exit1Ir, PauseIr, UpdateIr),
            (PauseIr, PauseIr, Exit2Ir),
            (Exit2Ir, ShiftIr, UpdateIr),
            (UpdateIr, RunTestIdle, SelectDrScan),
        ];
        assert_eq!(table.len(), ALL_STATES.len());
        for (i, &(state, on0, on1)) in table.iter().enumerate() {
            assert_eq!(state, ALL_STATES[i], "table row order");
            assert_eq!(state.next(false), on0, "{state:?} on TMS=0");
            assert_eq!(state.next(true), on1, "{state:?} on TMS=1");
        }
    }

    #[test]
    fn five_ones_reach_test_logic_reset_from_every_state() {
        use TapState::*;
        for start in ALL_STATES {
            let mut s = start;
            let mut needed = 0;
            for _ in 0..5 {
                if s == TestLogicReset {
                    break;
                }
                s = s.next(true);
                needed += 1;
            }
            assert_eq!(s, TestLogicReset, "from {start:?}");
            assert!(needed <= 5, "from {start:?}: {needed} TCKs");
        }
    }

    #[test]
    fn instruction_encoding_round_trips() {
        for i in [
            TapInstruction::Bypass,
            TapInstruction::Idcode,
            TapInstruction::WrapperInstr,
            TapInstruction::WrapperData,
        ] {
            assert_eq!(TapInstruction::decode(i.encode()), i);
        }
    }

    #[test]
    fn idcode_shifts_out_after_reset() {
        let mut tap = TapController::new(MockBackend::new(8, 1));
        // Reset, go to RTI, load IDCODE instruction.
        for _ in 0..5 {
            tap.tick(true, false);
        }
        tap.tick(false, false); // -> RTI
                                // IR scan: 1,1,0,0 then shift 4 bits (last with tms=1).
        tap.tick(true, false);
        tap.tick(true, false);
        tap.tick(false, false); // CaptureIr entered
        tap.tick(false, false); // capture happens, -> ShiftIr
        let code = TapInstruction::Idcode.encode();
        for i in 0..4 {
            let last = i == 3;
            tap.tick(last, (code >> i) & 1 == 1);
        }
        tap.tick(true, false); // Exit1Ir -> UpdateIr
        tap.tick(false, false); // update happens -> RTI
        assert_eq!(tap.instruction(), TapInstruction::Idcode);
        // DR scan of 32 bits.
        tap.tick(true, false);
        tap.tick(false, false); // -> CaptureDr
        tap.tick(false, false); // capture -> ShiftDr
        let mut id = 0u32;
        for i in 0..32 {
            let last = i == 31;
            let bit = tap.tick(last, false);
            id |= (bit as u32) << i;
        }
        assert_eq!(id, IDCODE);
        assert!(tap.tck() > 40, "every operation costs TCK cycles");
    }
}
