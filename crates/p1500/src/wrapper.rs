//! The P1500 wrapper behavioral model.

use soctest_bist::BistCommand;

/// What sits behind the wrapper: something that accepts BIST commands,
/// advances at functional speed, and exposes status and signatures.
///
/// `soctest-core`'s test session implements this for a real wrapped core;
/// [`MockBackend`] provides a deterministic stand-in for protocol tests.
pub trait BistBackend {
    /// Deliver a decoded command from the WCDR.
    fn command(&mut self, cmd: BistCommand);

    /// Advance one functional (system-speed) clock cycle.
    fn functional_clock(&mut self);

    /// Whether the programmed test has completed.
    fn end_test(&self) -> bool;

    /// The signature currently exposed by the BIST output selector.
    fn selected_signature(&self) -> u64;

    /// Width of the signature registers in bits, at most 63: the WDR holds
    /// the done bit and the signature in one 64-bit word.
    fn signature_width(&self) -> usize;
}

/// A deterministic backend for protocol-level tests: "runs" for a given
/// number of cycles and then presents a signature derived from the pattern
/// count.
#[derive(Debug, Clone)]
pub struct MockBackend {
    sig_width: usize,
    needed: u64,
    run: u64,
    target: u64,
    started: bool,
    select: u8,
}

impl MockBackend {
    /// A mock that finishes after `needed` functional cycles.
    pub fn new(sig_width: usize, needed: u64) -> Self {
        MockBackend {
            sig_width,
            needed,
            run: 0,
            target: 0,
            started: false,
            select: 0,
        }
    }

    /// The signature the mock will present once done.
    pub fn expected_signature(&self) -> u64 {
        (self.target.wrapping_mul(0x9E37_79B9) ^ (self.select as u64))
            & ((1u64 << self.sig_width) - 1)
    }
}

impl BistBackend for MockBackend {
    fn command(&mut self, cmd: BistCommand) {
        match cmd {
            BistCommand::Reset => {
                self.run = 0;
                self.started = false;
            }
            BistCommand::LoadPatternCount(n) => self.target = n,
            BistCommand::Start => self.started = true,
            BistCommand::SelectResult(s) => self.select = s,
        }
    }

    fn functional_clock(&mut self) {
        if self.started && self.run < self.needed {
            self.run += 1;
        }
    }

    fn end_test(&self) -> bool {
        self.started && self.run >= self.needed
    }

    fn selected_signature(&self) -> u64 {
        if self.end_test() {
            self.expected_signature()
        } else {
            0
        }
    }

    fn signature_width(&self) -> usize {
        self.sig_width
    }
}

/// Wrapper instructions loaded into the WIR (3-bit encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WrapperInstruction {
    /// Route WSI→WBY→WSO (1-bit bypass).
    #[default]
    Bypass,
    /// Select the boundary register (external test).
    Extest,
    /// Select the boundary register (internal test).
    Intest,
    /// Select the WCDR command register.
    CommandReg,
    /// Select the WDR status/result register.
    StatusReg,
}

impl WrapperInstruction {
    /// The instruction's name, for trace events and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            WrapperInstruction::Bypass => "Bypass",
            WrapperInstruction::Extest => "Extest",
            WrapperInstruction::Intest => "Intest",
            WrapperInstruction::CommandReg => "CommandReg",
            WrapperInstruction::StatusReg => "StatusReg",
        }
    }

    /// 3-bit encoding used on the scan path.
    pub fn encode(self) -> u8 {
        match self {
            WrapperInstruction::Bypass => 0b000,
            WrapperInstruction::Extest => 0b001,
            WrapperInstruction::Intest => 0b010,
            WrapperInstruction::CommandReg => 0b011,
            WrapperInstruction::StatusReg => 0b100,
        }
    }

    /// Decodes a 3-bit value (unknown codes fall back to bypass, as the
    /// standard recommends for safety).
    pub fn decode(bits: u8) -> Self {
        match bits & 0b111 {
            0b001 => WrapperInstruction::Extest,
            0b010 => WrapperInstruction::Intest,
            0b011 => WrapperInstruction::CommandReg,
            0b100 => WrapperInstruction::StatusReg,
            _ => WrapperInstruction::Bypass,
        }
    }

    /// WIR length in bits.
    pub const LENGTH: usize = 3;
}

/// Per-WRCK control pins of the wrapper (the subset of the P1500 wrapper
/// interface port this model needs; WRCK itself is the call).
#[derive(Debug, Clone, Copy, Default)]
pub struct WrapperPins {
    /// Serial data in.
    pub wsi: bool,
    /// Route scan operations to the WIR instead of the selected WDR.
    pub select_wir: bool,
    /// Shift the selected register.
    pub shift_wr: bool,
    /// Capture into the selected register.
    pub capture_wr: bool,
    /// Update from the selected register's shift stage.
    pub update_wr: bool,
    /// Active-low wrapper reset.
    pub wrstn: bool,
}

/// WCDR opcode field width.
const WCDR_OP_BITS: usize = 3;
/// WCDR operand field width (covers the 12-bit pattern counter).
const WCDR_ARG_BITS: usize = 16;
/// Total WCDR length.
pub(crate) const WCDR_BITS: usize = WCDR_OP_BITS + WCDR_ARG_BITS;

/// Shifts the low `n` bits of `word` (bit 0 first) through a shift
/// register of length `len` holding `reg`, as `n` single-bit shifts in at
/// the MSB end and out of the LSB end would: returns the new register and
/// the `n` bits shifted out (bit 0 first). Both `n` and `len` are at most
/// 64.
pub(crate) fn shift_register(reg: u64, len: usize, word: u64, n: usize) -> (u64, u64) {
    let stream = u128::from(reg) | u128::from(word) << len;
    let low = |bits: usize| (1u128 << bits) - 1;
    (((stream >> n) & low(len)) as u64, (stream & low(n)) as u64)
}

/// The P1500 wrapper around a [`BistBackend`].
///
/// Scan-path convention: bits shift in at the MSB end and out of the LSB
/// end, so a register of length `n` needs exactly `n` shift cycles and the
/// first bit shifted out is bit 0.
#[derive(Debug, Clone)]
pub struct Wrapper<B> {
    backend: B,
    wir_shift: u8,
    wir: WrapperInstruction,
    wby: bool,
    wcdr_shift: u32,
    wdr_shift: u64,
    wdr_bits: usize,
}

impl<B: BistBackend> Wrapper<B> {
    /// Wraps a backend.
    pub fn new(backend: B) -> Self {
        let wdr_bits = 1 + backend.signature_width();
        Wrapper {
            backend,
            wir_shift: 0,
            wir: WrapperInstruction::Bypass,
            wby: false,
            wcdr_shift: 0,
            wdr_shift: 0,
            wdr_bits,
        }
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the backend (e.g. to co-simulate the core).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// The currently loaded instruction.
    pub fn instruction(&self) -> WrapperInstruction {
        self.wir
    }

    /// Length of the currently selected data register (for driver timing).
    pub fn selected_dr_length(&self) -> usize {
        match self.wir {
            WrapperInstruction::Bypass => 1,
            WrapperInstruction::Extest | WrapperInstruction::Intest => 1,
            WrapperInstruction::CommandReg => WCDR_BITS,
            WrapperInstruction::StatusReg => self.wdr_bits,
        }
    }

    /// WDR length (status bit + signature).
    pub fn wdr_length(&self) -> usize {
        self.wdr_bits
    }

    /// Encodes a command as the WCDR scan word: its low
    /// [`Wrapper::selected_dr_length`] bits with the WCDR selected, bit 0
    /// shifted first.
    pub fn encode_command(cmd: BistCommand) -> u64 {
        let (op, arg) = match cmd {
            BistCommand::Reset => (0u32, 0u64),
            BistCommand::LoadPatternCount(n) => (1, n),
            BistCommand::Start => (2, 0),
            BistCommand::SelectResult(s) => (3, s as u64),
        };
        (op << WCDR_ARG_BITS) as u64 | (arg & ((1 << WCDR_ARG_BITS) - 1))
    }

    fn decode_command(word: u32) -> BistCommand {
        let op = word >> WCDR_ARG_BITS;
        let arg = (word & ((1 << WCDR_ARG_BITS) - 1)) as u64;
        match op & 0b111 {
            0 => BistCommand::Reset,
            1 => BistCommand::LoadPatternCount(arg),
            2 => BistCommand::Start,
            _ => BistCommand::SelectResult(arg as u8),
        }
    }

    /// One WRCK cycle. Returns WSO.
    pub fn clock(&mut self, pins: WrapperPins) -> bool {
        if !pins.wrstn {
            self.wir = WrapperInstruction::Bypass;
            self.wir_shift = 0;
            self.wby = false;
            self.wcdr_shift = 0;
            self.wdr_shift = 0;
            return false;
        }
        if pins.select_wir {
            let wso = self.wir_shift & 1 == 1;
            if pins.shift_wr {
                self.wir_shift =
                    (self.wir_shift >> 1) | ((pins.wsi as u8) << (WrapperInstruction::LENGTH - 1));
            }
            if pins.update_wr {
                self.wir = WrapperInstruction::decode(self.wir_shift);
            }
            return wso;
        }
        match self.wir {
            WrapperInstruction::Bypass
            | WrapperInstruction::Extest
            | WrapperInstruction::Intest => {
                let wso = self.wby;
                if pins.shift_wr {
                    self.wby = pins.wsi;
                }
                wso
            }
            WrapperInstruction::CommandReg => {
                let wso = self.wcdr_shift & 1 == 1;
                if pins.shift_wr {
                    self.wcdr_shift =
                        (self.wcdr_shift >> 1) | ((pins.wsi as u32) << (WCDR_BITS - 1));
                }
                if pins.update_wr {
                    let cmd = Self::decode_command(self.wcdr_shift);
                    self.backend.command(cmd);
                }
                wso
            }
            WrapperInstruction::StatusReg => {
                let wso = self.wdr_shift & 1 == 1;
                if pins.capture_wr {
                    let sig = self.backend.selected_signature();
                    let done = self.backend.end_test() as u64;
                    self.wdr_shift = done | (sig << 1);
                }
                if pins.shift_wr {
                    self.wdr_shift =
                        (self.wdr_shift >> 1) | ((pins.wsi as u64) << (self.wdr_bits - 1));
                }
                wso
            }
        }
    }

    /// One whole scan of the WIR (`select_wir`) or of the selected data
    /// register: the capture action, `n <= 64` shifts of the low bits of
    /// `word` as one register shift, and the update action — what the
    /// capture-WRCK, `n` shift-WRCKs and update-WRCK of [`Wrapper::clock`]
    /// do. Returns the `n` bits shifted out on WSO (bit 0 first).
    pub(crate) fn scan(&mut self, select_wir: bool, word: u64, n: usize) -> u64 {
        if select_wir {
            let (reg, out) =
                shift_register(self.wir_shift.into(), WrapperInstruction::LENGTH, word, n);
            self.wir_shift = reg as u8;
            self.wir = WrapperInstruction::decode(self.wir_shift);
            return out;
        }
        match self.wir {
            WrapperInstruction::Bypass
            | WrapperInstruction::Extest
            | WrapperInstruction::Intest => {
                let (reg, out) = shift_register(self.wby.into(), 1, word, n);
                self.wby = reg == 1;
                out
            }
            WrapperInstruction::CommandReg => {
                let (reg, out) = shift_register(self.wcdr_shift.into(), WCDR_BITS, word, n);
                self.wcdr_shift = reg as u32;
                self.backend.command(Self::decode_command(self.wcdr_shift));
                out
            }
            WrapperInstruction::StatusReg => {
                let sig = self.backend.selected_signature();
                let done = self.backend.end_test() as u64;
                let (reg, out) = shift_register(done | (sig << 1), self.wdr_bits, word, n);
                self.wdr_shift = reg;
                out
            }
        }
    }

    /// Advances the core-side logic by `cycles` functional clocks (the
    /// at-speed test burst between TAP operations).
    pub fn run_functional(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.backend.functional_clock();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shift_bits<B: BistBackend>(
        w: &mut Wrapper<B>,
        bits: &[bool],
        select_wir: bool,
    ) -> Vec<bool> {
        bits.iter()
            .map(|&b| {
                w.clock(WrapperPins {
                    wsi: b,
                    select_wir,
                    shift_wr: true,
                    wrstn: true,
                    ..Default::default()
                })
            })
            .collect()
    }

    fn command_bits(cmd: BistCommand) -> Vec<bool> {
        let word = Wrapper::<MockBackend>::encode_command(cmd);
        (0..WCDR_BITS).map(|i| (word >> i) & 1 == 1).collect()
    }

    fn load_instruction<B: BistBackend>(w: &mut Wrapper<B>, instr: WrapperInstruction) {
        let code = instr.encode();
        let bits: Vec<bool> = (0..WrapperInstruction::LENGTH)
            .map(|i| (code >> i) & 1 == 1)
            .collect();
        shift_bits(w, &bits, true);
        w.clock(WrapperPins {
            select_wir: true,
            update_wr: true,
            wrstn: true,
            ..Default::default()
        });
    }

    #[test]
    fn instruction_encoding_round_trips() {
        for i in [
            WrapperInstruction::Bypass,
            WrapperInstruction::Extest,
            WrapperInstruction::Intest,
            WrapperInstruction::CommandReg,
            WrapperInstruction::StatusReg,
        ] {
            assert_eq!(WrapperInstruction::decode(i.encode()), i);
        }
        assert_eq!(
            WrapperInstruction::decode(0b111),
            WrapperInstruction::Bypass,
            "unknown codes fall back to bypass"
        );
    }

    #[test]
    fn bypass_is_a_single_bit() {
        let mut w = Wrapper::new(MockBackend::new(8, 4));
        load_instruction(&mut w, WrapperInstruction::Bypass);
        let out = shift_bits(&mut w, &[true, false, true], false);
        // One flop of delay: input appears on WSO one shift later.
        assert_eq!(out, vec![false, true, false]);
    }

    #[test]
    fn command_register_drives_backend() {
        let mut w = Wrapper::new(MockBackend::new(8, 4));
        load_instruction(&mut w, WrapperInstruction::CommandReg);
        let cmd = command_bits(BistCommand::LoadPatternCount(37));
        shift_bits(&mut w, &cmd, false);
        w.clock(WrapperPins {
            update_wr: true,
            wrstn: true,
            ..Default::default()
        });
        let cmd = command_bits(BistCommand::Start);
        shift_bits(&mut w, &cmd, false);
        w.clock(WrapperPins {
            update_wr: true,
            wrstn: true,
            ..Default::default()
        });
        w.run_functional(10);
        assert!(w.backend().end_test());
    }

    #[test]
    fn status_register_captures_done_and_signature() {
        let mut w = Wrapper::new(MockBackend::new(8, 2));
        load_instruction(&mut w, WrapperInstruction::CommandReg);
        for cmd in [BistCommand::LoadPatternCount(5), BistCommand::Start] {
            let bits = command_bits(cmd);
            shift_bits(&mut w, &bits, false);
            w.clock(WrapperPins {
                update_wr: true,
                wrstn: true,
                ..Default::default()
            });
        }
        w.run_functional(2);
        load_instruction(&mut w, WrapperInstruction::StatusReg);
        w.clock(WrapperPins {
            capture_wr: true,
            wrstn: true,
            ..Default::default()
        });
        let n = w.wdr_length();
        let out = shift_bits(&mut w, &vec![false; n], false);
        assert!(out[0], "done bit first");
        let sig = out[1..]
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i));
        assert_eq!(sig, w.backend().expected_signature());
    }

    #[test]
    fn reset_returns_to_bypass() {
        let mut w = Wrapper::new(MockBackend::new(8, 4));
        load_instruction(&mut w, WrapperInstruction::CommandReg);
        w.clock(WrapperPins {
            wrstn: false,
            ..Default::default()
        });
        assert_eq!(w.instruction(), WrapperInstruction::Bypass);
    }
}
