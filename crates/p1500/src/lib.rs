//! IEEE P1500 core-test wrapper and IEEE 1149.1 TAP controller models.
//!
//! The paper's test architecture (Fig. 1/5) reaches the BIST engine through
//! two standard layers:
//!
//! * a **P1500 wrapper** around the core, with the mandatory WIR (wrapper
//!   instruction register) and WBY (bypass), the boundary register WBR, and
//!   the two custom data registers the paper proposes: **WCDR** (wrapper
//!   control data register — commands to the BIST engine: reset, load
//!   pattern count, start, select result) and **WDR** (wrapper data
//!   register — status and captured signatures, read-only);
//! * an **1149.1 TAP controller** on the chip boundary whose instructions
//!   route DR scans either to the wrapper's WIR (`SelectWIR` high) or to
//!   the register the WIR currently selects.
//!
//! Both layers exist as cycle-accurate behavioral models here, and as
//! structural gate netlists in [`structural`] for the area/frequency rows
//! of Tables 2 and 4. The [`TapDriver`] plays the ATE: it counts every TCK
//! cycle, which is how test-time numbers are derived, and steps the TAP
//! through each one only when something observes it — a trace or metrics
//! handle, or a TMS, TDI or dropped-TCK pin fault. Otherwise each IR or DR
//! scan runs as one operation on the TAP and wrapper registers, billed
//! the same TCKs.
//!
//! # Example: a full TAP-driven BIST session against a mock backend
//!
//! ```
//! use soctest_p1500::{MockBackend, TapDriver, TapInstruction, WrapperInstruction};
//!
//! let mut drv = TapDriver::new(MockBackend::new(16, 10));
//! drv.reset();
//! drv.wrapper_instruction(WrapperInstruction::CommandReg);
//! drv.bist_load_pattern_count(10);
//! drv.bist_start();
//! drv.run_functional(32); // the at-speed burst
//! let (done, sig) = drv.read_status();
//! assert!(done);
//! assert_eq!(sig, drv.backend().expected_signature());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod driver;
mod error;
mod inject;
pub mod structural;
mod tap;
mod wrapper;

pub use driver::TapDriver;
pub use error::{ProtocolError, WaitStats};
pub use inject::{FaultyBackend, HungBackend, PinFault, PinFaults};
pub use tap::{TapController, TapInstruction, TapState};
pub use wrapper::{BistBackend, MockBackend, Wrapper, WrapperInstruction, WrapperPins};
