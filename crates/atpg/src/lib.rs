//! Automatic test pattern generation and scan infrastructure.
//!
//! This crate provides the two baselines the paper compares its BIST
//! approach against (Table 3):
//!
//! * **Full scan** — [`insert_scan`] replaces every flip-flop with a muxed
//!   scan cell and stitches the chains; [`ScanView`] exposes the resulting
//!   combinational view (flip-flops become pseudo-ports) on which the
//!   [`Podem`] engine generates deterministic stuck-at patterns;
//!   [`ScanSchedule`] accounts for the serial load/unload cost in clock
//!   cycles, which is what makes scan testing slow on the tester.
//! * **Sequential ATPG** — random sequences plus bounded time-frame
//!   expansion ([`unroll`]) with PODEM on the unrolled circuit, the
//!   classic (and classically expensive) approach for non-scan logic.
//!
//! The PODEM implementation uses a nine-valued good/faulty pair algebra
//! (a superset of the textbook five values) with level-guided backtrace and
//! a bounded backtrack budget.
//!
//! # Example: one deterministic pattern
//!
//! ```
//! use soctest_netlist::ModuleBuilder;
//! use soctest_fault::{FaultUniverse, FaultKind};
//! use soctest_atpg::{Podem, PodemConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mb = ModuleBuilder::new("and2");
//! let a = mb.input("a");
//! let b = mb.input("b");
//! let y = mb.and(a, b);
//! mb.output("y", y);
//! let nl = mb.finish()?;
//! let universe = FaultUniverse::stuck_at(&nl);
//! let mut podem = Podem::new(universe.view(), PodemConfig::default())?;
//! // Testing y stuck-at-0 requires a=b=1.
//! let fault = universe
//!     .faults()
//!     .iter()
//!     .copied()
//!     .find(|f| f.net == y && f.kind == FaultKind::Sa0)
//!     .expect("fault exists");
//! let cube = podem.generate(fault).expect("testable");
//! assert_eq!(cube.assignments, vec![Some(true), Some(true)]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod harness;
mod nine;
mod podem;
mod random;
mod scan;
mod unrolled;

pub use harness::{AtpgOutcome, AtpgRun, ScanAtpg, SequentialAtpg, SequentialAtpgConfig};
pub use nine::V9;
pub use podem::{Podem, PodemConfig, TestCube};
pub use random::{random_pattern_set, random_rows, xorshift64};
pub use scan::{insert_scan, ScanDesign, ScanSchedule, ScanView};
pub use unrolled::{unroll, UnrolledView};
