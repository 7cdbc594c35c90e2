//! Technology library, area reporting, and static timing analysis.
//!
//! Stands in for the commercial synthesis reporting the paper uses
//! (Synopsys Design Analyzer on an industrial 0.13 µm library): every
//! primitive gate gets an area in µm² and a pin-to-pin delay in ps, area is
//! additive (Table 2), and the maximum frequency is the reciprocal of the
//! worst register-to-register/boundary path (Table 4). Absolute numbers are
//! a calibrated stand-in; *relative* overheads — which is what the paper's
//! tables argue about — carry over.
//!
//! # Example
//!
//! ```
//! use soctest_netlist::ModuleBuilder;
//! use soctest_tech::Library;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mb = ModuleBuilder::new("m");
//! let a = mb.input_bus("a", 8);
//! let q = mb.register(&a);
//! let s = mb.add_mod(&q, &a);
//! mb.output_bus("s", &s);
//! let nl = mb.finish()?;
//!
//! let lib = Library::cmos_130nm();
//! let area = lib.area(&nl);
//! let timing = lib.timing(&nl)?;
//! assert!(area.total_um2 > 0.0);
//! assert!(timing.fmax_mhz > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod area;
mod library;
mod sta;

pub use area::AreaReport;
pub use library::{CellSpec, Library};
pub use sta::{PathEnd, TimingReport};
