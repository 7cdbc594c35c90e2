//! The BIST engine of the paper: ALFSR pattern generation, constraint
//! generators, MISR-based result collection, and the control unit — in both
//! *behavioral* form (fast models that drive the fault simulators) and
//! *structural* form (gate-level netlists for area, timing, and combined
//! core-plus-BIST evaluation).
//!
//! Structure mirrors §3.1 of the paper:
//!
//! * [`Alfsr`] — the autonomous LFSR producing pseudo-random patterns. One
//!   ALFSR is shared by all modules of the core.
//! * [`ConstraintGenerator`] / [`HoldCycler`] — custom circuitry driving
//!   *constrained* inputs (e.g. a 4-bit datapath selector that must hold a
//!   value for a stretch of cycles to exercise the selected path).
//! * [`PortWiring`] / [`PatternGenerator`] — the four architectural cases
//!   (a)–(d): ALFSR fits the port, ALFSR replicated over a wider port, and
//!   both variants combined with a constraint generator.
//! * [`Misr`] + [`fold_xor`] — the result collector: one MISR per module
//!   behind an XOR cascade, reachable through the output selector.
//! * [`ControlUnit`] — pattern counter, `test_enable`/`end_test`, result
//!   selection.
//! * [`BistEngine`] — the assembled engine; [`structural`] emits gate-level
//!   netlists for every block plus [`structural::insert_bist`], which builds
//!   the complete wrapped design of Fig. 2.
//!
//! # Example
//!
//! ```
//! use soctest_bist::{Alfsr, Misr};
//!
//! let mut alfsr = Alfsr::new(20).expect("table covers width 20");
//! let mut misr = Misr::new(16);
//! for _ in 0..4096 {
//!     let pattern = alfsr.step();
//!     misr.absorb(pattern & 0xFFFF);
//! }
//! // The signature is a deterministic function of the pattern stream.
//! let sig = misr.signature();
//! assert_ne!(sig, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod alfsr;
mod control;
mod engine;
mod error;
mod misr;
mod pgen;
pub mod structural;

pub use alfsr::{Alfsr, ALFSR_VARIANTS};
pub use control::{BistCommand, BistPhase, ControlUnit};
pub use engine::{BistEngine, BistEngineConfig, ModuleHookup};
pub use error::EngineError;
pub use misr::{fold_xor, Misr};
pub use pgen::{
    BistStimulus, BitSource, ConstraintGenerator, HoldCycler, PatternGenerator, PortWiring,
    WeightedCg,
};
