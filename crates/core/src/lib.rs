//! The paper's contribution, assembled: a BIST P1500-compliant core-test
//! kit.
//!
//! This crate glues the substrates together the way §3–§4 of the paper do:
//!
//! * [`casestudy`] — the Reconfigurable Serial LDPC decoder core as the
//!   device under test: the three gate-level modules, the inter-module
//!   interconnect, and the BIST sizing of §4 (20-bit ALFSR, one 4-bit
//!   constraint generator shared by `BIT_NODE` and `CHECK_NODE`, three
//!   16-bit MISRs behind XOR cascades, a 12-bit pattern counter);
//! * [`session`] — a live co-simulation of the BIST engine against the
//!   module netlists that plugs in behind the P1500 wrapper, so a test
//!   session can be driven end-to-end from the TAP pins;
//! * [`eval`] — the three-step evaluation flow of §3.2: statement coverage
//!   and toggle activity (Fig. 3), the one step-2 BIST coverage campaign
//!   whose curve Fig. 4 reads, and equivalent-fault-class analysis;
//! * [`experiments`] — one function per table/figure of the paper,
//!   returning structured rows that the `repro` binary renders;
//! * [`error`] — the [`error::SessionError`] taxonomy that the whole stack
//!   converts into, so every failure carries its root cause;
//! * [`robust`] — fault-tolerant sessions: TCK watchdogs, retry-with-reseed
//!   on signature mismatch (the paper's Fig. 4 feedback loop applied at
//!   test time), majority-vote status reads, and per-module quarantine;
//! * [`autopilot`] — the closed-loop coverage controller: reads each
//!   round's coverage-curve facts and *acts* (add patterns, reseed,
//!   reciprocal polynomial, synthesized weighted constraint generator)
//!   until every module converges or reaches a typed terminal verdict,
//!   recording a seed-deterministic decision trail;
//! * [`fleet`] — the population-scale campaign service: 10⁵–10⁶
//!   die-sessions share one compiled netlist and one precomputed
//!   golden/faulty signature cache, so each die pays only the TAP session
//!   protocol; the aggregate report carries yield, escapes, overkill, and
//!   test-time percentiles.
//!
//! # Example: an at-speed BIST session through the TAP
//!
//! ```
//! use soctest_core::casestudy::CaseStudy;
//! use soctest_core::session::WrappedCore;
//! use soctest_p1500::TapDriver;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let case = CaseStudy::small()?; // a reduced configuration for examples
//! let backend = WrappedCore::new(&case)?;
//! let mut ate = TapDriver::new(backend);
//! ate.reset();
//! ate.bist_load_pattern_count(64);
//! ate.bist_start();
//! ate.wait_for_done(64, 8)?;
//! ate.bist_select_result(0);
//! let (_, signature) = ate.read_status();
//! // The signature is reproducible: the golden value comes from a
//! // fault-free rehearsal of the same session.
//! assert_eq!(signature, case.golden_signatures(64)?[0]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod autopilot;
pub mod casestudy;
pub mod cockpit;
pub mod error;
pub mod eval;
pub mod experiments;
pub mod fleet;
pub mod health;
pub mod robust;
pub mod session;

pub use error::SessionError;
