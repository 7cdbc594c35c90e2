//! Fault models, fault simulation, and diagnosis for `soctest`.
//!
//! This crate stands in for the commercial fault-injection tooling the paper
//! uses (Synopsys TetraMax) plus the authors' in-house diagnostic-matrix
//! tool. It provides:
//!
//! * **Fault models** — single stuck-at ([`FaultKind::Sa0`]/[`Sa1`]) and
//!   gross-delay transition faults ([`SlowToRise`]/[`SlowToFall`]), placed on
//!   every stem and every fanout branch ([`FaultUniverse`]; its simulation
//!   kernel folds the branch buffers away and injects a branch fault at
//!   its sink pin);
//! * **Structural equivalence collapsing** with the classic gate rules;
//! * A **sequential fault simulator** ([`SeqFaultSim`]) over the compiled
//!   netlist kernel ([`soctest_netlist::CompiledNetlist`]), in windows of
//!   at most 64 cycles against a once-per-window good-machine trace (one
//!   word per net, one bit per cycle). A *word pass* settles each fault
//!   whose flip-flops match the good machine 64 cycles per word; a 64-lane
//!   parallel-fault *lane engine* takes the rest, one fault per lane —
//!   with fault dropping between windows. This is what evaluates the BIST
//!   runs of Table 3;
//! * A **PPSFP combinational fault simulator** ([`CombFaultSim`]) for the
//!   full-scan baseline: 64 patterns per block, each fault propagated
//!   alone by the event-driven deviation sweep the word pass runs too;
//! * **Diagnosis**: per-fault syndromes, the diagnostic matrix, and
//!   equivalent-fault-class statistics (max/median class size — Table 5).
//!
//! Both simulators shard their per-fault hot loop across a scoped worker
//! pool ([`ParallelPolicy`], std-only) with a deterministic merge: a run
//! with `threads: N` is bit-identical to `threads: 1`. Scheduling counters
//! are reported per campaign via [`FaultSimStats`]. Their results are
//! pinned against a naive one-machine-per-fault reference interpreter in
//! `soctest-conformance`.
//!
//! [`Sa1`]: FaultKind::Sa1
//! [`SlowToRise`]: FaultKind::SlowToRise
//! [`SlowToFall`]: FaultKind::SlowToFall
//!
//! # Example: coverage of an exhaustive test on a tiny block
//!
//! ```
//! use soctest_netlist::ModuleBuilder;
//! use soctest_fault::{FaultUniverse, SeqFaultSim, SeqFaultSimConfig, VectorStimulus};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mb = ModuleBuilder::new("xor_reg");
//! let a = mb.input_bus("a", 2);
//! let x = mb.xor(a[0], a[1]);
//! let q = mb.register(&[x]);
//! mb.output_bus("q", &q);
//! let nl = mb.finish()?;
//!
//! let universe = FaultUniverse::stuck_at(&nl);
//! let patterns: Vec<u64> = vec![0b00, 0b01, 0b10, 0b11, 0b00];
//! let mut stim = VectorStimulus::new(patterns);
//! let sim = SeqFaultSim::new(&universe, SeqFaultSimConfig::default());
//! let result = sim.run(&mut stim)?;
//! assert_eq!(result.coverage_percent(), 100.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod combkernel;
mod combsim;
mod diagnosis;
mod model;
mod par;
mod report;
mod seqkernel;
mod seqsim;
mod stimulus;
mod sweep;
mod universe;

pub use combsim::{CombCampaign, CombFaultSim, PatternSet};
pub use diagnosis::{DiagnosticMatrix, EquivalentClassStats, Syndrome};
pub use model::{Fault, FaultKind};
pub use par::ParallelPolicy;
pub use report::{FaultSimResult, FaultSimStats};
pub use seqsim::{ObserveMode, SeqFaultSim, SeqFaultSimConfig};
pub use stimulus::{SeqStimulus, VectorStimulus};
pub use universe::FaultUniverse;
