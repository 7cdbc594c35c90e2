//! Differential conformance harness for the BIST/P1500 stack.
//!
//! The repo contains several *independently implemented* pairs of engines
//! that must agree bit for bit: the compiled 64-lane simulator and the
//! compiled fault simulators vs a naive reference interpreter, behavioral
//! BIST blocks vs their `bist::structural` netlists, and the TAP/P1500
//! driver vs the structural wrapper. This crate fuzzes all of them with
//! seeded random netlists and a deliberately naive reference model, so
//! that the next silent divergence is found by a machine.
//!
//! Layout:
//! * [`generator`] — seeded random netlist/FSM generator;
//! * [`reference`] — the naive fixpoint interpreter ([`RefMachine`]);
//! * [`faultref`] — the reference fault simulator: one [`RefMachine`] per
//!   fault, the oracle for `soctest-fault`;
//! * [`campaign`] — the case-study leg: sampled faults of the paper's
//!   modules on the paper's stimulus, diffed against [`faultref`];
//! * [`pairs`] — one differential runner per redundant engine pair;
//! * [`selftest`] — mutation self-test that verifies the oracle itself;
//! * [`report`] — mismatch reports, netlist dump/replay, and the greedy
//!   minimizer;
//! * [`fleet`] — fleet-vs-standalone leg: sampled fleet dies replayed as
//!   from-scratch gate-level sessions, verdicts compared exactly;
//! * [`session`] — BIST rehearsals replayed on the reference interpreter,
//!   the oracle for the gate-level session backend.
//!
//! The `difftest` binary drives everything:
//!
//! ```text
//! cargo run --release -p soctest-conformance --bin difftest -- --seeds 100
//! cargo run --release -p soctest-conformance --bin difftest -- --self-test
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod faultref;
pub mod fleet;
pub mod generator;
pub mod pairs;
pub mod reference;
pub mod report;
pub mod selftest;
pub mod session;

pub use campaign::{case_study_leg, CaseStudyLeg, Routes, FAULT_MODES};
pub use faultref::{reference_fault_sim, RefFaultRun};
pub use fleet::{fleet_difftest, FleetDiffOutcome, FleetMismatch};
pub use generator::{random_netlist, GeneratorConfig};
pub use pairs::{run_all_pairs, PAIR_NAMES};
pub use reference::RefMachine;
pub use report::{dump_netlist, minimize, parse_netlist, render_report, Mismatch};
pub use selftest::{mutation_self_test, MutationOutcome};
pub use session::reference_rehearsal;
