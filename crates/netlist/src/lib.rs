//! Gate-level netlist substrate for the `soctest` workspace.
//!
//! This crate provides the circuit representation every other crate builds
//! on: a flat, single-clock, single-driver gate graph ([`Netlist`]) together
//! with an "RTL-lite" construction layer ([`ModuleBuilder`]) offering
//! word-level operators (adders, comparators, muxes, registers, FSM helpers)
//! so that realistic datapath/control modules — such as the LDPC decoder
//! modules of the case study — can be *synthesized from code* instead of
//! parsed from proprietary RTL.
//!
//! # Model
//!
//! * Every gate drives exactly one net; [`NetId`] doubles as the gate index.
//! * Gates are primitive and of fixed arity (2-input AND/OR/..., 1-input
//!   NOT/BUF, 3-pin MUX2, 1-pin DFF). Wide reductions are built as trees by
//!   the builder, which keeps technology mapping, fault enumeration, and
//!   timing analysis trivial and uniform.
//! * Sequential elements are D flip-flops on an implicit common clock; their
//!   outputs act as combinational sources and their `d` pins as sinks, so
//!   [`Netlist::levelize`] yields a pure combinational order.
//!
//! # Example
//!
//! ```
//! use soctest_netlist::ModuleBuilder;
//!
//! let mut mb = ModuleBuilder::new("adder");
//! let a = mb.input_bus("a", 8);
//! let b = mb.input_bus("b", 8);
//! let sum = mb.add(&a, &b).sum;
//! mb.output_bus("sum", &sum);
//! let netlist = mb.finish().expect("acyclic");
//! assert_eq!(netlist.input_ports()[0].width(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod builder;
mod error;
mod gate;
mod graph;
mod kernel;
mod stats;

pub use builder::{AddResult, FsmSpec, ModuleBuilder, Word};
pub use error::NetlistError;
pub use gate::{Gate, GateKind, NetId, PinIndex};
pub use graph::{Netlist, Port, PortDir};
pub use kernel::{compile, compile_folding, CompiledNetlist};
pub use stats::NetlistStats;
