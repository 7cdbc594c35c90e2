//! Bit-parallel logic simulation for `soctest` netlists.
//!
//! [`KernelSim`] evaluates 64 independent "lanes" per pass over a
//! compiled netlist kernel: each net is represented by a `u64` whose bit
//! *i* is the net's value in lane *i*. Lanes carry 64 patterns at once for
//! combinational checks, or 64 machines at once for sequential ones (the
//! fault simulators in `soctest-fault` sweep the same compiled kernel).
//!
//! [`ToggleMonitor`] implements the toggle-activity metric of the paper's
//! step-1 evaluation loop (Fig. 3): the percentage of nets that were driven
//! both to 0 and to 1 by the applied patterns. [`VcdProbe`] records
//! simulator values as a VCD waveform.
//!
//! # Example
//!
//! ```
//! use soctest_netlist::ModuleBuilder;
//! use soctest_sim::KernelSim;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mb = ModuleBuilder::new("cnt");
//! let en = mb.input("en");
//! let clr = mb.input("clr");
//! let q = mb.counter(4, en, clr);
//! mb.output_bus("q", &q);
//! let nl = mb.finish()?;
//!
//! let mut sim = KernelSim::new(&nl)?;
//! sim.drive_port(&nl, "en", 1);
//! sim.drive_port(&nl, "clr", 0);
//! for _ in 0..5 {
//!     sim.step();
//! }
//! sim.eval_comb();
//! assert_eq!(sim.read_port_lane(&nl, "q", 0), Some(5));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod kernel;
mod toggle;
mod vcd;

pub use kernel::KernelSim;
pub use toggle::{ToggleMonitor, ToggleReport};
pub use vcd::VcdProbe;

/// Broadcasts a boolean to a full 64-lane word.
#[inline]
pub fn broadcast(bit: bool) -> u64 {
    if bit {
        u64::MAX
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_fills_every_lane() {
        assert_eq!(broadcast(true), u64::MAX);
        assert_eq!(broadcast(false), 0);
    }
}
