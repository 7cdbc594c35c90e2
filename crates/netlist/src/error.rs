//! Error type for netlist construction, validation and simulation.

use std::error::Error;
use std::fmt;

use crate::NetId;

/// Errors raised while building, validating or simulating a
/// [`crate::Netlist`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A gate references a net id that does not exist.
    DanglingNet {
        /// The offending gate (by driven net id).
        gate: NetId,
        /// The missing net referenced by one of its pins.
        missing: NetId,
    },
    /// The combinational part of the netlist contains a cycle.
    CombinationalCycle {
        /// One net known to sit on the cycle.
        on_cycle: NetId,
    },
    /// A port name was used twice within the same direction.
    DuplicatePort {
        /// The clashing name.
        name: String,
    },
    /// An operation required equal bus widths but received different ones.
    WidthMismatch {
        /// Width of the left operand.
        left: usize,
        /// Width of the right operand.
        right: usize,
        /// The operation that was attempted.
        op: &'static str,
    },
    /// A port was requested with width zero.
    EmptyBus {
        /// The port or signal name.
        name: String,
    },
    /// A generator has no structure for the requested width (e.g. no
    /// primitive polynomial for an ALFSR of that many stages).
    UnsupportedWidth {
        /// The block being generated.
        block: &'static str,
        /// The requested width.
        width: usize,
    },
    /// A simulation worker thread panicked, so the run has no result.
    WorkerPanicked,
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DanglingNet { gate, missing } => {
                write!(f, "gate {gate} references missing net {missing}")
            }
            NetlistError::CombinationalCycle { on_cycle } => {
                write!(f, "combinational cycle through net {on_cycle}")
            }
            NetlistError::DuplicatePort { name } => {
                write!(f, "duplicate port name `{name}`")
            }
            NetlistError::WidthMismatch { left, right, op } => {
                write!(f, "width mismatch in {op}: {left} vs {right} bits")
            }
            NetlistError::EmptyBus { name } => {
                write!(f, "bus `{name}` has zero width")
            }
            NetlistError::UnsupportedWidth { block, width } => {
                write!(f, "unsupported {width}-bit {block}")
            }
            NetlistError::WorkerPanicked => write!(f, "a simulation worker thread panicked"),
        }
    }
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = NetlistError::WidthMismatch {
            left: 4,
            right: 8,
            op: "add",
        };
        let msg = e.to_string();
        assert!(msg.starts_with("width mismatch"));
        assert!(!msg.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetlistError>();
    }
}
