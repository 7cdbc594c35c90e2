//! The case-study core: a reconfigurable serial LDPC decoder.
//!
//! The paper wraps a "Reconfigurable Serial Low-Density Parity-Checker
//! decoder" [Masera & Quaglio, 15] with its BIST/P1500 architecture. The
//! original RTL is proprietary, so this crate rebuilds the core from its
//! published description:
//!
//! * [`code`] — parity-check matrices (Gallager-style regular and random
//!   irregular constructions), the bipartite graph view (Fig. 6), and a
//!   systematic GF(2) encoder;
//! * [`channel`] — BSC and quantized-AWGN channels producing the LLRs the
//!   decoder consumes, plus BER bookkeeping;
//! * [`decoder`] — the behavioral serial min-sum decoder: one configurable
//!   `BIT_NODE`, one configurable `CHECK_NODE`, a `CONTROL_UNIT`, and two
//!   interleaving memories emulating the graph edges (up to 512 check
//!   nodes and 1,024 bit nodes, as in the paper), instrumented with
//!   statement counters for the paper's step-1 evaluation loop (Fig. 3);
//! * [`gatelevel`] — gate-level generators for the three modules with the
//!   exact Table 1 port budgets (BIT_NODE 54/55, CHECK_NODE 53/53,
//!   CONTROL_UNIT 45/44) and flip-flop counts in the ballpark of the
//!   paper's scan-cell counts (75 / 803 / 42).
//!
//! # Example: decode over a noisy channel
//!
//! ```
//! use soctest_ldpc::code::LdpcCode;
//! use soctest_ldpc::channel::Bsc;
//! use soctest_ldpc::decoder::{SerialDecoder, DecoderConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let code = LdpcCode::gallager(96, 3, 6, 7)?;
//! let mut dec = SerialDecoder::new(&code, DecoderConfig::default());
//! let channel = Bsc::new(0.02, 11);
//! let tx = vec![false; code.n()]; // all-zero codeword
//! let llrs = channel.transmit(&tx);
//! let out = dec.decode(&llrs, 20);
//! assert!(out.success);
//! assert_eq!(out.bits, tx);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod channel;
pub mod code;
pub mod decoder;
pub mod gatelevel;
