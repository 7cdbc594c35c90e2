//! The paper's case study end to end: the LDPC decoder core is tested
//! through its P1500 wrapper by an external ATE model driving the TAP —
//! load the pattern count over the WCDR, start, burst at speed, read the
//! three MISR signatures back through the WDR, and compare against golden.
//!
//! ```text
//! cargo run --release --example ldpc_bist
//! ```

use soctest::core::casestudy::CaseStudy;
use soctest::core::eval::{self, FaultModel};
use soctest::core::session::WrappedCore;
use soctest::fault::ParallelPolicy;
use soctest::p1500::TapDriver;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let case = CaseStudy::paper()?;
    let patterns = 1024u64;

    println!("modules under test:");
    for m in case.modules() {
        println!(
            "  {:<13} {:>3} in / {:>3} out, {:>4} FFs, {:>5} gates",
            m.name(),
            m.input_width(),
            m.output_width(),
            m.dff_count(),
            m.len()
        );
    }

    // Golden signatures from a fault-free rehearsal.
    let golden = case.golden_signatures(patterns)?;

    // The ATE session, paying full protocol cost on the TAP pins.
    let mut ate = TapDriver::new(WrappedCore::new(&case)?);
    ate.reset();
    ate.bist_load_pattern_count(patterns);
    ate.bist_start();
    ate.wait_for_done(256, 16)?;
    println!(
        "\nsession: {} TCK cycles on the tester, {} at-speed core cycles",
        ate.tck(),
        ate.functional_cycles()
    );
    for (m, &gold) in golden.iter().enumerate() {
        ate.bist_select_result(m as u8);
        let (_, sig) = ate.read_status();
        let verdict = if sig == gold { "PASS" } else { "FAIL" };
        println!("  MISR[{m}] = {sig:#06x} (golden {gold:#06x})  → {verdict}");
        assert_eq!(sig, gold);
    }

    // What did those patterns buy? Fault coverage per module (step 2 of
    // the paper's evaluation flow).
    println!("\nstuck-at fault coverage of the {patterns}-pattern session:");
    for (m, module) in case.modules().iter().enumerate() {
        let (_, result) = eval::step2(
            &case,
            m,
            FaultModel::StuckAt,
            patterns,
            ParallelPolicy::default(),
        )?;
        println!(
            "  {:<13} {:>6.1}%  ({} faults, last useful pattern {})",
            module.name(),
            result.coverage_percent(),
            result.fault_count(),
            result.last_useful_cycle().unwrap_or(0)
        );
    }
    Ok(())
}
