//! Session oracle: BIST rehearsals replayed on the naive reference
//! interpreter.
//!
//! [`reference_rehearsal`] drives a [`BistEngine`] in lock-step with one
//! [`RefMachine`] per module, the same loop as
//! [`WrappedCore::rehearse`](soctest_core::session::WrappedCore::rehearse)
//! but sharing none of its simulator code. Stuck-at defects are planted
//! with [`RefMachine::force`] instead of `Netlist::force_constant`, so the
//! planted netlist and its compiled kernel are checked too.

use soctest_bist::{BistEngine, EngineError};
use soctest_core::casestudy::CaseStudy;
use soctest_netlist::NetId;

use crate::reference::RefMachine;

/// A stuck-at defect for [`reference_rehearsal`]: `(module, net, value)`.
pub type Plant = (usize, NetId, bool);

/// Runs a complete BIST session (reset → load → start → run to
/// completion) of `engine` against the reference interpreter of every
/// module of `case`, with `plant` forced, and returns every module's
/// signature.
///
/// # Errors
///
/// [`EngineError::Hung`] if `end_test` does not rise within
/// `npatterns + 4` cycles — the watchdog of `WrappedCore::rehearse`.
///
/// # Panics
///
/// Panics if `plant` names a module out of range, or if the engine's
/// stimulus rows do not match the modules' input widths.
pub fn reference_rehearsal(
    case: &CaseStudy,
    plant: Option<Plant>,
    mut engine: BistEngine,
    npatterns: u64,
) -> Result<Vec<u64>, EngineError> {
    let mut machines: Vec<RefMachine<'_>> =
        case.modules().iter().map(|m| RefMachine::new(m)).collect();
    if let Some((m, net, value)) = plant {
        machines[m].force(net, value);
    }
    engine.begin(npatterns);
    let mut spent = 0u64;
    while !engine.control().end_test() {
        if spent >= npatterns + 4 {
            return Err(EngineError::Hung { cycles: spent });
        }
        // Outside its test phase the engine gates the functional clock.
        if engine.control().test_enable() {
            let responses: Vec<Vec<bool>> = machines
                .iter_mut()
                .enumerate()
                .map(|(m, rm)| {
                    rm.set_inputs(&engine.inputs(m));
                    rm.settle();
                    let outs = rm.outputs();
                    rm.clock();
                    outs
                })
                .collect();
            engine.try_clock(&responses)?;
        }
        spent += 1;
    }
    Ok((0..machines.len()).map(|m| engine.signature(m)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_core::fleet::{Fleet, FleetConfig};
    use soctest_core::robust::RobustSession;
    use soctest_core::session::WrappedCore;

    const PATTERNS: u64 = 16;

    /// Every rung's `(variant, seed)`, in ladder order.
    fn rungs() -> Vec<(u8, u64)> {
        let session = RobustSession::default();
        session
            .strategies()
            .iter()
            .map(|s| s.engine_knobs())
            .collect()
    }

    fn kernel_rehearsal(dut: &CaseStudy, (variant, seed): (u8, u64)) -> Vec<u64> {
        let engine = dut.engine_variant(variant, seed).unwrap();
        let mut core = WrappedCore::with_engine(dut, engine).unwrap();
        core.rehearse(PATTERNS).unwrap()
    }

    fn oracle(case: &CaseStudy, plant: Option<Plant>, (variant, seed): (u8, u64)) -> Vec<u64> {
        let engine = case.engine_variant(variant, seed).unwrap();
        reference_rehearsal(case, plant, engine, PATTERNS).unwrap()
    }

    #[test]
    fn clean_rehearsals_match_the_reference_on_every_rung() {
        let case = CaseStudy::paper().unwrap();
        assert_eq!(rungs().len(), 3);
        for knobs in rungs() {
            assert_eq!(
                kernel_rehearsal(&case, knobs),
                oracle(&case, None, knobs),
                "rung {knobs:?}"
            );
        }
    }

    #[test]
    fn planted_fleet_sites_match_the_reference_on_every_rung() {
        let case = CaseStudy::paper().unwrap();
        let mut cfg = FleetConfig::new(1, 42);
        cfg.patterns = PATTERNS;
        cfg.workers = 1;
        cfg.sites_per_module = 32;
        cfg.detectable_only = true;
        let fleet = Fleet::new(&case, cfg).unwrap();
        for m in 0..case.modules().len() {
            let site = fleet
                .sites()
                .iter()
                .find(|s| s.module == m)
                .unwrap_or_else(|| panic!("no detectable site in module {m}"));
            // The kernel runs the planted netlist; the reference runs the
            // clean one with the site forced.
            let mut dut = case.clone();
            dut.module_mut(m).force_constant(site.net, site.value);
            let plant = Some((m, site.net, site.value));
            for knobs in rungs() {
                let kernel = kernel_rehearsal(&dut, knobs);
                assert_eq!(
                    kernel,
                    oracle(&case, plant, knobs),
                    "{site:?} rung {knobs:?}"
                );
                assert_ne!(
                    kernel,
                    kernel_rehearsal(&case, knobs),
                    "{site:?} is detectable"
                );
            }
        }
    }
}
