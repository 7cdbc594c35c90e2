//! Mutation self-test: verifies the oracle itself.
//!
//! A differential harness that never fires is indistinguishable from one
//! that works. Each self-test run draws a random combinational netlist,
//! flips the polarity of one primary-output driver (And↔Nand, Xor↔Xnor,
//! Buf↔Not, …) via [`soctest_netlist::Netlist::set_gate_kind`], and runs
//! the sim-vs-reference and fault-vs-reference differentials with the
//! mutant on the simulator side. The mutation inverts that output on
//! *every* input vector, so a healthy harness must flag it on the first
//! compared pattern — 100% detection is a hard requirement, not a
//! statistical target.

use soctest_netlist::{GateKind, NetId, Netlist};
use soctest_prng::SplitMix64;

use crate::generator::{inverted_kind, random_netlist, GeneratorConfig};
use crate::pairs::{comb_divergence, fault_comb_divergence};

/// The result of one mutation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutationOutcome {
    /// Seed that drew the netlist and picked the mutation site.
    pub seed: u64,
    /// Mutated net (a primary-output driver).
    pub site: NetId,
    /// Original gate kind at the site.
    pub original: GateKind,
    /// Mutated gate kind (the polarity twin).
    pub mutated: GateKind,
    /// Whether the differential harness flagged the mutant.
    pub detected: bool,
}

/// Builds the mutant netlist for `seed` and returns it with the original.
pub fn mutant_pair(seed: u64, max_gates: usize) -> (Netlist, Netlist, NetId) {
    let mut rng = SplitMix64::new(seed ^ 0x5E1F_7E57_0000_0001);
    let cfg = GeneratorConfig::sample(&mut rng, max_gates).comb();
    let original = random_netlist(&mut rng, &cfg);
    let outs = original.primary_outputs();
    let site = outs[rng.gen_index(outs.len())];
    let mut mutant = original.clone();
    mutant.set_gate_kind(site, inverted_kind(original.gate(site).kind));
    (original, mutant, site)
}

/// Runs one mutation self-test: inject, then ask the harness.
pub fn mutation_self_test(seed: u64, max_gates: usize) -> MutationOutcome {
    let (original, mutant, site) = mutant_pair(seed, max_gates);
    let detected = comb_divergence(&original, &mutant, seed).is_some();
    MutationOutcome {
        seed,
        site,
        original: original.gate(site).kind,
        mutated: mutant.gate(site).kind,
        detected,
    }
}

/// Mutation self-test for the `fault` pair: the reference simulates the
/// original netlist, the compiled fault simulator the mutant, and the
/// differential must fire. The inverted output driver flips a primary
/// output on every pattern, so the kernel's good machine disagrees with
/// the reference immediately — unless the pair harness itself is broken.
pub fn fault_mutation_self_test(seed: u64, max_gates: usize) -> MutationOutcome {
    let (original, mutant, site) = mutant_pair(seed, max_gates);
    let detected = fault_comb_divergence(&original, &mutant, seed).is_some();
    MutationOutcome {
        seed,
        site,
        original: original.gate(site).kind,
        mutated: mutant.gate(site).kind,
        detected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_injected_mutation_is_detected() {
        for seed in 0..25u64 {
            let outcome = mutation_self_test(seed, 80);
            assert!(
                outcome.detected,
                "seed {seed}: {:?}→{:?} at {:?} slipped through the harness",
                outcome.original, outcome.mutated, outcome.site
            );
        }
    }

    #[test]
    fn unmutated_netlists_are_clean() {
        for seed in 0..10u64 {
            let (original, _, _) = mutant_pair(seed, 80);
            assert_eq!(comb_divergence(&original, &original, seed), None);
        }
    }

    #[test]
    fn every_injected_mutation_trips_the_fault_pair() {
        for seed in 0..15u64 {
            let outcome = fault_mutation_self_test(seed, 80);
            assert!(
                outcome.detected,
                "seed {seed}: {:?}→{:?} at {:?} slipped through the fault pair",
                outcome.original, outcome.mutated, outcome.site
            );
        }
    }

    #[test]
    fn unmutated_netlists_are_clean_under_the_fault_pair() {
        for seed in 0..6u64 {
            let (original, _, _) = mutant_pair(seed, 80);
            assert_eq!(fault_comb_divergence(&original, &original, seed), None);
        }
    }
}
