//! Output fingerprints pinned at full size. A run whose fingerprint
//! differs from its pin counts a failed check: the change altered what
//! the program computes, not just how fast. Re-pin (see README.md) only
//! when a change is meant to alter outputs, and say so in its description.

use soctest_core::fleet::{DefectProfile, DieVerdict};

use crate::run::Workload;

/// `bist-campaign` detections on the paper's stimulus, for every seed.
pub const CAMPAIGN_PAPER: u64 = 0xf3cf_1cb9_7695_da88;

/// TCK bill of a clean die, which passes on the first rung, at 64
/// patterns and the default session budget: the same at every seed.
pub const CLEAN_TCK: u64 = 592;

/// TCK bill of a hung die, up to its done-watchdog, likewise.
pub const HUNG_TCK: u64 = 1892;

/// Checks every clean and hung die's `(profile, verdict, tck)` against
/// the seed-independent bills, so simulated test length is exact at every
/// seed, not only at the pinned ones.
pub fn bills(
    dies: impl IntoIterator<Item = (DefectProfile, DieVerdict, u64)>,
) -> Result<(), String> {
    for (profile, verdict, tck) in dies {
        let want = match profile {
            DefectProfile::Clean => (DieVerdict::Passed, CLEAN_TCK),
            DefectProfile::Hung => (DieVerdict::Hung, HUNG_TCK),
            _ => continue,
        };
        if (verdict, tck) != want {
            return Err(format!(
                "{profile:?} die: {verdict:?}, {tck} TCK; pinned {want:?}"
            ));
        }
    }
    Ok(())
}

/// `(workload, seed, fingerprint)` for the default and the held-out seed.
const PINS: &[(Workload, u64, u64)] = &[
    (Workload::FleetScreen, 42, 0xe26e_abf7_2ce0_5f06),
    (Workload::FleetScreen, 7, 0x0721_e629_4db5_e1a2),
    (Workload::FleetDefective, 42, 0xd1d6_ce97_3e86_88e1),
    (Workload::FleetDefective, 7, 0x74e8_bbfa_1295_e328),
    (Workload::BistCampaign, 42, 0x2bf9_e9ee_7605_49d3),
    (Workload::BistCampaign, 7, 0xadcd_3b84_66f7_ef17),
    (Workload::GateSessions, 42, 0x474c_cf2f_be8c_a760),
    (Workload::GateSessions, 7, 0xf5a3_ebb2_0a74_cb45),
];

/// The pinned fingerprint of `workload` at `seed`, if there is one.
pub fn pinned(workload: Workload, seed: u64) -> Option<u64> {
    PINS.iter()
        .find(|&&(w, s, _)| w == workload && s == seed)
        .map(|&(_, _, fp)| fp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bills_check_only_clean_and_hung_dies() {
        let clean = (DefectProfile::Clean, DieVerdict::Passed, CLEAN_TCK);
        let hung = (DefectProfile::Hung, DieVerdict::Hung, HUNG_TCK);
        let transient = (
            DefectProfile::Transient { period: 3 },
            DieVerdict::Passed,
            1,
        );
        assert!(bills([clean, hung, transient]).is_ok());
        let clean_over = (DefectProfile::Clean, DieVerdict::Passed, CLEAN_TCK + 1);
        assert!(bills([clean, clean_over]).is_err());
        assert!(bills([(DefectProfile::Hung, DieVerdict::Protocol, HUNG_TCK)]).is_err());
    }
}
