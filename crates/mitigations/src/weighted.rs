//! Countermeasure 2 (§8.1): weighted contribution of different row
//! activation types.
//!
//! Each CoMRA or SiMRA operation is accounted as an equivalent number of
//! double-sided RowHammer activations, so existing counter-based
//! mitigations keep a single threshold. This module derives the weights
//! from the characterized HC_first anchors and verifies they are safe
//! (never undercount) for every tested family.

use pud_dram::profiles::{self, ModuleProfile};

/// Activation-type weights relative to one RowHammer activation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivationWeights {
    /// The baseline RowHammer threshold the weights are relative to.
    pub rowhammer_threshold: f64,
    /// Equivalent hammers per CoMRA operation.
    pub comra: f64,
    /// Equivalent hammers per SiMRA operation.
    pub simra: f64,
}

impl ActivationWeights {
    /// Derives weights from one family's anchors: weight(op) =
    /// `HC_first(RowHammer) / HC_first(op)` (§8.2's formula, e.g.
    /// 4K/20 = 200 for SiMRA and 4K/400 = 10 for CoMRA).
    pub fn for_profile(profile: &ModuleProfile) -> ActivationWeights {
        let rh = profile.rowhammer.min;
        ActivationWeights {
            rowhammer_threshold: rh,
            comra: (rh / profile.comra.min).ceil(),
            simra: profile.simra.map_or(1.0, |s| (rh / s.min).ceil()),
        }
    }

    /// Derives fleet-wide safe weights: the maximum per-family weight, with
    /// the fleet-minimum RowHammer threshold.
    pub fn fleet_safe() -> ActivationWeights {
        let mut rh = f64::MAX;
        let mut comra: f64 = 1.0;
        let mut simra: f64 = 1.0;
        for p in &profiles::TESTED_MODULES {
            rh = rh.min(p.rowhammer.min);
            let w = ActivationWeights::for_profile(p);
            comra = comra.max(w.comra);
            simra = simra.max(w.simra);
        }
        ActivationWeights {
            rowhammer_threshold: rh,
            comra,
            simra,
        }
    }

    /// Whether a sequence of `(rowhammer, comra, simra)` operation counts is
    /// guaranteed flip-free when the weighted sum stays below the threshold.
    ///
    /// Safety condition: weighted accounting must reach the threshold no
    /// later than the true worst-case operation mix reaches its HC_first.
    pub fn is_safe_for(&self, profile: &ModuleProfile) -> bool {
        // Per operation type, the counted weight per op must be at least
        // threshold / HC_first(op).
        let needed_comra = profile.rowhammer.min / profile.comra.min;
        let needed_simra = profile.simra.map_or(0.0, |s| profile.rowhammer.min / s.min);
        self.rowhammer_threshold <= profile.rowhammer.min
            && self.comra + 1e-9
                >= needed_comra * (self.rowhammer_threshold / profile.rowhammer.min)
            && (profile.simra.is_none()
                || self.simra + 1e-9
                    >= needed_simra * (self.rowhammer_threshold / profile.rowhammer.min))
    }

    /// Counter increment for a hammer sequence.
    pub fn weigh(&self, rowhammer_acts: u64, comra_ops: u64, simra_ops: u64) -> f64 {
        rowhammer_acts as f64 + self.comra * comra_ops as f64 + self.simra * simra_ops as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pud_dram::profiles::TESTED_MODULES;

    #[test]
    fn per_family_weights_match_the_paper_formula() {
        // §8.2's example numbers: ≈4K/≈400/≈20 give weights 10 and 200; our
        // Table 2 anchors give the same order of magnitude.
        let a8 = &TESTED_MODULES[1]; // SK Hynix 8Gb A-die
        let w = ActivationWeights::for_profile(a8);
        assert!(w.simra >= 200.0, "simra weight {}", w.simra);
        assert!(w.comra >= 10.0, "comra weight {}", w.comra);
    }

    #[test]
    fn fleet_safe_weights_cover_every_family() {
        let w = ActivationWeights::fleet_safe();
        for p in &TESTED_MODULES {
            assert!(w.is_safe_for(p), "{} not covered", p.key());
        }
    }

    #[test]
    fn weighing_accumulates_linearly() {
        let w = ActivationWeights {
            rowhammer_threshold: 4_000.0,
            comra: 10.0,
            simra: 200.0,
        };
        assert_eq!(w.weigh(100, 10, 2), 100.0 + 100.0 + 400.0);
        // 20 SiMRA ops hit a 4000 threshold — equivalent protection to the
        // naive RDT=20 configuration.
        assert!(w.weigh(0, 0, 20) >= w.rowhammer_threshold);
    }

    #[test]
    fn under_weighted_config_is_flagged_unsafe() {
        let w = ActivationWeights {
            rowhammer_threshold: 25_000.0,
            comra: 2.0,
            simra: 5.0, // far below 25_000/26
        };
        let a8 = &TESTED_MODULES[1];
        assert!(!w.is_safe_for(a8));
    }
}
