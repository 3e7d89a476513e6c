//! Per-row vulnerability sampling, calibrated to Table 2.
//!
//! Every row of every simulated chip gets a deterministic vulnerability
//! profile derived from a fleet seed. Thresholds are sampled from shifted
//! log-normal distributions whose parameters are computed in closed form
//! (or numerically, for ratio targets) from the module family's Table 2
//! anchors, so fleet-level minima and averages track the paper.

use pud_dram::{BankId, ChipGeometry, Manufacturer, ModuleProfile, RowAddr, SubarrayId};

use crate::calib;
use crate::curve::solve_mu_for_inverse_mean;
use crate::event::FlipClass;
use crate::rng;

/// The sampled vulnerability of one victim row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowVuln {
    pub(crate) key: u64,
    /// Weakest-cell threshold (effective hammers) for the RowHammer class
    /// at reference conditions.
    pub t_rh: f64,
    /// Weakest-cell threshold for the SiMRA class (infinite on chips that
    /// do not perform SiMRA).
    pub t_simra: f64,
    /// Per-row CoMRA susceptibility factor (double-sided CoMRA weight).
    pub comra_factor: f64,
    /// Weak-cell tail exponent: the i-th weakest cell flips at
    /// `t · i^(1/beta)`.
    pub beta: f64,
    /// Whether this is the module family's designated most-vulnerable row.
    pub is_hero: bool,
}

impl RowVuln {
    /// Threshold of the `i`-th weakest cell (1-based) of `class`.
    pub fn cell_threshold(&self, class: FlipClass, i: u32) -> f64 {
        let t = self.base_threshold(class);
        t * f64::from(i.max(1)).powf(1.0 / self.beta)
    }

    /// Base (weakest-cell) threshold of a class.
    pub fn base_threshold(&self, class: FlipClass) -> f64 {
        match class {
            FlipClass::RowHammer => self.t_rh,
            FlipClass::Simra => self.t_simra,
        }
    }

    /// Per-(row, N) SiMRA threshold multiplier `g_N ≥ 1`.
    ///
    /// Non-monotonic in N (Observation 12): each N draws an independent
    /// jitter proportional (in log space) to the row's susceptibility
    /// margin, and the row's "best" N gets exactly 1.0. A small calibrated
    /// fraction of (row, N) pairs ends up *above* the RowHammer threshold
    /// (Fig. 13 left plot).
    pub fn simra_n_factor(&self, n_rows: u8) -> f64 {
        let best = self.best_simra_n();
        if n_rows == best || !self.t_simra.is_finite() {
            return 1.0;
        }
        let s = (self.t_rh / self.t_simra).max(1.0);
        if !self.is_hero
            && rng::unit(&[self.key, 0x60, u64::from(n_rows)]) < calib::simra_above_fraction(n_rows)
        {
            // This (row, N) bucks the trend: slightly above RowHammer.
            return s * (1.0 + 0.1 * rng::unit(&[self.key, 0x61, u64::from(n_rows)]));
        }
        let z = rng::std_normal(&[self.key, 0x51, u64::from(n_rows)]);
        s.powf((calib::SIMRA_N_EXPONENT * z.abs()).min(0.95))
    }

    /// The N at which this row is most SiMRA-vulnerable.
    pub fn best_simra_n(&self) -> u8 {
        const NS: [u8; 4] = [2, 4, 8, 16];
        NS[(rng::mix_all(&[self.key, 0x52]) % 4) as usize]
    }

    /// Per-row multiplicative jitter on the data-pattern factor, keyed by
    /// the aggressor-data fingerprint (so the worst-case pattern varies
    /// across rows — Takeaway 2).
    pub fn dp_jitter(&self, fingerprint: u64) -> f64 {
        let z = rng::std_normal(&[self.key, 0x53, fingerprint]);
        (calib::DP_JITTER_SIGMA * z).exp()
    }

    /// Per-row temperature-response jitter at temperature `t_celsius`
    /// (normalized to 1.0 at the 80 °C reference).
    pub fn temp_jitter(&self, t_celsius: f64) -> f64 {
        let z = rng::std_normal(&[self.key, 0x54]);
        (calib::TEMP_JITTER_SIGMA * z * (t_celsius - 80.0) / 30.0).exp()
    }

    /// Copy-direction factor: weight multiplier when the CoMRA copy
    /// direction is reversed (Observation 9).
    pub fn direction_factor(&self, reversed: bool) -> f64 {
        if !reversed {
            return 1.0;
        }
        let u = rng::unit(&[self.key, 0x55]);
        if u < calib::DIR_HEAVY_FRACTION {
            // A small fraction of rows has a large asymmetry, up to 20.1×,
            // in either direction.
            let mag = 1.0 + rng::unit(&[self.key, 0x56]) * (calib::DIR_HEAVY_MAX - 1.0);
            if rng::mix_all(&[self.key, 0x57]) & 1 == 0 {
                mag
            } else {
                1.0 / mag
            }
        } else {
            let z = rng::std_normal(&[self.key, 0x58]);
            (calib::DIR_JITTER_SIGMA * z).exp()
        }
    }

    /// Small per-row jitter letting ~1 % of rows buck the CoMRA trend
    /// (Fig. 4: 99 % of rows see lower HC_first under CoMRA).
    pub fn comra_trend_jitter(&self) -> f64 {
        let z = rng::std_normal(&[self.key, 0x59]);
        (calib::COMRA_TREND_JITTER * z).exp()
    }

    /// The stable per-row key (for deriving further deterministic values).
    pub fn key(&self) -> u64 {
        self.key
    }
}

/// Calibrated vulnerability sampler for one chip of one module family.
#[derive(Debug, Clone)]
pub struct VulnModel {
    profile: ModuleProfile,
    geometry: ChipGeometry,
    chip_index: u32,
    seed: u64,
    mu_rh: f64,
    simra_cal: Option<SimraCal>,
    mu_comra: f64,
    hero: (BankId, RowAddr),
}

/// Calibration of the SiMRA susceptibility mixture for one family.
#[derive(Debug, Clone, Copy)]
struct SimraCal {
    p_deep: f64,
    mu_bulk: f64,
    min: f64,
}

impl VulnModel {
    /// Builds the sampler for `chip_index` of `profile` under `seed`.
    ///
    /// The family's susceptibility calibration is solved once per process
    /// (see [`solve_mu_for_inverse_mean`]); later chips of the family reuse
    /// it.
    pub fn new(
        profile: &ModuleProfile,
        geometry: ChipGeometry,
        chip_index: u32,
        seed: u64,
    ) -> VulnModel {
        VulnModel::with_solver(
            profile,
            geometry,
            chip_index,
            seed,
            solve_mu_for_inverse_mean,
        )
    }

    /// [`VulnModel::new`] with the calibration solve passed in, so tests
    /// can calibrate with the reference solver and see its inputs.
    fn with_solver(
        profile: &ModuleProfile,
        geometry: ChipGeometry,
        chip_index: u32,
        seed: u64,
        mut solve_mu: impl FnMut(f64, f64) -> f64,
    ) -> VulnModel {
        // Shifted log-normal t = min · (1 + LN(mu, sigma)):
        //   E[t] = min · (1 + exp(mu + sigma²/2))  ⇒  closed-form mu.
        let mu_for = |min: f64, avg: f64, sigma: f64| {
            assert!(avg > min, "anchor avg must exceed min");
            (avg / min - 1.0).ln() - sigma * sigma / 2.0
        };
        let mu_rh = mu_for(
            profile.rowhammer.min,
            profile.rowhammer.avg,
            calib::SIGMA_T_RH,
        );
        // SiMRA susceptibility s (t_simra = t_rh / s): a deep-tail
        // population plus a bulk population calibrated so the family
        // average tracks Table 2 (see calib::SIMRA_* constants).
        let simra_cal = profile.simra.map(|anchor| {
            let ratio = (anchor.avg / profile.rowhammer.avg).clamp(1e-4, 0.985);
            let (plo, phi) = calib::SIMRA_DEEP_PROB_RANGE;
            // Half the improvement shortfall comes from the deep tail, the
            // rest from a tightly clustered bulk population — so families
            // with tiny average improvements (C/D-die, ratio ~0.94-0.99)
            // still keep nearly every row below its RowHammer threshold.
            let p_deep = (0.5 * (1.0 - ratio)).clamp(plo, phi);
            let deep_contrib = p_deep / (calib::SIMRA_DEEP_SCALE * 2.0);
            let bulk_target = ((ratio - deep_contrib) / (1.0 - p_deep)).clamp(0.02, 0.99);
            SimraCal {
                p_deep,
                mu_bulk: solve_mu(bulk_target, calib::SIGMA_SIMRA_BULK),
                min: anchor.min,
            }
        });
        // CoMRA susceptibility r = 1 + LN(mu_c, sigma_c), calibrated so
        // E[1/r] equals the family's average HC_first ratio.
        let ratio = (profile.comra.avg / profile.rowhammer.avg).clamp(1e-6, 0.999_999);
        let mu_comra = solve_mu(ratio, calib::SIGMA_COMRA_FACTOR);
        // The family's designated most-vulnerable ("hero") row pins the
        // fleet minimum to the Table 2 anchors: middle of subarray 1, bank
        // 0, chip 0. The odd physical offset keeps the row *sandwichable*
        // by SiMRA groups (whose members land on even offsets).
        let sa = SubarrayId(1.min(geometry.subarrays_per_bank - 1));
        let hero_row = RowAddr((geometry.subarray_base(sa).0 + geometry.rows_per_subarray / 2) | 1);
        VulnModel {
            profile: *profile,
            geometry,
            chip_index,
            seed,
            mu_rh,
            simra_cal,
            mu_comra,
            hero: (BankId(0), hero_row),
        }
    }

    /// The module profile this sampler models.
    pub fn profile(&self) -> &ModuleProfile {
        &self.profile
    }

    /// The chip geometry.
    pub fn geometry(&self) -> &ChipGeometry {
        &self.geometry
    }

    /// The manufacturer of the modelled chip.
    pub fn manufacturer(&self) -> Manufacturer {
        self.profile.chip_vendor
    }

    /// The designated most-vulnerable row of this chip, if it carries one
    /// (chip 0 only).
    pub fn hero_row(&self) -> Option<(BankId, RowAddr)> {
        (self.chip_index == 0).then_some(self.hero)
    }

    /// Samples the vulnerability of the (physical) row `row` in `bank`.
    pub fn row_vuln(&self, bank: BankId, row: RowAddr) -> RowVuln {
        let key = rng::mix_all(&[
            self.seed,
            rng::mix_all(&[
                self.profile.module_id.len() as u64,
                self.profile.rowhammer.min.to_bits(),
            ]),
            u64::from(self.chip_index),
            u64::from(bank.0),
            u64::from(row.0),
        ]);
        if self.chip_index == 0 && (bank, row) == self.hero {
            return RowVuln {
                key,
                t_rh: self.profile.rowhammer.min,
                t_simra: self.profile.simra.map_or(f64::INFINITY, |s| s.min),
                comra_factor: self.profile.rowhammer.min / self.profile.comra.min,
                beta: 1.1,
                is_hero: true,
            };
        }
        let t_rh = self.profile.rowhammer.min
            * (1.0 + rng::lognormal(&[key, 0x01], self.mu_rh, calib::SIGMA_T_RH));
        let t_simra = match self.simra_cal {
            Some(cal) => {
                let s_raw = if rng::unit(&[key, 0x02]) < cal.p_deep {
                    calib::SIMRA_DEEP_SCALE
                        * (1.0 + rng::lognormal(&[key, 0x05], 0.0, calib::SIGMA_SIMRA_DEEP))
                } else {
                    1.0 + rng::lognormal(&[key, 0x06], cal.mu_bulk, calib::SIGMA_SIMRA_BULK)
                };
                // Never undercut the family's Table 2 minimum, never exceed
                // the row's own RowHammer threshold.
                let s = s_raw.clamp(1.0 + 1e-9, (t_rh / cal.min).max(1.0 + 1e-9));
                t_rh / s
            }
            None => f64::INFINITY,
        };
        let raw_r = 1.0 + rng::lognormal(&[key, 0x03], self.mu_comra, calib::SIGMA_COMRA_FACTOR);
        // Clamp so no sampled row undercuts the family's CoMRA minimum.
        let comra_factor = raw_r.min(t_rh / self.profile.comra.min);
        let (blo, bhi) = calib::BETA_RANGE;
        let beta = blo + (bhi - blo) * rng::unit(&[key, 0x04]);
        RowVuln {
            key,
            t_rh,
            t_simra,
            comra_factor,
            beta,
            is_hero: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::{bisect_mu, solve_mu_reference};
    use pud_dram::profiles::TESTED_MODULES;

    fn model(idx: usize) -> VulnModel {
        VulnModel::new(
            &TESTED_MODULES[idx],
            ChipGeometry::scaled_for_tests(),
            0,
            42,
        )
    }

    fn sample_rows(m: &VulnModel, n: u32) -> Vec<RowVuln> {
        (0..n).map(|r| m.row_vuln(BankId(0), RowAddr(r))).collect()
    }

    /// Bitwise equality of two samples (`==` would let -0.0 pass as 0.0).
    fn same_bits(a: &RowVuln, b: &RowVuln) -> bool {
        a.key == b.key
            && a.t_rh.to_bits() == b.t_rh.to_bits()
            && a.t_simra.to_bits() == b.t_simra.to_bits()
            && a.comra_factor.to_bits() == b.comra_factor.to_bits()
            && a.beta.to_bits() == b.beta.to_bits()
            && a.is_hero == b.is_hero
    }

    #[test]
    fn every_family_calibration_matches_the_reference_solve() {
        for p in &TESTED_MODULES {
            let mut inputs = Vec::new();
            VulnModel::with_solver(p, ChipGeometry::scaled_for_tests(), 0, 42, |t, s| {
                inputs.push((t, s));
                0.0
            });
            let expected = if p.simra.is_some() { 2 } else { 1 };
            assert_eq!(inputs.len(), expected, "{}", p.module_id);
            for (target, sigma) in inputs {
                assert_eq!(
                    bisect_mu(target, sigma).to_bits(),
                    solve_mu_reference(target, sigma).to_bits(),
                    "{} target {target} sigma {sigma}",
                    p.module_id
                );
            }
        }
    }

    #[test]
    fn warm_memo_models_sample_like_reference_calibrated_ones() {
        let geometry = ChipGeometry::scaled_for_tests();
        for p in &TESTED_MODULES {
            for chip in [0, 1] {
                let reference = VulnModel::with_solver(p, geometry, chip, 42, solve_mu_reference);
                // The first build may be the family's cold solve; the
                // second is answered from the memo.
                let _ = VulnModel::new(p, geometry, chip, 42);
                let warm = VulnModel::new(p, geometry, chip, 42);
                assert_eq!(warm.mu_comra.to_bits(), reference.mu_comra.to_bits());
                assert_eq!(
                    warm.simra_cal.map(|c| c.mu_bulk.to_bits()),
                    reference.simra_cal.map(|c| c.mu_bulk.to_bits())
                );
                for bank in [BankId(0), BankId(1)] {
                    for row in 0..256 {
                        let (a, b) = (
                            warm.row_vuln(bank, RowAddr(row)),
                            reference.row_vuln(bank, RowAddr(row)),
                        );
                        assert!(same_bits(&a, &b), "{} chip {chip} row {row}", p.module_id);
                    }
                }
            }
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let m = model(1);
        let a = m.row_vuln(BankId(0), RowAddr(7));
        let b = m.row_vuln(BankId(0), RowAddr(7));
        assert_eq!(a, b);
        let c = m.row_vuln(BankId(0), RowAddr(8));
        assert_ne!(a.t_rh, c.t_rh);
    }

    #[test]
    fn thresholds_respect_minimum_anchors() {
        let m = model(1); // SK Hynix 8Gb A-die
        let p = &TESTED_MODULES[1];
        for v in sample_rows(&m, 2000) {
            assert!(v.t_rh >= p.rowhammer.min);
            assert!(v.t_simra >= p.simra.unwrap().min);
            assert!(v.t_rh / v.comra_factor >= p.comra.min * 0.999_999);
            assert!(v.comra_factor >= 1.0);
        }
    }

    #[test]
    fn average_thresholds_track_anchors() {
        let m = model(1);
        let p = &TESTED_MODULES[1];
        let rows = sample_rows(&m, 8000);
        let avg_rh: f64 = rows.iter().map(|v| v.t_rh).sum::<f64>() / rows.len() as f64;
        // Log-normal sample means converge slowly; accept a generous band.
        assert!(
            avg_rh > p.rowhammer.avg * 0.6 && avg_rh < p.rowhammer.avg * 1.6,
            "avg_rh {avg_rh} vs anchor {}",
            p.rowhammer.avg
        );
        let avg_comra: f64 =
            rows.iter().map(|v| v.t_rh / v.comra_factor).sum::<f64>() / rows.len() as f64;
        assert!(
            avg_comra > p.comra.avg * 0.5 && avg_comra < p.comra.avg * 2.0,
            "avg_comra {avg_comra} vs anchor {}",
            p.comra.avg
        );
    }

    #[test]
    fn hero_row_pins_fleet_minima() {
        let m = model(1);
        let (bank, row) = m.hero_row().unwrap();
        let v = m.row_vuln(bank, row);
        let p = &TESTED_MODULES[1];
        assert!(v.is_hero);
        assert_eq!(v.t_rh, p.rowhammer.min);
        assert_eq!(v.t_simra, p.simra.unwrap().min);
        assert!((v.t_rh / v.comra_factor - p.comra.min).abs() < 1e-6);
        // Other chips have no hero.
        let m1 = VulnModel::new(p, ChipGeometry::scaled_for_tests(), 1, 42);
        assert!(m1.hero_row().is_none());
    }

    #[test]
    fn simra_heavy_tail_matches_observation_12() {
        // At least ~25 % of rows should show a >99 % HC_first reduction vs
        // their own RowHammer threshold (Observation 12) on the most
        // vulnerable family.
        let m = model(1);
        let rows = sample_rows(&m, 4000);
        let deep =
            rows.iter().filter(|v| v.t_simra < 0.01 * v.t_rh).count() as f64 / rows.len() as f64;
        assert!(deep > 0.20, "deep-reduction fraction {deep}");
    }

    #[test]
    fn comra_reduces_most_rows() {
        // Fig. 4: ~99 % of rows have lower HC_first under CoMRA.
        let m = model(1);
        let rows = sample_rows(&m, 4000);
        let reduced = rows
            .iter()
            .filter(|v| v.comra_factor * v.comra_trend_jitter() > 1.0)
            .count() as f64
            / rows.len() as f64;
        assert!(reduced > 0.95, "reduced fraction {reduced}");
        assert!(reduced < 1.0, "a small fraction should buck the trend");
    }

    #[test]
    fn non_simra_vendors_have_infinite_simra_threshold() {
        let m = model(5); // Micron
        for v in sample_rows(&m, 100) {
            assert!(v.t_simra.is_infinite());
        }
    }

    #[test]
    fn simra_n_factor_is_one_at_best_n() {
        let m = model(1);
        for v in sample_rows(&m, 200) {
            let best = v.best_simra_n();
            assert_eq!(v.simra_n_factor(best), 1.0);
            for n in [2u8, 4, 8, 16] {
                assert!(v.simra_n_factor(n) >= 1.0);
            }
        }
    }

    #[test]
    fn cell_thresholds_grow_with_index() {
        let m = model(1);
        let v = m.row_vuln(BankId(0), RowAddr(3));
        let t1 = v.cell_threshold(FlipClass::RowHammer, 1);
        let t2 = v.cell_threshold(FlipClass::RowHammer, 2);
        let t10 = v.cell_threshold(FlipClass::RowHammer, 10);
        assert_eq!(t1, v.t_rh);
        assert!(t2 > t1 && t10 > t2);
    }

    #[test]
    fn direction_factor_is_identity_when_not_reversed() {
        let m = model(0);
        let v = m.row_vuln(BankId(0), RowAddr(5));
        assert_eq!(v.direction_factor(false), 1.0);
        let f = v.direction_factor(true);
        assert!(f > 0.0 && f.is_finite());
    }

    #[test]
    fn direction_factor_tail_exists() {
        let m = model(0);
        let max = (0..5000u32)
            .map(|r| {
                m.row_vuln(BankId(0), RowAddr(r % 1024))
                    .direction_factor(true)
            })
            .fold(0.0f64, f64::max);
        assert!(max > 3.0, "heavy direction tail missing, max {max}");
    }
}
