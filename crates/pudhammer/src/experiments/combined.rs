//! §6 experiments: combined RowHammer + multiple-row-activation patterns,
//! Figs. 21–23.
//!
//! Methodology (Fig. 20): hammer the victim with the multiple-row
//! activation technique(s) up to a fraction of each technique's own
//! HC_first, then continue with double-sided RowHammer until the first
//! bitflip, and report the change vs RowHammer-only.

use std::fmt;

use pud_dram::DataPattern;

use crate::experiments::{measure, sweep_fleet, DpSpec, Scale};
use crate::fleet::checkpoint::{CheckpointStore, RunCtx};
use crate::fleet::sweep::SweepReport;
use crate::fleet::Fleet;
use crate::hcfirst::{measure_hc_first_after, WarmStart};
use crate::patterns::{comra_ds_for, rowhammer_ds_for, Kernel};
use crate::report::{fmt_hc, Table};
use crate::stats::{fraction_where, percent_change, Summary};

/// The pre-hammer fractions tested (10 %, 50 %, 90 % of the technique's
/// HC_first — §6.1).
pub const FRACTIONS: [f64; 3] = [0.1, 0.5, 0.9];

/// Which multiple-row activation technique(s) precede the RowHammer phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StagePlan {
    /// CoMRA then RowHammer (Fig. 21).
    Comra,
    /// SiMRA then RowHammer (Fig. 22).
    Simra,
    /// CoMRA, then SiMRA, then RowHammer (Fig. 23).
    ComraThenSimra,
}

/// Result of one combined-pattern experiment.
///
/// Following the paper's metric (Fig. 20: the "B−C decrease"), the
/// HC_first of a combined pattern is the *RowHammer-phase* hammer count to
/// first flip after the fixed pre-hammer stages, compared against the
/// RowHammer-only HC_first.
#[derive(Debug, Clone)]
pub struct Combined {
    /// The staging plan.
    pub plan: StagePlan,
    /// Per-fraction: `(fraction, changes vs RowHammer-only, HC summary)`.
    pub per_fraction: Vec<(f64, Vec<f64>, Option<Summary>)>,
    /// RowHammer-only baseline over the same victims.
    pub baseline: Option<Summary>,
    /// Fault-tolerance status of the sweep behind this figure.
    pub sweep: SweepReport,
}

impl Combined {
    /// Average HC_first reduction factor at a fraction.
    pub fn mean_reduction(&self, fraction: f64) -> Option<f64> {
        let (_, changes, _) = self
            .per_fraction
            .iter()
            .find(|(fr, _, _)| (*fr - fraction).abs() < 1e-9)?;
        if changes.is_empty() {
            return None;
        }
        let mean_change = changes.iter().sum::<f64>() / changes.len() as f64;
        Some(1.0 / (1.0 + mean_change / 100.0))
    }

    /// Fraction of victims with lower combined HC_first at `fraction`.
    pub fn fraction_reduced(&self, fraction: f64) -> f64 {
        self.per_fraction
            .iter()
            .find(|(fr, _, _)| (*fr - fraction).abs() < 1e-9)
            .map_or(0.0, |(_, c, _)| fraction_where(c, |x| x < 0.0))
    }
}

/// Fig. 21: RowHammer combined with CoMRA.
pub fn fig21(scale: &Scale) -> Combined {
    fig21_ckpt(scale, None)
}

/// [`fig21`] with an optional [`CheckpointStore`]: chips already recorded
/// under this figure's stage are decoded instead of re-measured, and fresh
/// results are appended as they complete.
pub fn fig21_ckpt(scale: &Scale, ckpt: Option<&CheckpointStore>) -> Combined {
    let _span = pud_observe::span("experiment.fig21");
    let ctx = ckpt.map(|s| RunCtx::new(s, "fig21"));
    run_combined(scale, StagePlan::Comra, ctx.as_ref())
}

/// Fig. 22: RowHammer combined with SiMRA.
pub fn fig22(scale: &Scale) -> Combined {
    fig22_ckpt(scale, None)
}

/// [`fig22`] with an optional [`CheckpointStore`] (see [`fig21_ckpt`]).
pub fn fig22_ckpt(scale: &Scale, ckpt: Option<&CheckpointStore>) -> Combined {
    let _span = pud_observe::span("experiment.fig22");
    let ctx = ckpt.map(|s| RunCtx::new(s, "fig22"));
    run_combined(scale, StagePlan::Simra, ctx.as_ref())
}

/// Fig. 23: RowHammer combined with CoMRA *and* SiMRA — the most effective
/// pattern of the paper (Observation 24).
pub fn fig23(scale: &Scale) -> Combined {
    fig23_ckpt(scale, None)
}

/// [`fig23`] with an optional [`CheckpointStore`] (see [`fig21_ckpt`]).
pub fn fig23_ckpt(scale: &Scale, ckpt: Option<&CheckpointStore>) -> Combined {
    let _span = pud_observe::span("experiment.fig23");
    let ctx = ckpt.map(|s| RunCtx::new(s, "fig23"));
    run_combined(scale, StagePlan::ComraThenSimra, ctx.as_ref())
}

/// Per fraction: `(fraction, changes vs RowHammer-only, RowHammer-phase
/// HC_firsts)`, all empty.
fn no_changes() -> Vec<(f64, Vec<f64>, Vec<f64>)> {
    FRACTIONS
        .iter()
        .map(|&fr| (fr, Vec::new(), Vec::new()))
        .collect()
}

fn run_combined(scale: &Scale, plan: StagePlan, ctx: Option<&RunCtx<'_>>) -> Combined {
    // §6.2: the experiment runs on the chips used for SiMRA
    // characterization.
    let mut fleet = Fleet::build_simra_capable(scale.fleet);
    let cap = (scale.fleet.victims_per_subarray as usize) * 6;
    let dp = DataPattern::CHECKER_55;
    let mut sweep = SweepReport::default();
    let per_chip = sweep_fleet(scale, &mut fleet, &mut sweep, ctx, |_, chip| {
        let mut per_fraction = no_changes();
        let mut baseline_vals = Vec::new();
        let bank = chip.bank();
        for (simra_kernel, victim) in crate::experiments::simra::ds_targets(chip, 4, cap) {
            let Some(rh_kernel) = rowhammer_ds_for(chip.exec().chip(), victim) else {
                continue;
            };
            let comra_kernel = comra_ds_for(chip.exec().chip(), victim, false);
            let spec = DpSpec::Fixed(dp);
            let mut hc =
                |k: &Kernel| measure(scale, chip, k, victim, spec, &mut WarmStart::new()).0;
            let Some(h_rh) = hc(&rh_kernel) else {
                continue;
            };
            baseline_vals.push(h_rh as f64);
            // Per-technique baselines (same data pattern for consistency),
            // each measured even after one that finds no flip.
            let stages = match plan {
                StagePlan::Comra => vec![comra_kernel],
                StagePlan::Simra => vec![Some(simra_kernel)],
                StagePlan::ComraThenSimra => vec![comra_kernel, Some(simra_kernel)],
            };
            let measured: Vec<Option<(Kernel, u64)>> = stages
                .into_iter()
                .map(|k| k.and_then(|k| Some((k, hc(&k)?))))
                .collect();
            let Some(stage_kernels) = measured.into_iter().collect::<Option<Vec<_>>>() else {
                continue;
            };
            for (fr, changes, totals) in &mut per_fraction {
                let stages: Vec<(Kernel, u64)> = stage_kernels
                    .iter()
                    .map(|&(k, h)| (k, ((h as f64) * *fr) as u64))
                    .collect();
                if let Some(rh_phase) = measure_hc_first_after(
                    chip.exec(),
                    bank,
                    &stages,
                    &rh_kernel,
                    victim,
                    dp,
                    dp.negated(),
                    &scale.search,
                ) {
                    changes.push(percent_change(rh_phase as f64, h_rh as f64));
                    totals.push(rh_phase as f64);
                }
            }
        }
        (baseline_vals, per_fraction)
    });
    let mut per_fraction = no_changes();
    let mut baseline_vals = Vec::new();
    for (chip_baseline, chip_fracs) in per_chip {
        baseline_vals.extend(chip_baseline);
        for ((_, changes, totals), (_, c, t)) in per_fraction.iter_mut().zip(chip_fracs) {
            changes.extend(c);
            totals.extend(t);
        }
    }
    sweep.record_metrics();
    Combined {
        plan,
        per_fraction: per_fraction
            .into_iter()
            .map(|(fr, ch, tot)| (fr, ch, Summary::from_values(&tot)))
            .collect(),
        baseline: Summary::from_values(&baseline_vals),
        sweep,
    }
}

impl fmt::Display for Combined {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self.plan {
            StagePlan::Comra => "Fig. 21 — RowHammer + CoMRA",
            StagePlan::Simra => "Fig. 22 — RowHammer + SiMRA",
            StagePlan::ComraThenSimra => "Fig. 23 — RowHammer + CoMRA + SiMRA",
        };
        let mut t = Table::new(
            name,
            &[
                "Pre-hammer",
                "Reduced rows",
                "Mean reduction",
                "Total HC (mean)",
            ],
        );
        for (fr, changes, summary) in &self.per_fraction {
            let mean_red = self.mean_reduction(*fr).unwrap_or(1.0);
            t.push_row(vec![
                format!("{:.0}%", fr * 100.0),
                format!("{:.1}%", fraction_where(changes, |x| x < 0.0) * 100.0),
                format!("{mean_red:.2}x"),
                summary.map_or("-".into(), |s| fmt_hc(s.mean)),
            ]);
        }
        write!(f, "{t}")?;
        if let Some(b) = &self.baseline {
            writeln!(
                f,
                "RowHammer-only baseline mean HC_first: {}",
                fmt_hc(b.mean)
            )?;
        }
        self.sweep.fmt_footer(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        let mut s = Scale::quick();
        s.fleet.victims_per_subarray = 1;
        s
    }

    #[test]
    fn fig21_combined_rh_comra_reduces_hc() {
        let r = fig21(&tiny_scale());
        // Observation 22: the reduction grows with the CoMRA fraction.
        let red10 = r.mean_reduction(0.1).unwrap();
        let red90 = r.mean_reduction(0.9).unwrap();
        assert!(red90 > red10, "90%: {red90} vs 10%: {red10}");
        assert!(red90 > 1.05, "90% reduction {red90}");
        assert!(r.fraction_reduced(0.9) > 0.8);
    }

    #[test]
    fn fig22_simra_combination_matches_the_paper_factor() {
        let r = fig22(&tiny_scale());
        let red = r.mean_reduction(0.9).unwrap();
        // Paper: 1.22x at the 90% pre-hammer level.
        assert!((1.1..1.35).contains(&red), "reduction {red}");
        assert!(r.fraction_reduced(0.9) > 0.9);
    }

    #[test]
    fn fig23_triple_is_most_effective() {
        let scale = tiny_scale();
        let comra = fig21(&scale);
        let triple = fig23(&scale);
        let c = comra.mean_reduction(0.9).unwrap();
        let t = triple.mean_reduction(0.9).unwrap();
        // Observation 24: the triple combination beats RowHammer+CoMRA.
        assert!(t > c, "triple {t} vs comra {c}");
        assert!(t > 1.2, "triple reduction {t}");
    }
}
