//! §5 experiments: read disturbance of simultaneous multiple-row activation
//! (SiMRA), Figs. 13–19. Only SK Hynix chips perform SiMRA (§5.3).

use std::fmt;

use pud_bender::TestEnv;
use pud_dram::{Celsius, DataPattern, Picos, RowAddr, SubarrayRegion};

use crate::experiments::{measure, sweep_fleet, DpSpec, Scale};
use crate::fleet::checkpoint::{CheckpointStore, RunCtx};
use crate::fleet::sweep::SweepReport;
use crate::fleet::{ChipUnderTest, Fleet};
use crate::hcfirst::WarmStart;
use crate::patterns::{
    rowhammer_ds_for, rowhammer_ss_for, simra_ds_kernels, simra_ss_kernels, simra_victims, Kernel,
};
use crate::report::{fmt_hc, Table};
use crate::stats::{fraction_where, percent_change, sorted_changes, Summary};

/// The SiMRA aggressor pattern (`PatternClass::Simra(_).default_dp()`).
const ZEROS: DpSpec = DpSpec::Fixed(DataPattern::ZEROS);
/// The RowHammer (and single-sided SiMRA) aggressor pattern.
const CHECKER: DpSpec = DpSpec::Fixed(DataPattern::CHECKER_55);

/// Group sizes with double-sided (sandwiching) kernels.
pub const DS_GROUP_SIZES: [u8; 4] = [2, 4, 8, 16];
/// Group sizes tested single-sided.
pub const SS_GROUP_SIZES: [u8; 5] = [2, 4, 8, 16, 32];

/// A (kernel, sandwiched-victim) target for double-sided SiMRA.
///
/// Targets are spread evenly across the tested subarrays and across each
/// subarray's blocks (mirroring the paper's "100 random groups per
/// subarray", §5.2) so every subarray region is represented; the chip's
/// designated most-vulnerable row is always included.
pub fn ds_targets(chip: &mut ChipUnderTest, n: u8, cap: usize) -> Vec<(Kernel, RowAddr)> {
    let hero = chip.exec().engine().model().hero_row().map(|(_, r)| r);
    let mut targets = spread_targets(chip, n, cap, true);
    if let Some(hero) = hero {
        if !targets.iter().any(|(_, v)| *v == hero) {
            // Find a sandwiching kernel containing the hero row.
            if let Some(sa) = chip.exec().chip().geometry().subarray_of(hero) {
                for kernel in simra_ds_kernels(chip.exec().chip(), sa, n) {
                    let (sandwiched, _) = simra_victims(chip.exec().chip(), &kernel);
                    if sandwiched.contains(&hero) {
                        targets.push((kernel, hero));
                        break;
                    }
                }
            }
        }
    }
    targets
}

fn ss_targets(chip: &mut ChipUnderTest, n: u8, cap: usize) -> Vec<(Kernel, RowAddr)> {
    spread_targets(chip, n, cap, false)
}

fn spread_targets(
    chip: &mut ChipUnderTest,
    n: u8,
    cap: usize,
    double_sided: bool,
) -> Vec<(Kernel, RowAddr)> {
    let subarrays = chip.tested_subarrays();
    let quota = cap.div_ceil(subarrays.len().max(1)).max(1);
    let mut targets = Vec::new();
    for sa in subarrays {
        let kernels = if double_sided {
            simra_ds_kernels(chip.exec().chip(), sa, n)
        } else {
            simra_ss_kernels(chip.exec().chip(), sa, n)
        };
        let mut candidates: Vec<(Kernel, RowAddr)> = Vec::new();
        for kernel in kernels {
            let (sandwiched, edge) = simra_victims(chip.exec().chip(), &kernel);
            let victims = if double_sided { sandwiched } else { edge };
            for v in victims {
                if !candidates.iter().any(|(_, cv)| *cv == v) {
                    candidates.push((kernel, v));
                }
            }
        }
        if candidates.is_empty() {
            continue;
        }
        // Even spacing over the subarray's candidates covers all regions.
        let take = quota.min(candidates.len());
        for i in 0..take {
            let idx = i * candidates.len() / take;
            let c = candidates[idx];
            if !targets.iter().any(|(_, tv)| *tv == c.1) {
                targets.push(c);
            }
        }
    }
    targets
}

fn target_cap(scale: &Scale) -> usize {
    (scale.fleet.victims_per_subarray as usize) * 6
}

/// Fig. 13: double-sided SiMRA vs double-sided RowHammer.
#[derive(Debug, Clone)]
pub struct Fig13 {
    /// Per-N results.
    pub per_n: Vec<Fig13Row>,
    /// Lowest double-sided RowHammer HC_first over the same victims.
    pub lowest_rh: f64,
    /// Fault-tolerance status of the sweep(s) behind this figure.
    pub sweep: SweepReport,
}

/// One N's worth of Fig. 13 data.
#[derive(Debug, Clone)]
pub struct Fig13Row {
    /// Number of simultaneously activated rows.
    pub n: u8,
    /// Lowest SiMRA HC_first observed.
    pub lowest: f64,
    /// Per-victim percent changes vs RowHammer (most positive first).
    pub changes: Vec<f64>,
    /// Fraction of victims with reduced HC_first.
    pub fraction_reduced: f64,
    /// Fraction of victims with >99 % reduction.
    pub fraction_deep: f64,
}

/// Runs the Fig. 13 experiment.
pub fn fig13(scale: &Scale) -> Fig13 {
    fig13_ckpt(scale, None)
}

/// [`fig13`] with an optional [`CheckpointStore`]: chips already recorded
/// under this figure's stages are decoded instead of re-measured, and fresh
/// results are appended as they complete.
pub fn fig13_ckpt(scale: &Scale, ckpt: Option<&CheckpointStore>) -> Fig13 {
    let _span = pud_observe::span("experiment.fig13");
    let ctx = ckpt.map(|s| RunCtx::new(s, "fig13"));
    let mut fleet = Fleet::build_simra_capable(scale.fleet);
    let cap = target_cap(scale);
    let mut sweep = SweepReport::default();
    let mut per_n = Vec::new();
    let mut lowest_rh = f64::INFINITY;
    for n in DS_GROUP_SIZES {
        let per_chip = sweep_fleet(scale, &mut fleet, &mut sweep, ctx.as_ref(), |_, chip| {
            let mut changes = Vec::new();
            let mut lowest = f64::INFINITY;
            let mut lowest_rh = f64::INFINITY;
            for (kernel, victim) in ds_targets(chip, n, cap) {
                let hc_si = measure(scale, chip, &kernel, victim, ZEROS, &mut WarmStart::new()).0;
                let Some(rh_kernel) = rowhammer_ds_for(chip.exec().chip(), victim) else {
                    continue;
                };
                let hc_rh = measure(
                    scale,
                    chip,
                    &rh_kernel,
                    victim,
                    CHECKER,
                    &mut WarmStart::new(),
                )
                .0;
                if let Some(h) = hc_si {
                    lowest = lowest.min(h as f64);
                }
                if let Some(h) = hc_rh {
                    lowest_rh = lowest_rh.min(h as f64);
                }
                if let (Some(si), Some(rh)) = (hc_si, hc_rh) {
                    changes.push(percent_change(si as f64, rh as f64));
                }
            }
            (changes, lowest, lowest_rh)
        });
        let mut changes = Vec::new();
        let mut lowest = f64::INFINITY;
        for (chip_changes, chip_lowest, chip_lowest_rh) in per_chip {
            changes.extend(chip_changes);
            lowest = lowest.min(chip_lowest);
            lowest_rh = lowest_rh.min(chip_lowest_rh);
        }
        per_n.push(Fig13Row {
            n,
            lowest,
            fraction_reduced: fraction_where(&changes, |x| x < 0.0),
            fraction_deep: fraction_where(&changes, |x| x < -99.0),
            changes: sorted_changes(&changes),
        });
    }
    sweep.record_metrics();
    Fig13 {
        per_n,
        lowest_rh,
        sweep,
    }
}

impl fmt::Display for Fig13 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Fig. 13 — ds-SiMRA vs ds-RowHammer",
            &["N", "Lowest HC_first", "Reduced rows", ">99% reduced", "n"],
        );
        for row in &self.per_n {
            t.push_row(vec![
                row.n.to_string(),
                fmt_hc(row.lowest),
                format!("{:.1}%", row.fraction_reduced * 100.0),
                format!("{:.1}%", row.fraction_deep * 100.0),
                row.changes.len().to_string(),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "lowest ds-RowHammer HC_first over the same victims: {}",
            fmt_hc(self.lowest_rh)
        )?;
        self.sweep.fmt_footer(f)
    }
}

/// Fig. 14: double-sided SiMRA HC_first per aggressor data pattern.
#[derive(Debug, Clone)]
pub struct Fig14 {
    /// `(n, pattern, summary)` cells (victims hold the negated pattern).
    pub cells: Vec<(u8, DataPattern, Option<Summary>)>,
    /// Fault-tolerance status of the sweep(s) behind this figure.
    pub sweep: SweepReport,
}

/// Runs the Fig. 14 experiment.
///
/// Each (kernel, victim) target is measured under all four tested data
/// patterns back to back so the searches share a [`crate::hcfirst::WarmStart`]
/// bracket, like the WCDP search does.
pub fn fig14(scale: &Scale) -> Fig14 {
    fig14_ckpt(scale, None)
}

/// [`fig14`] with an optional [`CheckpointStore`] (see [`fig13_ckpt`]).
pub fn fig14_ckpt(scale: &Scale, ckpt: Option<&CheckpointStore>) -> Fig14 {
    let _span = pud_observe::span("experiment.fig14");
    let ctx = ckpt.map(|s| RunCtx::new(s, "fig14"));
    let mut fleet = Fleet::build_simra_capable(scale.fleet);
    let cap = target_cap(scale);
    let mut sweep = SweepReport::default();
    let mut cells = Vec::new();
    for n in DS_GROUP_SIZES {
        let per_chip = sweep_fleet(scale, &mut fleet, &mut sweep, ctx.as_ref(), |_, chip| {
            let mut by_dp: Vec<Vec<f64>> = vec![Vec::new(); DataPattern::TESTED.len()];
            for (kernel, victim) in ds_targets(chip, n, cap) {
                let mut warm = WarmStart::new();
                for (i, dp) in DataPattern::TESTED.into_iter().enumerate() {
                    if let Some(h) =
                        measure(scale, chip, &kernel, victim, DpSpec::Fixed(dp), &mut warm).0
                    {
                        by_dp[i].push(h as f64);
                    }
                }
            }
            by_dp
        });
        for (i, dp) in DataPattern::TESTED.into_iter().enumerate() {
            let vals: Vec<f64> = per_chip.iter().flat_map(|c| c[i].iter().copied()).collect();
            cells.push((n, dp, Summary::from_values(&vals)));
        }
    }
    sweep.record_metrics();
    Fig14 { cells, sweep }
}

impl fmt::Display for Fig14 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Fig. 14 — ds-SiMRA HC_first by aggressor data pattern",
            &["N", "Aggr pattern", "Victim", "Min", "Mean"],
        );
        for (n, dp, s) in &self.cells {
            let cells = match s {
                Some(s) => vec![
                    n.to_string(),
                    dp.to_string(),
                    dp.negated().to_string(),
                    fmt_hc(s.min),
                    fmt_hc(s.mean),
                ],
                None => vec![
                    n.to_string(),
                    dp.to_string(),
                    dp.negated().to_string(),
                    "-".into(),
                    "no bitflips".into(),
                ],
            };
            t.push_row(cells);
        }
        write!(f, "{t}")?;
        self.sweep.fmt_footer(f)
    }
}

/// Fig. 15: double-sided SiMRA HC_first vs temperature.
#[derive(Debug, Clone)]
pub struct Fig15 {
    /// `(n, temperature, summary)` cells.
    pub cells: Vec<(u8, Celsius, Option<Summary>)>,
    /// Fault-tolerance status of the sweep(s) behind this figure.
    pub sweep: SweepReport,
}

/// Runs the Fig. 15 experiment.
pub fn fig15(scale: &Scale) -> Fig15 {
    fig15_ckpt(scale, None)
}

/// [`fig15`] with an optional [`CheckpointStore`] (see [`fig13_ckpt`]).
pub fn fig15_ckpt(scale: &Scale, ckpt: Option<&CheckpointStore>) -> Fig15 {
    let _span = pud_observe::span("experiment.fig15");
    let ctx = ckpt.map(|s| RunCtx::new(s, "fig15"));
    let mut fleet = Fleet::build_simra_capable(scale.fleet);
    let cap = target_cap(scale);
    let mut sweep = SweepReport::default();
    let mut cells = Vec::new();
    for temp in Celsius::TESTED {
        // One sweep per temperature: each chip sets its environment and
        // measures every group size, so the per-chip operation sequence
        // matches the serial path exactly.
        let per_chip = sweep_fleet(scale, &mut fleet, &mut sweep, ctx.as_ref(), |_, chip| {
            chip.set_env(TestEnv::characterization().at_temperature(temp));
            let mut by_n: Vec<Vec<f64>> = Vec::with_capacity(DS_GROUP_SIZES.len());
            for n in DS_GROUP_SIZES {
                let mut vals = Vec::new();
                for (kernel, victim) in ds_targets(chip, n, cap) {
                    if let Some(h) =
                        measure(scale, chip, &kernel, victim, ZEROS, &mut WarmStart::new()).0
                    {
                        vals.push(h as f64);
                    }
                }
                by_n.push(vals);
            }
            by_n
        });
        for (i, n) in DS_GROUP_SIZES.into_iter().enumerate() {
            let vals: Vec<f64> = per_chip.iter().flat_map(|c| c[i].iter().copied()).collect();
            cells.push((n, temp, Summary::from_values(&vals)));
        }
    }
    sweep.record_metrics();
    Fig15 { cells, sweep }
}

impl fmt::Display for Fig15 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Fig. 15 — ds-SiMRA HC_first by temperature",
            &["N", "Temp", "Min", "Mean"],
        );
        for (n, temp, s) in &self.cells {
            if let Some(s) = s {
                t.push_row(vec![
                    n.to_string(),
                    temp.to_string(),
                    fmt_hc(s.min),
                    fmt_hc(s.mean),
                ]);
            }
        }
        write!(f, "{t}")?;
        self.sweep.fmt_footer(f)
    }
}

/// Fig. 16: single-sided SiMRA vs single-sided RowHammer.
#[derive(Debug, Clone)]
pub struct Fig16 {
    /// `(n, summary)` for single-sided SiMRA.
    pub simra: Vec<(u8, Option<Summary>)>,
    /// Single-sided RowHammer baseline over the same victims.
    pub rowhammer: Option<Summary>,
    /// Fault-tolerance status of the sweep(s) behind this figure.
    pub sweep: SweepReport,
}

/// Runs the Fig. 16 experiment.
pub fn fig16(scale: &Scale) -> Fig16 {
    fig16_ckpt(scale, None)
}

/// [`fig16`] with an optional [`CheckpointStore`] (see [`fig13_ckpt`]).
pub fn fig16_ckpt(scale: &Scale, ckpt: Option<&CheckpointStore>) -> Fig16 {
    let _span = pud_observe::span("experiment.fig16");
    let ctx = ckpt.map(|s| RunCtx::new(s, "fig16"));
    let mut fleet = Fleet::build_simra_capable(scale.fleet);
    let cap = target_cap(scale);
    let mut sweep = SweepReport::default();
    let mut simra = Vec::new();
    let mut rh_vals = Vec::new();
    for n in SS_GROUP_SIZES {
        let per_chip = sweep_fleet(scale, &mut fleet, &mut sweep, ctx.as_ref(), |_, chip| {
            let mut vals = Vec::new();
            let mut rh_vals = Vec::new();
            for (kernel, victim) in ss_targets(chip, n, cap) {
                if let Some(h) =
                    measure(scale, chip, &kernel, victim, CHECKER, &mut WarmStart::new()).0
                {
                    vals.push(h as f64);
                }
                if n == 2 {
                    if let Some(rk) = rowhammer_ss_for(chip.exec().chip(), victim) {
                        if let Some(h) =
                            measure(scale, chip, &rk, victim, CHECKER, &mut WarmStart::new()).0
                        {
                            rh_vals.push(h as f64);
                        }
                    }
                }
            }
            (vals, rh_vals)
        });
        let mut vals = Vec::new();
        for (chip_vals, chip_rh) in per_chip {
            vals.extend(chip_vals);
            rh_vals.extend(chip_rh);
        }
        simra.push((n, Summary::from_values(&vals)));
    }
    sweep.record_metrics();
    Fig16 {
        simra,
        rowhammer: Summary::from_values(&rh_vals),
        sweep,
    }
}

impl fmt::Display for Fig16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Fig. 16 — ss-SiMRA vs ss-RowHammer",
            &["Technique", "Lowest", "Mean"],
        );
        if let Some(s) = &self.rowhammer {
            t.push_row(vec!["ss-RowHammer".into(), fmt_hc(s.min), fmt_hc(s.mean)]);
        }
        for (n, s) in &self.simra {
            if let Some(s) = s {
                t.push_row(vec![format!("ss-SiMRA-{n}"), fmt_hc(s.min), fmt_hc(s.mean)]);
            }
        }
        write!(f, "{t}")?;
        self.sweep.fmt_footer(f)
    }
}

/// Fig. 17: double-sided SiMRA vs RowPress across `t_AggOn`.
#[derive(Debug, Clone)]
pub struct Fig17 {
    /// `(technique, t_aggon, summary)` cells; technique is `"RowPress"` or
    /// `"SiMRA-N"`.
    pub cells: Vec<(String, Picos, Option<Summary>)>,
    /// Fault-tolerance status of the sweep(s) behind this figure.
    pub sweep: SweepReport,
}

/// Runs the Fig. 17 experiment.
pub fn fig17(scale: &Scale) -> Fig17 {
    fig17_ckpt(scale, None)
}

/// [`fig17`] with an optional [`CheckpointStore`] (see [`fig13_ckpt`]).
pub fn fig17_ckpt(scale: &Scale, ckpt: Option<&CheckpointStore>) -> Fig17 {
    let _span = pud_observe::span("experiment.fig17");
    let ctx = ckpt.map(|s| RunCtx::new(s, "fig17"));
    let mut fleet = Fleet::build_simra_capable(scale.fleet);
    let cap = target_cap(scale);
    let mut sweep = SweepReport::default();
    let mut cells = Vec::new();
    for t_on in crate::experiments::comra::taggon_sweep() {
        // One sweep per on-time: each chip runs the RowPress baseline
        // (double-sided RowHammer held open) and then both SiMRA sizes.
        let per_chip = sweep_fleet(scale, &mut fleet, &mut sweep, ctx.as_ref(), |_, chip| {
            let mut press_vals = Vec::new();
            for victim in chip.victim_rows() {
                let Some(k) = rowhammer_ds_for(chip.exec().chip(), victim) else {
                    continue;
                };
                let k = k.with_t_aggon(t_on);
                if let Some(h) = measure(scale, chip, &k, victim, CHECKER, &mut WarmStart::new()).0
                {
                    press_vals.push(h as f64);
                }
            }
            let mut by_n: Vec<Vec<f64>> = Vec::with_capacity(2);
            for n in [4u8, 16] {
                let mut vals = Vec::new();
                for (kernel, victim) in ds_targets(chip, n, cap) {
                    let k = kernel.with_t_aggon(t_on);
                    if let Some(h) =
                        measure(scale, chip, &k, victim, ZEROS, &mut WarmStart::new()).0
                    {
                        vals.push(h as f64);
                    }
                }
                by_n.push(vals);
            }
            (press_vals, by_n)
        });
        let press_vals: Vec<f64> = per_chip
            .iter()
            .flat_map(|(p, _)| p.iter().copied())
            .collect();
        cells.push((
            "RowPress".to_string(),
            t_on,
            Summary::from_values(&press_vals),
        ));
        for (i, n) in [4u8, 16].into_iter().enumerate() {
            let vals: Vec<f64> = per_chip
                .iter()
                .flat_map(|(_, by_n)| by_n[i].iter().copied())
                .collect();
            cells.push((format!("SiMRA-{n}"), t_on, Summary::from_values(&vals)));
        }
    }
    sweep.record_metrics();
    Fig17 { cells, sweep }
}

impl fmt::Display for Fig17 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Fig. 17 — SiMRA vs RowPress across t_AggOn",
            &["Technique", "t_AggOn", "Min", "Mean"],
        );
        for (name, t_on, s) in &self.cells {
            if let Some(s) = s {
                t.push_row(vec![
                    name.clone(),
                    t_on.to_string(),
                    fmt_hc(s.min),
                    fmt_hc(s.mean),
                ]);
            }
        }
        write!(f, "{t}")?;
        self.sweep.fmt_footer(f)
    }
}

/// Fig. 18: double-sided SiMRA HC_first across ACT→PRE / PRE→ACT delays.
#[derive(Debug, Clone)]
pub struct Fig18 {
    /// `(act_to_pre, pre_to_act, summary)` cells for SiMRA-16.
    pub cells: Vec<(Picos, Picos, Option<Summary>)>,
    /// Fault-tolerance status of the sweep(s) behind this figure.
    pub sweep: SweepReport,
}

/// Runs the Fig. 18 experiment.
pub fn fig18(scale: &Scale) -> Fig18 {
    fig18_ckpt(scale, None)
}

/// [`fig18`] with an optional [`CheckpointStore`] (see [`fig13_ckpt`]).
pub fn fig18_ckpt(scale: &Scale, ckpt: Option<&CheckpointStore>) -> Fig18 {
    let _span = pud_observe::span("experiment.fig18");
    let ctx = ckpt.map(|s| RunCtx::new(s, "fig18"));
    let mut fleet = Fleet::build_simra_capable(scale.fleet);
    let cap = target_cap(scale);
    let delays = [
        Picos::from_ns(1.5),
        Picos::from_ns(3.0),
        Picos::from_ns(4.5),
    ];
    let mut sweep = SweepReport::default();
    let mut cells = Vec::new();
    for a2p in delays {
        for p2a in delays {
            let per_chip = sweep_fleet(scale, &mut fleet, &mut sweep, ctx.as_ref(), |_, chip| {
                let mut vals = Vec::new();
                for (kernel, victim) in ds_targets(chip, 16, cap) {
                    let Kernel::Simra {
                        r1, r2, t_aggon, ..
                    } = kernel
                    else {
                        continue;
                    };
                    let k = Kernel::Simra {
                        r1,
                        r2,
                        act_to_pre: a2p,
                        pre_to_act: p2a,
                        t_aggon,
                    };
                    if let Some(h) =
                        measure(scale, chip, &k, victim, ZEROS, &mut WarmStart::new()).0
                    {
                        vals.push(h as f64);
                    }
                }
                vals
            });
            let vals: Vec<f64> = per_chip.into_iter().flatten().collect();
            cells.push((a2p, p2a, Summary::from_values(&vals)));
        }
    }
    sweep.record_metrics();
    Fig18 { cells, sweep }
}

impl fmt::Display for Fig18 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Fig. 18 — ds-SiMRA-16 HC_first by ACT→PRE / PRE→ACT delays",
            &["ACT→PRE", "PRE→ACT", "Min", "Mean", "n"],
        );
        for (a2p, p2a, s) in &self.cells {
            if let Some(s) = s {
                t.push_row(vec![
                    a2p.to_string(),
                    p2a.to_string(),
                    fmt_hc(s.min),
                    fmt_hc(s.mean),
                    s.n.to_string(),
                ]);
            }
        }
        write!(f, "{t}")?;
        self.sweep.fmt_footer(f)
    }
}

/// Fig. 19: double-sided SiMRA HC_first by victim location per N.
#[derive(Debug, Clone)]
pub struct Fig19 {
    /// `(n, region, summary)` cells.
    pub cells: Vec<(u8, SubarrayRegion, Option<Summary>)>,
    /// Fault-tolerance status of the sweep(s) behind this figure.
    pub sweep: SweepReport,
}

/// Runs the Fig. 19 experiment.
pub fn fig19(scale: &Scale) -> Fig19 {
    fig19_ckpt(scale, None)
}

/// [`fig19`] with an optional [`CheckpointStore`] (see [`fig13_ckpt`]).
pub fn fig19_ckpt(scale: &Scale, ckpt: Option<&CheckpointStore>) -> Fig19 {
    let _span = pud_observe::span("experiment.fig19");
    let ctx = ckpt.map(|s| RunCtx::new(s, "fig19"));
    let mut fleet = Fleet::build_simra_capable(scale.fleet);
    let cap = target_cap(scale);
    let mut sweep = SweepReport::default();
    let mut cells = Vec::new();
    for n in DS_GROUP_SIZES {
        let per_chip = sweep_fleet(scale, &mut fleet, &mut sweep, ctx.as_ref(), |_, chip| {
            let mut by_region: Vec<Vec<f64>> = vec![Vec::new(); 5];
            for (kernel, victim) in ds_targets(chip, n, cap) {
                let region = chip.exec().chip().geometry().region_of(victim);
                if let Some(h) =
                    measure(scale, chip, &kernel, victim, ZEROS, &mut WarmStart::new()).0
                {
                    by_region[region.index()].push(h as f64);
                }
            }
            by_region
        });
        let mut by_region: Vec<Vec<f64>> = vec![Vec::new(); 5];
        for chip_regions in per_chip {
            for (dst, src) in by_region.iter_mut().zip(chip_regions) {
                dst.extend(src);
            }
        }
        for region in SubarrayRegion::ALL {
            cells.push((n, region, Summary::from_values(&by_region[region.index()])));
        }
    }
    sweep.record_metrics();
    Fig19 { cells, sweep }
}

impl fmt::Display for Fig19 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Fig. 19 — ds-SiMRA HC_first by victim location in subarray",
            &["N", "Region", "Min", "Mean", "n"],
        );
        for (n, region, s) in &self.cells {
            if let Some(s) = s {
                t.push_row(vec![
                    n.to_string(),
                    region.to_string(),
                    fmt_hc(s.min),
                    fmt_hc(s.mean),
                    s.n.to_string(),
                ]);
            }
        }
        write!(f, "{t}")?;
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
    fn fig13_reproduces_observation_12() {
        let r = fig13(&tiny_scale());
        assert_eq!(r.per_n.len(), 4);
        for row in &r.per_n {
            // Paper: 100 % / 98.8 % / 97.4 % / 94.9 % of rows reduced for
            // N = 2/4/8/16; the quick-scale sample is small, so accept a
            // looser band that still demonstrates the overwhelming trend.
            let floor = if row.n == 2 { 0.9 } else { 0.78 };
            assert!(
                row.fraction_reduced > floor,
                "SiMRA-{}: only {:.0}% reduced",
                row.n,
                row.fraction_reduced * 100.0
            );
        }
        // The lowest HC_first across N reaches the 8Gb A-die anchor (26).
        let overall = r.per_n.iter().map(|x| x.lowest).fold(f64::MAX, f64::min);
        assert!(
            overall < 100.0,
            "lowest ds-SiMRA HC_first {overall} should approach 26"
        );
        assert!(r.lowest_rh > overall * 10.0);
        // A substantial fraction of victims shows >99% reduction.
        let deep_any = r.per_n.iter().map(|x| x.fraction_deep).fold(0.0, f64::max);
        assert!(deep_any > 0.15, "deep fraction {deep_any}");
    }

    #[test]
    fn fig14_zero_victim_pattern_is_hardest() {
        // Observation 13: aggressor 0xFF (victim 0x00) raises HC_first
        // drastically vs aggressor 0x00 (victim 0xFF).
        let r = fig14(&tiny_scale());
        let mean_of = |n: u8, dp: DataPattern| -> Option<f64> {
            r.cells
                .iter()
                .find(|(cn, cdp, _)| *cn == n && *cdp == dp)
                .and_then(|(_, _, s)| s.map(|s| s.mean))
        };
        for n in DS_GROUP_SIZES {
            let easy = mean_of(n, DataPattern::ZEROS).unwrap();
            if let Some(hard) = mean_of(n, DataPattern::ONES) {
                assert!(hard > easy * 3.0, "N={n}: {hard} vs {easy}");
            }
        }
    }

    #[test]
    fn fig15_simra_gets_worse_with_temperature() {
        // Observation 15: consistently ~3.2x from 50C to 80C.
        let r = fig15(&tiny_scale());
        for n in DS_GROUP_SIZES {
            let mean_at = |t: f64| -> f64 {
                r.cells
                    .iter()
                    .find(|(cn, temp, _)| *cn == n && temp.0 == t)
                    .and_then(|(_, _, s)| s.map(|s| s.mean))
                    .unwrap()
            };
            let drop = mean_at(50.0) / mean_at(80.0);
            assert!((2.0..4.5).contains(&drop), "N={n}: drop {drop}");
        }
    }

    #[test]
    fn fig17_simra_press_reduces_hc_massively() {
        // Observation 18: 145-270x reductions at 70.2us.
        let r = fig17(&tiny_scale());
        let mean_of = |tech: &str, t: Picos| -> f64 {
            r.cells
                .iter()
                .find(|(te, ton, _)| te == tech && *ton == t)
                .and_then(|(_, _, s)| s.map(|s| s.mean))
                .unwrap()
        };
        let t36 = Picos::from_ns(36.0);
        let t702 = Picos::from_us(70.2);
        for tech in ["SiMRA-4", "SiMRA-16"] {
            let drop = mean_of(tech, t36) / mean_of(tech, t702);
            assert!(drop > 100.0, "{tech}: drop {drop}");
        }
        // SiMRA stays far below RowPress at every on-time.
        for t in crate::experiments::comra::taggon_sweep() {
            assert!(mean_of("SiMRA-16", t) < mean_of("RowPress", t));
        }
    }

    #[test]
    fn fig18_timing_delays_match_observations_19_20() {
        let r = fig18(&tiny_scale());
        let mean_of = |a2p: f64, p2a: f64| -> f64 {
            r.cells
                .iter()
                .find(|(a, p, _)| *a == Picos::from_ns(a2p) && *p == Picos::from_ns(p2a))
                .and_then(|(_, _, s)| s.map(|s| s.mean))
                .unwrap()
        };
        // Observation 20: 1.5ns ACT->PRE partially activates, raising HC.
        assert!(mean_of(1.5, 3.0) > mean_of(3.0, 3.0) * 1.5);
        // Observation 19: longer PRE->ACT slightly lowers HC.
        assert!(mean_of(3.0, 4.5) < mean_of(3.0, 1.5));
    }

    #[test]
    fn fig19_spatial_shape_differs_per_n() {
        // Observation 21: for 4-row activation the beginning region has the
        // highest HC_first distribution.
        let r = fig19(&tiny_scale());
        let mean_of = |n: u8, region: SubarrayRegion| -> Option<f64> {
            r.cells
                .iter()
                .find(|(cn, reg, _)| *cn == n && *reg == region)
                .and_then(|(_, _, s)| s.map(|s| s.mean))
        };
        if let (Some(beg), Some(mid)) = (
            mean_of(4, SubarrayRegion::Beginning),
            mean_of(4, SubarrayRegion::BeginningMiddle),
        ) {
            assert!(beg > mid, "N=4: beginning {beg} vs {mid}");
        }
    }

    #[test]
    fn fig16_ss_simra_beats_ss_rowhammer_and_scales_with_n() {
        let r = fig16(&tiny_scale());
        let rh = r.rowhammer.unwrap();
        let mean = |n: u8| -> f64 {
            r.simra
                .iter()
                .find(|(sn, _)| *sn == n)
                .and_then(|(_, s)| s.map(|s| s.mean))
                .unwrap()
        };
        // Observation 17: average HC_first decreases as N grows.
        assert!(mean(32) < mean(2), "{} vs {}", mean(32), mean(2));
        // Observation 16: SiMRA-32 undercuts ss-RowHammer on average.
        assert!(mean(32) < rh.mean);
    }
}
