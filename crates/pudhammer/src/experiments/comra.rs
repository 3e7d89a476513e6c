//! §4 experiments: read disturbance of consecutive multiple-row activation
//! (CoMRA), Figs. 4–11.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use pud_bender::TestEnv;
use pud_dram::{Celsius, DataPattern, Manufacturer, Picos, SubarrayRegion};

use crate::experiments::{collect_hc, hc_values, measure, sweep_fleet, DpSpec, Record, Scale};
use crate::fleet::checkpoint::{CheckpointStore, RunCtx};
use crate::fleet::sweep::SweepReport;
use crate::fleet::Fleet;
use crate::hcfirst::WarmStart;
use crate::patterns::{
    comra_ds_for, comra_ss_for, rowhammer_far_ds_for, PatternClass, DEFAULT_FAR_OFFSET,
};
use crate::report::{fmt_hc, Table};
use crate::stats::{fraction_where, percent_change, sorted_changes, Summary};

/// Fig. 4: double-sided CoMRA vs double-sided RowHammer.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Per-manufacturer lowest HC_first: `(mfr, lowest_rh, lowest_comra)`.
    pub lowest: Vec<(Manufacturer, f64, f64)>,
    /// Per-victim HC_first change (percent), most positive first.
    pub changes: Vec<f64>,
    /// Fraction of victims whose HC_first decreased under CoMRA.
    pub fraction_reduced: f64,
    /// Fault-tolerance status of the sweeps behind this figure.
    pub sweep: SweepReport,
}

/// Runs the Fig. 4 experiment.
pub fn fig4(scale: &Scale) -> Fig4 {
    fig4_ckpt(scale, None)
}

/// [`fig4`] with an optional [`CheckpointStore`]: chips already recorded
/// under this figure's stages are decoded instead of re-measured, and fresh
/// results are appended as they complete.
pub fn fig4_ckpt(scale: &Scale, ckpt: Option<&CheckpointStore>) -> Fig4 {
    let _span = pud_observe::span("experiment.fig4");
    let ctx = ckpt.map(|s| RunCtx::new(s, "fig4"));
    let mut fleet = Fleet::build(scale.fleet);
    let mut sweep = SweepReport::default();
    let [rh, comra] = [PatternClass::RhDs, PatternClass::ComraDs].map(|class| {
        collect_hc(
            scale,
            &mut fleet,
            |c, v| class.kernel_for(c, v),
            scale.dp_policy(class),
            &mut sweep,
            ctx.as_ref(),
        )
    });
    let mut changes = Vec::new();
    let mut lowest: BTreeMap<Manufacturer, (f64, f64)> = BTreeMap::new();
    for r in &rh {
        let e = lowest
            .entry(r.mfr)
            .or_insert((f64::INFINITY, f64::INFINITY));
        if let Some(h) = r.hc {
            e.0 = e.0.min(h as f64);
        }
    }
    for c in &comra {
        let e = lowest
            .entry(c.mfr)
            .or_insert((f64::INFINITY, f64::INFINITY));
        if let Some(h) = c.hc {
            e.1 = e.1.min(h as f64);
        }
    }
    // Pair the two sweeps on (chip, victim) rather than zipping by index:
    // a chip quarantined in one sweep but not the other must not shift
    // every later pair onto the wrong partner.
    let comra_hc: HashMap<(usize, u32), u64> = comra
        .iter()
        .filter_map(|c| c.hc.map(|h| ((c.chip, c.victim.0), h)))
        .collect();
    for r in &rh {
        if let (Some(hr), Some(&hc)) = (r.hc, comra_hc.get(&(r.chip, r.victim.0))) {
            changes.push(percent_change(hc as f64, hr as f64));
        }
    }
    let fraction_reduced = fraction_where(&changes, |x| x < 0.0);
    sweep.record_metrics();
    Fig4 {
        lowest: lowest.into_iter().map(|(m, (r, c))| (m, r, c)).collect(),
        changes: sorted_changes(&changes),
        fraction_reduced,
        sweep,
    }
}

impl fmt::Display for Fig4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Fig. 4 — lowest HC_first: double-sided CoMRA vs RowHammer",
            &["Mfr", "RowHammer", "CoMRA", "Reduction"],
        );
        for &(mfr, rh, comra) in &self.lowest {
            t.push_row(vec![
                mfr.to_string(),
                fmt_hc(rh),
                fmt_hc(comra),
                format!("{:.2}x", rh / comra),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "rows with reduced HC_first under CoMRA: {:.1}% (paper: ~99%)",
            self.fraction_reduced * 100.0
        )?;
        self.sweep.fmt_footer(f)
    }
}

/// Fig. 5: CoMRA HC_first distribution per aggressor data pattern.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// `(mfr, pattern, summary)` cells; `None` when no row flipped (e.g.
    /// Nanya solid patterns, footnote 1).
    pub cells: Vec<(Manufacturer, DataPattern, Option<Summary>)>,
    /// Fault-tolerance status of the sweeps behind this figure.
    pub sweep: SweepReport,
}

/// Runs the Fig. 5 experiment.
pub fn fig5(scale: &Scale) -> Fig5 {
    fig5_ckpt(scale, None)
}

/// [`fig5`] with an optional [`CheckpointStore`] (see [`fig4_ckpt`]).
pub fn fig5_ckpt(scale: &Scale, ckpt: Option<&CheckpointStore>) -> Fig5 {
    let _span = pud_observe::span("experiment.fig5");
    let ctx = ckpt.map(|s| RunCtx::new(s, "fig5"));
    let mut fleet = Fleet::build(scale.fleet);
    let mut sweep = SweepReport::default();
    let mut cells = Vec::new();
    for dp in DataPattern::TESTED {
        let recs = collect_hc(
            scale,
            &mut fleet,
            |c, v| PatternClass::ComraDs.kernel_for(c, v),
            DpSpec::Fixed(dp),
            &mut sweep,
            ctx.as_ref(),
        );
        for mfr in Manufacturer::ALL {
            let vals = hc_values(&recs, |r| r.mfr == mfr);
            cells.push((mfr, dp, Summary::from_values(&vals)));
        }
    }
    sweep.record_metrics();
    Fig5 { cells, sweep }
}

impl fmt::Display for Fig5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Fig. 5 — ds-CoMRA HC_first by aggressor data pattern",
            &["Mfr", "Pattern", "Min", "Median", "Mean", "Max", "n"],
        );
        for (mfr, dp, s) in &self.cells {
            match s {
                Some(s) => t.push_row(vec![
                    mfr.to_string(),
                    dp.to_string(),
                    fmt_hc(s.min),
                    fmt_hc(s.median),
                    fmt_hc(s.mean),
                    fmt_hc(s.max),
                    s.n.to_string(),
                ]),
                None => t.push_row(vec![
                    mfr.to_string(),
                    dp.to_string(),
                    "-".into(),
                    "no bitflips".into(),
                    "-".into(),
                    "-".into(),
                    "0".into(),
                ]),
            }
        }
        write!(f, "{t}")?;
        self.sweep.fmt_footer(f)
    }
}

/// Fig. 6: CoMRA HC_first distribution vs temperature.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// `(mfr, temperature, summary)` cells.
    pub cells: Vec<(Manufacturer, Celsius, Option<Summary>)>,
    /// Fault-tolerance status of the sweeps behind this figure.
    pub sweep: SweepReport,
}

/// Runs the Fig. 6 experiment.
pub fn fig6(scale: &Scale) -> Fig6 {
    fig6_ckpt(scale, None)
}

/// [`fig6`] with an optional [`CheckpointStore`] (see [`fig4_ckpt`]).
pub fn fig6_ckpt(scale: &Scale, ckpt: Option<&CheckpointStore>) -> Fig6 {
    let _span = pud_observe::span("experiment.fig6");
    let ctx = ckpt.map(|s| RunCtx::new(s, "fig6"));
    let mut fleet = Fleet::build(scale.fleet);
    let mut sweep = SweepReport::default();
    let mut cells = Vec::new();
    for temp in Celsius::TESTED {
        for chip in &mut fleet.chips {
            chip.set_env(TestEnv::characterization().at_temperature(temp));
        }
        let recs = collect_hc(
            scale,
            &mut fleet,
            |c, v| PatternClass::ComraDs.kernel_for(c, v),
            scale.dp_policy(PatternClass::ComraDs),
            &mut sweep,
            ctx.as_ref(),
        );
        for mfr in Manufacturer::ALL {
            let vals = hc_values(&recs, |r| r.mfr == mfr);
            cells.push((mfr, temp, Summary::from_values(&vals)));
        }
    }
    sweep.record_metrics();
    Fig6 { cells, sweep }
}

impl fmt::Display for Fig6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Fig. 6 — ds-CoMRA HC_first by temperature",
            &["Mfr", "Temp", "Min", "Median", "Mean", "Max"],
        );
        for (mfr, temp, s) in &self.cells {
            if let Some(s) = s {
                t.push_row(vec![
                    mfr.to_string(),
                    temp.to_string(),
                    fmt_hc(s.min),
                    fmt_hc(s.median),
                    fmt_hc(s.mean),
                    fmt_hc(s.max),
                ]);
            }
        }
        write!(f, "{t}")?;
        self.sweep.fmt_footer(f)
    }
}

/// Fig. 7: single-sided CoMRA vs single-sided and far double-sided
/// RowHammer.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// `(mfr, technique, summary, lowest)` rows.
    pub cells: Vec<(Manufacturer, &'static str, Option<Summary>)>,
    /// Per-victim paired measurements `(mfr, ss_comra, ss_rh, far_ds_rh)`
    /// over victims where all three techniques flipped in-window.
    pub pairs: Vec<(Manufacturer, f64, f64, f64)>,
    /// Fault-tolerance status of the sweeps behind this figure.
    pub sweep: SweepReport,
}

impl Fig7 {
    /// Paired mean HC_first of one technique column for a manufacturer
    /// (0 = ss-CoMRA, 1 = ss-RowHammer, 2 = far-ds-RowHammer).
    pub fn paired_mean(&self, mfr: Manufacturer, column: usize) -> Option<f64> {
        let vals: Vec<f64> = self
            .pairs
            .iter()
            .filter(|(m, _, _, _)| *m == mfr)
            .map(|&(_, a, b, c)| [a, b, c][column])
            .collect();
        if vals.is_empty() {
            return None;
        }
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

/// Runs the Fig. 7 experiment.
pub fn fig7(scale: &Scale) -> Fig7 {
    fig7_ckpt(scale, None)
}

/// [`fig7`] with an optional [`CheckpointStore`] (see [`fig4_ckpt`]).
pub fn fig7_ckpt(scale: &Scale, ckpt: Option<&CheckpointStore>) -> Fig7 {
    let _span = pud_observe::span("experiment.fig7");
    let ctx = ckpt.map(|s| RunCtx::new(s, "fig7"));
    let mut fleet = Fleet::build(scale.fleet);
    let techniques: [(&'static str, KernelFn); 3] = [
        ("ss-CoMRA", &|c, v| PatternClass::ComraSs.kernel_for(c, v)),
        ("ss-RowHammer", &|c, v| PatternClass::RhSs.kernel_for(c, v)),
        ("far-ds-RowHammer", &|c, v| {
            rowhammer_far_ds_for(c, v, DEFAULT_FAR_OFFSET)
        }),
    ];
    // All three are RowHammer/CoMRA-class kernels: one pattern policy.
    let dp = scale.dp_policy(PatternClass::RhSs);
    let mut sweep = SweepReport::default();
    let mut cells = Vec::new();
    let mut per_technique: Vec<Vec<Record>> = Vec::new();
    for (name, make) in techniques {
        let recs = collect_hc(scale, &mut fleet, make, dp, &mut sweep, ctx.as_ref());
        for mfr in Manufacturer::ALL {
            let vals = hc_values(&recs, |r| r.mfr == mfr);
            cells.push((mfr, name, Summary::from_values(&vals)));
        }
        per_technique.push(recs);
    }
    // Join the three sweeps on (chip, victim): victim order is
    // deterministic, but a quarantined chip may drop out of one sweep
    // only, so index-zipping could pair records across chips.
    let key = |r: &Record| (r.chip, r.victim.0);
    let ss_rh: HashMap<(usize, u32), u64> = per_technique[1]
        .iter()
        .filter_map(|r| r.hc.map(|h| (key(r), h)))
        .collect();
    let far_ds: HashMap<(usize, u32), u64> = per_technique[2]
        .iter()
        .filter_map(|r| r.hc.map(|h| (key(r), h)))
        .collect();
    let mut pairs = Vec::new();
    for a in &per_technique[0] {
        if let (Some(x), Some(&y), Some(&z)) = (a.hc, ss_rh.get(&key(a)), far_ds.get(&key(a))) {
            pairs.push((a.mfr, x as f64, y as f64, z as f64));
        }
    }
    sweep.record_metrics();
    Fig7 {
        cells,
        pairs,
        sweep,
    }
}

type KernelFn =
    &'static (dyn Fn(&pud_dram::Chip, pud_dram::RowAddr) -> Option<crate::patterns::Kernel> + Sync);

impl fmt::Display for Fig7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Fig. 7 — single-sided CoMRA vs RowHammer variants",
            &["Mfr", "Technique", "Lowest", "Median", "Mean"],
        );
        for (mfr, name, s) in &self.cells {
            if let Some(s) = s {
                t.push_row(vec![
                    mfr.to_string(),
                    (*name).to_string(),
                    fmt_hc(s.min),
                    fmt_hc(s.median),
                    fmt_hc(s.mean),
                ]);
            }
        }
        write!(f, "{t}")?;
        self.sweep.fmt_footer(f)
    }
}

/// The `t_AggOn` values swept by Figs. 8 and 17.
pub fn taggon_sweep() -> [Picos; 4] {
    [
        Picos::from_ns(36.0),
        Picos::from_ns(144.0),
        Picos::from_us(7.8),
        Picos::from_us(70.2),
    ]
}

/// Fig. 8: CoMRA vs RowPress across `t_AggOn`.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// `(mfr, technique, t_aggon, summary)` cells.
    pub cells: Vec<(Manufacturer, &'static str, Picos, Option<Summary>)>,
    /// Fault-tolerance status of the sweeps behind this figure.
    pub sweep: SweepReport,
}

/// Runs the Fig. 8 experiment.
pub fn fig8(scale: &Scale) -> Fig8 {
    fig8_ckpt(scale, None)
}

/// [`fig8`] with an optional [`CheckpointStore`] (see [`fig4_ckpt`]).
pub fn fig8_ckpt(scale: &Scale, ckpt: Option<&CheckpointStore>) -> Fig8 {
    let _span = pud_observe::span("experiment.fig8");
    let ctx = ckpt.map(|s| RunCtx::new(s, "fig8"));
    let mut fleet = Fleet::build(scale.fleet);
    let mut sweep = SweepReport::default();
    let mut cells = Vec::new();
    for t_on in taggon_sweep() {
        let comra = collect_hc(
            scale,
            &mut fleet,
            |c, v| {
                PatternClass::ComraDs
                    .kernel_for(c, v)
                    .map(|k| k.with_t_aggon(t_on))
            },
            scale.dp_policy(PatternClass::ComraDs),
            &mut sweep,
            ctx.as_ref(),
        );
        let press = collect_hc(
            scale,
            &mut fleet,
            |c, v| {
                PatternClass::RhDs
                    .kernel_for(c, v)
                    .map(|k| k.with_t_aggon(t_on))
            },
            scale.dp_policy(PatternClass::RhDs),
            &mut sweep,
            ctx.as_ref(),
        );
        for mfr in Manufacturer::ALL {
            cells.push((
                mfr,
                "CoMRA",
                t_on,
                Summary::from_values(&hc_values(&comra, |r| r.mfr == mfr)),
            ));
            cells.push((
                mfr,
                "RowPress",
                t_on,
                Summary::from_values(&hc_values(&press, |r| r.mfr == mfr)),
            ));
        }
    }
    sweep.record_metrics();
    Fig8 { cells, sweep }
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Fig. 8 — CoMRA vs RowPress across t_AggOn",
            &["Mfr", "Technique", "t_AggOn", "Min", "Mean"],
        );
        for (mfr, name, t_on, s) in &self.cells {
            if let Some(s) = s {
                t.push_row(vec![
                    mfr.to_string(),
                    (*name).to_string(),
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

/// Fig. 9: CoMRA HC_first vs the violated PRE→ACT latency.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// `(mfr, latency, summary)` cells.
    pub cells: Vec<(Manufacturer, Picos, Option<Summary>)>,
    /// Fault-tolerance status of the sweeps behind this figure.
    pub sweep: SweepReport,
}

/// Runs the Fig. 9 experiment.
pub fn fig9(scale: &Scale) -> Fig9 {
    fig9_ckpt(scale, None)
}

/// [`fig9`] with an optional [`CheckpointStore`] (see [`fig4_ckpt`]).
pub fn fig9_ckpt(scale: &Scale, ckpt: Option<&CheckpointStore>) -> Fig9 {
    let _span = pud_observe::span("experiment.fig9");
    let ctx = ckpt.map(|s| RunCtx::new(s, "fig9"));
    let mut fleet = Fleet::build(scale.fleet);
    let mut sweep = SweepReport::default();
    let mut cells = Vec::new();
    for delay_ns in [7.5, 9.0, 10.5, 12.0] {
        let delay = Picos::from_ns(delay_ns);
        let recs = collect_hc(
            scale,
            &mut fleet,
            |c, v| {
                PatternClass::ComraDs.kernel_for(c, v).map(|k| match k {
                    crate::patterns::Kernel::Comra {
                        src, dst, t_aggon, ..
                    } => crate::patterns::Kernel::Comra {
                        src,
                        dst,
                        pre_to_act: delay,
                        t_aggon,
                    },
                    other => other,
                })
            },
            scale.dp_policy(PatternClass::ComraDs),
            &mut sweep,
            ctx.as_ref(),
        );
        for mfr in Manufacturer::ALL {
            cells.push((
                mfr,
                delay,
                Summary::from_values(&hc_values(&recs, |r| r.mfr == mfr)),
            ));
        }
    }
    sweep.record_metrics();
    Fig9 { cells, sweep }
}

impl fmt::Display for Fig9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Fig. 9 — ds-CoMRA HC_first vs violated PRE→ACT latency",
            &["Mfr", "PRE→ACT", "Min", "Mean"],
        );
        for (mfr, d, s) in &self.cells {
            if let Some(s) = s {
                t.push_row(vec![
                    mfr.to_string(),
                    d.to_string(),
                    fmt_hc(s.min),
                    fmt_hc(s.mean),
                ]);
            }
        }
        write!(f, "{t}")?;
        self.sweep.fmt_footer(f)
    }
}

/// Fig. 10: effect of reversing the copy direction.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// Per-victim |percent change| for the double-sided pattern.
    pub ds_changes: Vec<f64>,
    /// Per-victim |percent change| for the single-sided pattern.
    pub ss_changes: Vec<f64>,
    /// Fault-tolerance status of the sweep behind this figure.
    pub sweep: SweepReport,
}

impl Fig10 {
    /// Mean absolute change for a side (`true` = double-sided).
    pub fn mean_abs_change(&self, double_sided: bool) -> f64 {
        let v = if double_sided {
            &self.ds_changes
        } else {
            &self.ss_changes
        };
        if v.is_empty() {
            return 0.0;
        }
        v.iter().map(|x| x.abs()).sum::<f64>() / v.len() as f64
    }

    /// Maximum change factor observed for a side.
    pub fn max_factor(&self, double_sided: bool) -> f64 {
        let v = if double_sided {
            &self.ds_changes
        } else {
            &self.ss_changes
        };
        v.iter()
            .map(|x| {
                let r = 1.0 + x / 100.0;
                r.max(1.0 / r.max(1e-9))
            })
            .fold(1.0, f64::max)
    }
}

/// Runs the Fig. 10 experiment. Chips are swept in parallel; within one
/// victim the reversed-direction search warm-starts from the forward
/// bracket (direction reversal moves HC_first by only a few percent, so
/// the bracket usually validates).
pub fn fig10(scale: &Scale) -> Fig10 {
    fig10_ckpt(scale, None)
}

/// [`fig10`] with an optional [`CheckpointStore`] (see [`fig4_ckpt`]).
pub fn fig10_ckpt(scale: &Scale, ckpt: Option<&CheckpointStore>) -> Fig10 {
    let _span = pud_observe::span("experiment.fig10");
    let ctx = ckpt.map(|s| RunCtx::new(s, "fig10"));
    let mut fleet = Fleet::build(scale.fleet);
    let dp = DpSpec::Fixed(DataPattern::CHECKER_55);
    let mut sweep = SweepReport::default();
    let per_chip = sweep_fleet(scale, &mut fleet, &mut sweep, ctx.as_ref(), |_, chip| {
        let mut ds_changes = Vec::new();
        let mut ss_changes = Vec::new();
        for victim in chip.victim_rows() {
            let pairs: [(Option<_>, Option<_>); 2] = [
                (
                    comra_ds_for(chip.exec().chip(), victim, false),
                    comra_ds_for(chip.exec().chip(), victim, true),
                ),
                (
                    comra_ss_for(chip.exec().chip(), victim, DEFAULT_FAR_OFFSET, false),
                    comra_ss_for(chip.exec().chip(), victim, DEFAULT_FAR_OFFSET, true),
                ),
            ];
            for (idx, (fwd, rev)) in pairs.into_iter().enumerate() {
                let (Some(fwd), Some(rev)) = (fwd, rev) else {
                    continue;
                };
                let mut warm = WarmStart::new();
                let (hf, _) = measure(scale, chip, &fwd, victim, dp, &mut warm);
                let (hr, _) = measure(scale, chip, &rev, victim, dp, &mut warm);
                if let (Some(a), Some(b)) = (hf, hr) {
                    let change = percent_change(b as f64, a as f64);
                    if idx == 0 {
                        ds_changes.push(change);
                    } else {
                        ss_changes.push(change);
                    }
                }
            }
        }
        (ds_changes, ss_changes)
    });
    let mut ds_changes = Vec::new();
    let mut ss_changes = Vec::new();
    for (ds, ss) in per_chip {
        ds_changes.extend(ds);
        ss_changes.extend(ss);
    }
    sweep.record_metrics();
    Fig10 {
        ds_changes,
        ss_changes,
        sweep,
    }
}

impl fmt::Display for Fig10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== Fig. 10 — HC_first change on copy-direction reversal =="
        )?;
        writeln!(
            f,
            "double-sided: mean |change| {:.2}% (paper 2.79%), max factor {:.2}x (paper up to 20.1x), n={}",
            self.mean_abs_change(true),
            self.max_factor(true),
            self.ds_changes.len()
        )?;
        writeln!(
            f,
            "single-sided: mean |change| {:.2}% (paper 0.40%), max factor {:.2}x (paper up to 2.39x), n={}",
            self.mean_abs_change(false),
            self.max_factor(false),
            self.ss_changes.len()
        )?;
        self.sweep.fmt_footer(f)
    }
}

/// Fig. 11: CoMRA HC_first by victim location in the subarray.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// `(mfr, region, summary)` cells.
    pub cells: Vec<(Manufacturer, SubarrayRegion, Option<Summary>)>,
    /// Fault-tolerance status of the sweep behind this figure.
    pub sweep: SweepReport,
}

impl Fig11 {
    /// Max/min ratio of region mean HC_first for a manufacturer.
    pub fn region_spread(&self, mfr: Manufacturer) -> f64 {
        let means: Vec<f64> = self
            .cells
            .iter()
            .filter(|(m, _, s)| *m == mfr && s.is_some())
            .map(|(_, _, s)| s.expect("filtered").mean)
            .collect();
        let max = means.iter().cloned().fold(f64::MIN, f64::max);
        let min = means.iter().cloned().fold(f64::MAX, f64::min);
        if means.is_empty() {
            1.0
        } else {
            max / min
        }
    }
}

/// Runs the Fig. 11 experiment.
pub fn fig11(scale: &Scale) -> Fig11 {
    fig11_ckpt(scale, None)
}

/// [`fig11`] with an optional [`CheckpointStore`] (see [`fig4_ckpt`]).
pub fn fig11_ckpt(scale: &Scale, ckpt: Option<&CheckpointStore>) -> Fig11 {
    let _span = pud_observe::span("experiment.fig11");
    let ctx = ckpt.map(|s| RunCtx::new(s, "fig11"));
    let mut fleet = Fleet::build(scale.fleet);
    let mut sweep = SweepReport::default();
    let recs: Vec<Record> = collect_hc(
        scale,
        &mut fleet,
        |c, v| PatternClass::ComraDs.kernel_for(c, v),
        scale.dp_policy(PatternClass::ComraDs),
        &mut sweep,
        ctx.as_ref(),
    );
    let mut cells = Vec::new();
    for mfr in Manufacturer::ALL {
        for region in SubarrayRegion::ALL {
            let vals = hc_values(&recs, |r| r.mfr == mfr && r.region == region);
            cells.push((mfr, region, Summary::from_values(&vals)));
        }
    }
    sweep.record_metrics();
    Fig11 { cells, sweep }
}

impl fmt::Display for Fig11 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Fig. 11 — ds-CoMRA HC_first by victim location in subarray",
            &["Mfr", "Region", "Min", "Mean", "n"],
        );
        for (mfr, region, s) in &self.cells {
            if let Some(s) = s {
                t.push_row(vec![
                    mfr.to_string(),
                    region.to_string(),
                    fmt_hc(s.min),
                    fmt_hc(s.mean),
                    s.n.to_string(),
                ]);
            }
        }
        write!(f, "{t}")?;
        for mfr in Manufacturer::ALL {
            writeln!(
                f,
                "{mfr}: region mean spread {:.2}x",
                self.region_spread(mfr)
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
    fn fig4_reproduces_observation_1_and_2() {
        let r = fig4(&tiny_scale());
        assert_eq!(r.lowest.len(), 4);
        for &(mfr, rh, comra) in &r.lowest {
            assert!(
                comra < rh,
                "{mfr}: CoMRA lowest {comra} must undercut RowHammer {rh}"
            );
        }
        // SK Hynix shows the largest reduction (13.98x in the paper).
        let sk = r
            .lowest
            .iter()
            .find(|(m, _, _)| *m == Manufacturer::SkHynix)
            .unwrap();
        assert!(sk.1 / sk.2 > 5.0, "SK Hynix reduction {:.2}", sk.1 / sk.2);
        // Observation 2: the vast majority of rows see a reduction.
        assert!(r.fraction_reduced > 0.9, "{}", r.fraction_reduced);
    }

    #[test]
    fn fig5_checkerboard_beats_solid_on_average() {
        let r = fig5(&tiny_scale());
        let mean_of = |mfr, dp| -> Option<f64> {
            r.cells
                .iter()
                .find(|(m, p, _)| *m == mfr && *p == dp)
                .and_then(|(_, _, s)| s.map(|s| s.mean))
        };
        let mfr = Manufacturer::Samsung;
        let checker = mean_of(mfr, DataPattern::CHECKER_55).unwrap();
        let solid = mean_of(mfr, DataPattern::ZEROS).unwrap();
        assert!(checker < solid, "checker {checker} vs solid {solid}");
        // Footnote 1: Nanya solid patterns produce no flips in-window.
        assert!(mean_of(Manufacturer::Nanya, DataPattern::ZEROS).is_none());
        assert!(mean_of(Manufacturer::Nanya, DataPattern::CHECKER_AA).is_some());
    }

    #[test]
    fn fig6_temperature_trends_match_observation_4() {
        let r = fig6(&tiny_scale());
        let mean_at = |mfr, temp: f64| -> f64 {
            r.cells
                .iter()
                .find(|(m, t, _)| *m == mfr && t.0 == temp)
                .and_then(|(_, _, s)| s.map(|s| s.mean))
                .unwrap()
        };
        // SK Hynix gets more vulnerable with temperature...
        assert!(mean_at(Manufacturer::SkHynix, 80.0) < mean_at(Manufacturer::SkHynix, 50.0));
        // ...while Micron goes the other way.
        assert!(mean_at(Manufacturer::Micron, 80.0) > mean_at(Manufacturer::Micron, 50.0));
    }

    #[test]
    fn fig8_rowpress_crossover_at_trefi() {
        // Observation 7: RowPress overtakes CoMRA only at tREFI.
        let r = fig8(&tiny_scale());
        let mean_of = |mfr, tech: &str, t: Picos| -> Option<f64> {
            r.cells
                .iter()
                .find(|(m, te, ton, _)| *m == mfr && *te == tech && *ton == t)
                .and_then(|(_, _, _, s)| s.map(|s| s.mean))
        };
        let mfr = Manufacturer::Micron;
        let t36 = Picos::from_ns(36.0);
        let trefi = Picos::from_us(7.8);
        let t702 = Picos::from_us(70.2);
        assert!(mean_of(mfr, "CoMRA", t36).unwrap() < mean_of(mfr, "RowPress", t36).unwrap());
        assert!(
            mean_of(mfr, "RowPress", trefi).unwrap() < mean_of(mfr, "CoMRA", trefi).unwrap(),
            "RowPress leads at tREFI"
        );
        // Observation 6: large reductions at 70.2us.
        let drop = mean_of(mfr, "CoMRA", t36).unwrap() / mean_of(mfr, "CoMRA", t702).unwrap();
        assert!(drop > 30.0, "CoMRA press drop {drop}");
    }

    #[test]
    fn fig9_hc_first_grows_with_pre_act_latency() {
        // Observation 8.
        let r = fig9(&tiny_scale());
        for mfr in Manufacturer::ALL {
            let means: Vec<f64> = [7.5, 9.0, 10.5, 12.0]
                .iter()
                .map(|&d| {
                    r.cells
                        .iter()
                        .find(|(m, delay, _)| *m == mfr && *delay == Picos::from_ns(d))
                        .and_then(|(_, _, s)| s.map(|s| s.mean))
                        .unwrap()
                })
                .collect();
            assert!(
                means.windows(2).all(|w| w[1] >= w[0] * 0.98),
                "{mfr}: {means:?}"
            );
            assert!(means[3] > means[0], "{mfr}: no increase");
        }
    }

    #[test]
    fn fig10_direction_reversal_is_mostly_small() {
        // Observation 9: average change a few percent.
        let r = fig10(&tiny_scale());
        assert!(!r.ds_changes.is_empty());
        assert!(r.mean_abs_change(true) < 8.0, "{}", r.mean_abs_change(true));
        assert!(r.max_factor(true) >= 1.0);
    }

    #[test]
    fn fig11_spatial_spread_and_vendor_shapes() {
        // Observations 10-11.
        let r = fig11(&tiny_scale());
        for mfr in Manufacturer::ALL {
            assert!(r.region_spread(mfr) >= 1.0);
        }
        assert!(r.region_spread(Manufacturer::Samsung) > 1.3);
        // At this tiny sample the per-family hero rows skew region means;
        // the per-vendor *shapes* are asserted at the calibration level
        // (calib::tests::spatial_ratios_reproduce_observation_10). Here we
        // only require data in several regions.
        let sk_regions = r
            .cells
            .iter()
            .filter(|(m, _, s)| *m == Manufacturer::SkHynix && s.is_some())
            .count();
        assert!(sk_regions >= 2, "need multiple populated regions");
    }

    #[test]
    fn fig7_ss_comra_tracks_far_ds_rowhammer() {
        let r = fig7(&tiny_scale());
        for mfr in Manufacturer::ALL {
            let Some(ss_comra) = r.paired_mean(mfr, 0) else {
                continue;
            };
            let ss_rh = r.paired_mean(mfr, 1).unwrap();
            let far = r.paired_mean(mfr, 2).unwrap();
            // Observation 5: ss-CoMRA beats ss-RowHammer and tracks far-ds.
            assert!(ss_comra < ss_rh, "{mfr}: {ss_comra} vs {ss_rh}");
            let ratio = ss_comra / far;
            assert!((0.8..1.2).contains(&ratio), "{mfr}: ratio {ratio}");
        }
        assert!(!r.pairs.is_empty());
    }
}
