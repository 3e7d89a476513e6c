//! Tables 1/2: the tested module fleet with measured minimum/average
//! HC_first for double-sided RowHammer, CoMRA, and SiMRA, side by side with
//! the paper's reported anchors.

use std::fmt;

use pud_dram::DataPattern;
use pud_observe::json::JsonObject;
use pud_observe::JsonValue;

use crate::experiments::{measure, DpSpec, Scale};
use crate::fleet::checkpoint::CheckpointStore;
use crate::fleet::sweep::{SweepOutcome, SweepReport};
use crate::fleet::Fleet;
use crate::hcfirst::WarmStart;
use crate::patterns::PatternClass;
use crate::report::{fmt_hc, Table};

/// Measured `(min, avg)` HC_first of one technique on one family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinAvg {
    /// Minimum across tested victims.
    pub min: f64,
    /// Average across tested victims.
    pub avg: f64,
}

impl MinAvg {
    fn from_values(values: &[f64]) -> Option<MinAvg> {
        if values.is_empty() {
            return None;
        }
        Some(MinAvg {
            min: values.iter().copied().fold(f64::MAX, f64::min),
            avg: values.iter().sum::<f64>() / values.len() as f64,
        })
    }
}

/// One family's row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// The module family.
    pub profile: &'static pud_dram::ModuleProfile,
    /// Measured RowHammer min/avg.
    pub rowhammer: Option<MinAvg>,
    /// Measured CoMRA min/avg.
    pub comra: Option<MinAvg>,
    /// Measured SiMRA min/avg (SiMRA-capable families only).
    pub simra: Option<MinAvg>,
    /// Why the family's chip was quarantined, if it was: its measurement
    /// columns are unavailable and render as `QUARANTINED`.
    pub quarantined: Option<String>,
}

/// The reproduced Table 2.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Rows in Table 2 order.
    pub rows: Vec<Table2Row>,
    /// Fault-tolerance status of the fleet sweep.
    pub sweep: SweepReport,
}

/// Runs the Table 2 reproduction. Chips are swept in parallel per
/// [`Scale::threads`]; rows come back in fleet (Table 2) order regardless.
pub fn table2(scale: &Scale) -> Table2 {
    table2_ckpt(scale, None)
}

/// [`table2`] with an optional [`CheckpointStore`]: families already in the
/// checkpoint are decoded instead of re-measured, and freshly measured
/// families are appended to it as they complete. Quarantined families are
/// never recorded, so a resume retries them.
pub fn table2_ckpt(scale: &Scale, ckpt: Option<&CheckpointStore>) -> Table2 {
    let _span = pud_observe::span("experiment.table2");
    let mut fleet = Fleet::build(scale.fleet);
    let cap = (scale.fleet.victims_per_subarray as usize) * 6;
    let threads = scale.sweep_threads(fleet.chips.len());
    let families: Vec<(&'static pud_dram::ModuleProfile, u32)> = fleet
        .chips
        .iter()
        .map(|c| (c.profile, c.chip_index))
        .collect();
    let (outcomes, sweep) = crate::fleet::sweep::sweep_isolated(
        threads,
        scale.sweep_policy(),
        &mut fleet.chips,
        |_, chip| {
            if chip.chip_index != 0 {
                return None;
            }
            if let Some(ckpt) = ckpt {
                if let Some(row) = ckpt
                    .lookup(CHECKPOINT_STAGE, &chip.label())
                    .and_then(|data| decode_row(chip.profile, data))
                {
                    crate::fleet::supervisor::record_resumed();
                    return Some(row);
                }
            }
            let mut rh_vals = Vec::new();
            let mut comra_vals = Vec::new();
            for victim in chip.victim_rows() {
                for (class, vals) in [
                    (PatternClass::RhDs, &mut rh_vals),
                    (PatternClass::ComraDs, &mut comra_vals),
                ] {
                    let Some(k) = class.kernel_for(chip.exec().chip(), victim) else {
                        continue;
                    };
                    let dp = DpSpec::Fixed(class.default_dp());
                    if let (Some(h), _) =
                        measure(scale, chip, &k, victim, dp, &mut WarmStart::new())
                    {
                        vals.push(h as f64);
                    }
                }
            }
            let mut simra_vals = Vec::new();
            if chip.profile.supports_simra() {
                let dp = DpSpec::Fixed(DataPattern::ZEROS);
                for n in crate::experiments::simra::DS_GROUP_SIZES {
                    for (kernel, victim) in crate::experiments::simra::ds_targets(chip, n, cap) {
                        if let (Some(h), _) =
                            measure(scale, chip, &kernel, victim, dp, &mut WarmStart::new())
                        {
                            simra_vals.push(h as f64);
                        }
                    }
                }
            }
            let row = Table2Row {
                profile: chip.profile,
                rowhammer: MinAvg::from_values(&rh_vals),
                comra: MinAvg::from_values(&comra_vals),
                simra: MinAvg::from_values(&simra_vals),
                quarantined: None,
            };
            if let Some(ckpt) = ckpt {
                ckpt.record(CHECKPOINT_STAGE, &chip.label(), &encode_row(&row));
            }
            Some(row)
        },
    );
    let mut rows = Vec::new();
    for (outcome, (profile, chip_index)) in outcomes.into_iter().zip(families) {
        match outcome {
            SweepOutcome::Done(Some(row)) => rows.push(row),
            SweepOutcome::Done(None) => {}
            SweepOutcome::Quarantined(err) => {
                if chip_index == 0 {
                    rows.push(Table2Row {
                        profile,
                        rowhammer: None,
                        comra: None,
                        simra: None,
                        quarantined: Some(err.message),
                    });
                }
            }
            // A cancelled or skipped family's row is simply absent from
            // the partial table (the sweep footer says why for failed
            // shards; out-of-shard units belong to another worker); it was
            // never recorded, so a resume or merge re-measures it.
            SweepOutcome::Cancelled(_) | SweepOutcome::Skipped(_) => {}
        }
    }
    sweep.record_metrics();
    Table2 { rows, sweep }
}

/// Stage label under which Table 2 rows are checkpointed.
const CHECKPOINT_STAGE: &str = "table2";

fn encode_ma(obj: JsonObject, key: &str, m: &Option<MinAvg>) -> JsonObject {
    match m {
        Some(m) => obj.raw(
            key,
            &JsonObject::new()
                .f64("min", m.min)
                .f64("avg", m.avg)
                .finish(),
        ),
        None => obj.raw(key, "null"),
    }
}

fn encode_row(row: &Table2Row) -> String {
    let obj = JsonObject::new();
    let obj = encode_ma(obj, "rowhammer", &row.rowhammer);
    let obj = encode_ma(obj, "comra", &row.comra);
    let obj = encode_ma(obj, "simra", &row.simra);
    obj.finish()
}

fn decode_ma(v: &JsonValue, key: &str) -> Option<Option<MinAvg>> {
    let field = v.get(key)?;
    if matches!(field, JsonValue::Null) {
        return Some(None);
    }
    Some(Some(MinAvg {
        min: field.get("min")?.as_f64()?,
        avg: field.get("avg")?.as_f64()?,
    }))
}

fn decode_row(profile: &'static pud_dram::ModuleProfile, v: &JsonValue) -> Option<Table2Row> {
    Some(Table2Row {
        profile,
        rowhammer: decode_ma(v, "rowhammer")?,
        comra: decode_ma(v, "comra")?,
        simra: decode_ma(v, "simra")?,
        quarantined: None,
    })
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Table 2 — measured vs paper min (avg) HC_first",
            &[
                "Family",
                "Mfr",
                "Die",
                "Den.",
                "RH meas",
                "RH paper",
                "CoMRA meas",
                "CoMRA paper",
                "SiMRA meas",
                "SiMRA paper",
            ],
        );
        let fmt_ma = |m: &Option<MinAvg>| {
            m.map_or("-".to_string(), |m| {
                format!("{} ({})", fmt_hc(m.min), fmt_hc(m.avg))
            })
        };
        let fmt_anchor =
            |a: &pud_dram::profiles::HcAnchor| format!("{} ({})", fmt_hc(a.min), fmt_hc(a.avg));
        for row in &self.rows {
            let p = row.profile;
            let meas = |m: &Option<MinAvg>| {
                if row.quarantined.is_some() {
                    "QUARANTINED".to_string()
                } else {
                    fmt_ma(m)
                }
            };
            t.push_row(vec![
                p.module_id.to_string(),
                p.chip_vendor.to_string(),
                p.die_rev.to_string(),
                p.density.to_string(),
                meas(&row.rowhammer),
                fmt_anchor(&p.rowhammer),
                meas(&row.comra),
                fmt_anchor(&p.comra),
                meas(&row.simra),
                p.simra.as_ref().map_or("N/A".into(), fmt_anchor),
            ]);
        }
        write!(f, "{t}")?;
        self.sweep.fmt_footer(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_minimums_track_the_anchors() {
        let mut scale = Scale::quick();
        scale.fleet.victims_per_subarray = 1;
        let t = table2(&scale);
        assert_eq!(t.rows.len(), 14);
        for row in &t.rows {
            let p = row.profile;
            let rh = row.rowhammer.expect("RowHammer always measurable");
            // The hero row pins the family minimum near the anchor.
            let ratio = rh.min / p.rowhammer.min;
            assert!(
                (0.4..3.0).contains(&ratio),
                "{}: measured RH min {} vs anchor {}",
                p.module_id,
                rh.min,
                p.rowhammer.min
            );
            let comra = row.comra.expect("CoMRA always measurable");
            assert!(
                comra.min < rh.min,
                "{}: CoMRA min must undercut RowHammer",
                p.module_id
            );
            assert_eq!(row.simra.is_some(), p.supports_simra(), "{}", p.module_id);
            if let Some(s) = row.simra {
                let anchor = p.simra.unwrap();
                assert!(
                    s.min < anchor.min * 20.0,
                    "{}: SiMRA min {} far from anchor {}",
                    p.module_id,
                    s.min,
                    anchor.min
                );
            }
        }
    }
}
