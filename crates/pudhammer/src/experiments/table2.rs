//! Tables 1/2: the tested module fleet with measured minimum/average
//! HC_first for double-sided RowHammer, CoMRA, and SiMRA, side by side with
//! the paper's reported anchors.

use std::fmt;

use pud_dram::DataPattern;
use pud_observe::json::JsonObject;
use pud_observe::JsonValue;

use crate::experiments::{measure, resume_or_run, DpSpec, Scale};
use crate::fleet::checkpoint::{CheckpointStore, Codec};
use crate::fleet::sweep::{SweepOutcome, SweepReport};
use crate::fleet::{ChipUnderTest, Fleet};
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
/// checkpoint are decoded instead of re-measured, freshly measured
/// families are appended to it as they complete, and the store is
/// committed at the sweep barrier. Quarantined families are never
/// recorded, so a resume retries them.
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
            let stage = ckpt.map(|store| (store, CHECKPOINT_STAGE));
            let columns = resume_or_run(stage, &chip.label(), || measure_columns(scale, chip, cap));
            Some(Table2Row {
                profile: chip.profile,
                rowhammer: columns.rowhammer,
                comra: columns.comra,
                simra: columns.simra,
                quarantined: None,
            })
        },
    );
    if let Some(store) = ckpt {
        store.commit();
    }
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

/// The measured columns of one Table 2 row: what its checkpoint record
/// holds (the family comes from the chip it was measured on).
struct Columns {
    rowhammer: Option<MinAvg>,
    comra: Option<MinAvg>,
    simra: Option<MinAvg>,
}

/// Measures one family's columns on its chip 0: RowHammer and CoMRA on
/// every victim, SiMRA on up to `cap` groups per size when the family
/// supports it.
fn measure_columns(scale: &Scale, chip: &mut ChipUnderTest, cap: usize) -> Columns {
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
            if let (Some(h), _) = measure(scale, chip, &k, victim, dp, &mut WarmStart::new()) {
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
    Columns {
        rowhammer: MinAvg::from_values(&rh_vals),
        comra: MinAvg::from_values(&comra_vals),
        simra: MinAvg::from_values(&simra_vals),
    }
}

/// Stage label under which Table 2 rows are checkpointed.
const CHECKPOINT_STAGE: &str = "table2";

/// `{"min":…,"avg":…}` in decimal: `json::number` prints the shortest
/// round-trip-exact form, so the values decode bit for bit.
impl Codec for MinAvg {
    fn encode(&self) -> String {
        JsonObject::new()
            .f64("min", self.min)
            .f64("avg", self.avg)
            .finish()
    }

    fn decode(v: &JsonValue) -> Option<MinAvg> {
        Some(MinAvg {
            min: v.get("min")?.as_f64()?,
            avg: v.get("avg")?.as_f64()?,
        })
    }
}

/// `{"rowhammer":…,"comra":…,"simra":…}`, `null` for a column the family
/// cannot measure.
impl Codec for Columns {
    fn encode(&self) -> String {
        JsonObject::new()
            .raw("rowhammer", &self.rowhammer.encode())
            .raw("comra", &self.comra.encode())
            .raw("simra", &self.simra.encode())
            .finish()
    }

    fn decode(v: &JsonValue) -> Option<Columns> {
        Some(Columns {
            rowhammer: Codec::decode(v.get("rowhammer")?)?,
            comra: Codec::decode(v.get("comra")?)?,
            simra: Codec::decode(v.get("simra")?)?,
        })
    }
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

    /// The bytes a row's checkpoint record holds.
    fn encode_row(row: &Table2Row) -> String {
        Columns {
            rowhammer: row.rowhammer,
            comra: row.comra,
            simra: row.simra,
        }
        .encode()
    }

    #[test]
    fn checkpoint_rows_encode_to_pinned_bytes() {
        // Decimal floats (round-trip exact), `null` for a column the
        // family cannot measure.
        let row = Table2Row {
            profile: pud_dram::profiles::most_simra_vulnerable(),
            rowhammer: Some(MinAvg {
                min: 25_000.0,
                avg: 31_337.25,
            }),
            comra: Some(MinAvg {
                min: 1_234.0,
                avg: 0.1 + 0.2,
            }),
            simra: None,
            quarantined: None,
        };
        assert_eq!(
            encode_row(&row),
            "{\"rowhammer\":{\"min\":25000,\"avg\":31337.25},\
             \"comra\":{\"min\":1234,\"avg\":0.30000000000000004},\"simra\":null}"
        );
    }

    #[test]
    fn the_sweep_barrier_commits_the_store() {
        let mut scale = Scale::quick();
        scale.fleet.victims_per_subarray = 1;
        let path = std::env::temp_dir().join(format!("pud-table2-barrier-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let header = crate::fleet::checkpoint::CheckpointHeader {
            target: "table2".to_string(),
            scale: "quick".to_string(),
            fingerprint: scale.fleet.fingerprint(),
            fault_seed: None,
            shard: None,
        };
        let store = CheckpointStore::open(&path, header).expect("create");
        table2_ckpt(&scale, Some(&store));
        let swept = std::fs::read(&path).expect("read");
        store.commit();
        assert!(store.take_write_error().is_none(), "commit must succeed");
        assert_eq!(
            std::fs::read(&path).expect("reread"),
            swept,
            "the sweep left its records committed (sorted)"
        );
        let _ = std::fs::remove_file(&path);
    }

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
