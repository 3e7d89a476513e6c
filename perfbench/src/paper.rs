//! `paper_err`: the model's fit error against the paper's Table 2.
//!
//! The anchors (`ModuleProfile::{rowhammer,comra,simra}.min`) are the
//! model's calibration inputs, so this is fit error, not validation on
//! held-out data.

use pudhammer::experiments::table2::Table2Row;

/// Mean of |log10(measured min / paper min)| over every Table 2 min-HC_first
/// cell that has both a measurement and a paper anchor; `None` when no cell
/// qualifies.
pub fn paper_err(rows: &[Table2Row]) -> Option<f64> {
    let mut sum = 0.0;
    let mut cells = 0usize;
    for row in rows {
        let p = row.profile;
        let pairs = [
            (row.rowhammer, Some(p.rowhammer)),
            (row.comra, Some(p.comra)),
            (row.simra, p.simra),
        ];
        for (measured, anchor) in pairs {
            if let (Some(m), Some(a)) = (measured, anchor) {
                if m.min > 0.0 && a.min > 0.0 {
                    sum += (m.min / a.min).log10().abs();
                    cells += 1;
                }
            }
        }
    }
    (cells > 0).then(|| sum / cells as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pud_dram::profiles::TESTED_MODULES;
    use pudhammer::experiments::table2::MinAvg;

    fn min(v: f64) -> Option<MinAvg> {
        Some(MinAvg { min: v, avg: v })
    }

    #[test]
    fn hand_built_row() {
        // The first family supports SiMRA: anchors 38 450 / 447 / 585.
        let p = &TESTED_MODULES[0];
        let row = Table2Row {
            profile: p,
            rowhammer: min(p.rowhammer.min * 10.0),
            comra: min(p.comra.min),
            simra: min(p.simra.expect("SiMRA-capable").min / 100.0),
            quarantined: None,
        };
        // |log10 10| = 1, |log10 1| = 0, |log10 0.01| = 2 → mean 1.
        let err = paper_err(std::slice::from_ref(&row)).expect("three cells");
        assert!((err - 1.0).abs() < 1e-12, "{err}");
    }

    #[test]
    fn missing_measurements_and_anchors_are_skipped() {
        let no_simra = TESTED_MODULES
            .iter()
            .find(|p| !p.supports_simra())
            .expect("a family without SiMRA");
        let row = Table2Row {
            profile: no_simra,
            rowhammer: min(no_simra.rowhammer.min * 100.0),
            comra: None,
            simra: min(1.0),
            quarantined: Some("quarantined".to_string()),
        };
        let err = paper_err(std::slice::from_ref(&row)).expect("one cell");
        assert!((err - 2.0).abs() < 1e-12, "{err}");
        let empty = Table2Row {
            rowhammer: None,
            simra: None,
            ..row
        };
        assert_eq!(paper_err(&[empty]), None);
    }
}
