//! Disturbance events: what one hammer cycle looks like from a victim row's
//! point of view.

use pud_dram::{BankId, Celsius, DataPattern, Picos, RowAddr, RowData};

/// The two flip-direction classes the model distinguishes.
///
/// RowHammer, RowPress, and CoMRA aggression share a class (weak 0→1 data
/// bias); SiMRA aggression forms its own class with the opposite, strongly
/// biased direction (Observation 14) and its own weakest-cell population
/// (the paper hypothesizes a different silicon-level mechanism, §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlipClass {
    /// RowHammer-like disturbance (dominant data direction 0→1).
    RowHammer,
    /// SiMRA disturbance (dominant data direction 1→0).
    Simra,
}

impl FlipClass {
    /// Fraction of weak cells flipping in the class's dominant direction.
    pub fn dominant_fraction(self) -> f64 {
        match self {
            FlipClass::RowHammer => crate::calib::RH_DOMINANT_FRACTION,
            FlipClass::Simra => crate::calib::SIMRA_DOMINANT_FRACTION,
        }
    }

    /// The data value a dominant-direction flip *starts from* (source bit).
    pub fn dominant_source_bit(self) -> bool {
        match self {
            FlipClass::RowHammer => false, // 0 → 1
            FlipClass::Simra => true,      // 1 → 0
        }
    }

    /// Eligible-cell fraction at the reference (worst-case data pattern)
    /// condition, used to normalize the eligibility factor to 1.0.
    pub fn reference_eligibility(self) -> f64 {
        match self {
            // WCDP victim is a checkerboard: half the bits can move each way.
            FlipClass::RowHammer => 0.5,
            // WCDP victim is 0xFF: every dominant-direction cell can flip.
            FlipClass::Simra => crate::calib::SIMRA_DOMINANT_FRACTION,
        }
    }
}

/// The access pattern producing the aggression, as seen by one victim row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggressionKind {
    /// Single-sided RowHammer (`ACT a – PRE` loop, one adjacent aggressor).
    RowHammerSingle,
    /// Double-sided RowHammer (victim sandwiched by alternating aggressors).
    RowHammerDouble,
    /// Far double-sided RowHammer: two aggressors far apart, victim
    /// adjacent to one of them (Fig. 7's comparison pattern; the aggressor's
    /// `t_AggOFF` is effectively doubled).
    RowHammerFarDouble,
    /// Double-sided CoMRA (in-DRAM copy pair sandwiching the victim,
    /// Fig. 3a).
    ComraDouble {
        /// The violated PRE→ACT latency (7.5 ns nominal attack value).
        pre_to_act: Picos,
        /// Whether the copy direction is reversed (dst → src), Fig. 10.
        reversed: bool,
    },
    /// Single-sided CoMRA (src and dst far apart, victim adjacent to one,
    /// Fig. 3b).
    ComraSingle {
        /// The violated PRE→ACT latency.
        pre_to_act: Picos,
        /// Whether the copy direction is reversed.
        reversed: bool,
    },
    /// Double-sided SiMRA: the victim is sandwiched between two
    /// simultaneously activated rows (Fig. 12a).
    SimraDouble {
        /// Number of simultaneously activated rows (2, 4, 8, 16, or 32).
        n_rows: u8,
        /// ACT→PRE delay of the ACT‑PRE‑ACT sequence.
        act_to_pre: Picos,
        /// PRE→ACT delay of the ACT‑PRE‑ACT sequence.
        pre_to_act: Picos,
    },
    /// Single-sided SiMRA: the victim neighbours the activated group
    /// without being sandwiched (Fig. 12b).
    SimraSingle {
        /// Number of simultaneously activated rows.
        n_rows: u8,
        /// ACT→PRE delay.
        act_to_pre: Picos,
        /// PRE→ACT delay.
        pre_to_act: Picos,
    },
}

impl AggressionKind {
    /// The flip class this aggression charges.
    ///
    /// Only *sandwiched* SiMRA victims experience the SiMRA mechanism;
    /// non-sandwiched neighbours of a SiMRA group see RowHammer-like
    /// disturbance (Fig. 16's single-sided SiMRA behaves like a somewhat
    /// stronger single-sided RowHammer).
    pub fn flip_class(self) -> FlipClass {
        match self {
            AggressionKind::SimraDouble { .. } => FlipClass::Simra,
            _ => FlipClass::RowHammer,
        }
    }

    /// Whether this is a CoMRA variant.
    pub fn is_comra(self) -> bool {
        matches!(
            self,
            AggressionKind::ComraDouble { .. } | AggressionKind::ComraSingle { .. }
        )
    }

    /// Whether this is a SiMRA variant.
    pub fn is_simra(self) -> bool {
        matches!(
            self,
            AggressionKind::SimraDouble { .. } | AggressionKind::SimraSingle { .. }
        )
    }
}

/// Leading bits of a row that [`DataSummary::from_row`] samples.
const SUMMARY_BITS: u32 = 512;

/// Summary statistics of aggressor-row contents that modulate coupling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataSummary {
    /// Fraction of bits set to one.
    pub ones_fraction: f64,
    /// Fraction of adjacent bit pairs that differ (1.0 for a perfect
    /// checkerboard, 0.0 for a solid pattern).
    pub checker_fraction: f64,
}

impl DataSummary {
    /// Summarizes actual row contents (samples up to the first 512 bits —
    /// patterns are byte-periodic so this is exact for pattern fills).
    ///
    /// Counts a whole word at a time ([`RowData::ones_and_toggles`]). The
    /// integer counts equal [`DataSummary::from_row_per_bit`]'s, so both
    /// fractions are bit-equal to the per-bit reference.
    pub fn from_row(row: &RowData) -> DataSummary {
        let n = row.cols().min(SUMMARY_BITS);
        let (ones, toggles) = row.ones_and_toggles(n);
        DataSummary::from_counts(ones, toggles, n)
    }

    /// [`DataSummary::from_row`] one bit at a time: the reference the
    /// uncached engine path and the executor's interpreter oracle run on.
    pub fn from_row_per_bit(row: &RowData) -> DataSummary {
        let n = row.cols().min(SUMMARY_BITS);
        let mut ones = 0u32;
        let mut toggles = 0u32;
        let mut prev = row.bit(0);
        if prev {
            ones += 1;
        }
        for c in 1..n {
            let b = row.bit(c);
            if b {
                ones += 1;
            }
            if b != prev {
                toggles += 1;
            }
            prev = b;
        }
        DataSummary::from_counts(ones, toggles, n)
    }

    /// The summary of `n` sampled bits holding `ones` ones and `toggles`
    /// adjacent-pair toggles.
    fn from_counts(ones: u32, toggles: u32, n: u32) -> DataSummary {
        DataSummary {
            ones_fraction: f64::from(ones) / f64::from(n),
            checker_fraction: f64::from(toggles) / f64::from(n - 1),
        }
    }

    /// Summarizes a repeating one-byte fill pattern.
    pub fn from_pattern(pattern: DataPattern) -> DataSummary {
        let byte = pattern.0;
        let toggles = (0..7u32)
            .filter(|&i| ((byte >> i) & 1) != ((byte >> (i + 1)) & 1))
            .count() as f64
            + if ((byte >> 7) & 1) != (byte & 1) {
                1.0
            } else {
                0.0
            };
        DataSummary {
            ones_fraction: pattern.ones_fraction(),
            checker_fraction: toggles / 8.0,
        }
    }

    /// A quantized fingerprint for keying per-row jitters.
    pub(crate) fn fingerprint(&self) -> u64 {
        let o = (self.ones_fraction * 16.0).round() as u64;
        let c = (self.checker_fraction * 16.0).round() as u64;
        (o << 8) | c
    }
}

/// One batch of identical hammer cycles applied to one victim row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HammerEvent {
    /// Bank containing the victim.
    pub bank: BankId,
    /// Physical address of the victim row.
    pub victim: RowAddr,
    /// The aggression pattern.
    pub kind: AggressionKind,
    /// How long the aggressor row(s) stay open per cycle (`t_AggOn`;
    /// nominal value is `t_RAS` = 36 ns — larger values are RowPress-style
    /// aggression, Fig. 8/17).
    pub t_aggon: Picos,
    /// Chip temperature during the aggression.
    pub temperature: Celsius,
    /// Contents of the aggressor row(s).
    pub aggressor_data: DataSummary,
    /// Physical distance between the victim and its nearest aggressor
    /// (1 = immediately adjacent).
    pub distance: u32,
    /// Number of identical hammer cycles in this batch.
    pub repeat: u64,
}

impl HammerEvent {
    /// A convenience constructor for the common reference conditions
    /// (80 °C, `t_AggOn = t_RAS`, distance 1).
    pub fn reference(
        bank: BankId,
        victim: RowAddr,
        kind: AggressionKind,
        aggressor_data: DataSummary,
        repeat: u64,
    ) -> HammerEvent {
        HammerEvent {
            bank,
            victim,
            kind,
            t_aggon: Picos::from_ns(crate::calib::T_RAS_NS),
            temperature: Celsius::DEFAULT_TEST,
            aggressor_data,
            distance: 1,
            repeat,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_have_opposite_directions() {
        assert!(!FlipClass::RowHammer.dominant_source_bit());
        assert!(FlipClass::Simra.dominant_source_bit());
    }

    #[test]
    fn simra_double_is_its_own_class() {
        let ds = AggressionKind::SimraDouble {
            n_rows: 4,
            act_to_pre: Picos::from_ns(3.0),
            pre_to_act: Picos::from_ns(3.0),
        };
        let ss = AggressionKind::SimraSingle {
            n_rows: 4,
            act_to_pre: Picos::from_ns(3.0),
            pre_to_act: Picos::from_ns(3.0),
        };
        assert_eq!(ds.flip_class(), FlipClass::Simra);
        assert_eq!(ss.flip_class(), FlipClass::RowHammer);
        assert!(ds.is_simra() && ss.is_simra());
        assert!(!ds.is_comra());
    }

    #[test]
    fn pattern_summaries() {
        let s = DataSummary::from_pattern(DataPattern::CHECKER_55);
        assert_eq!(s.ones_fraction, 0.5);
        assert_eq!(s.checker_fraction, 1.0);
        let s = DataSummary::from_pattern(DataPattern::ZEROS);
        assert_eq!(s.ones_fraction, 0.0);
        assert_eq!(s.checker_fraction, 0.0);
        let s = DataSummary::from_pattern(DataPattern(0x0F));
        assert_eq!(s.ones_fraction, 0.5);
        assert_eq!(s.checker_fraction, 0.25);
    }

    #[test]
    fn row_summary_matches_pattern_summary() {
        for p in DataPattern::TESTED {
            let row = RowData::filled(1024, p);
            let a = DataSummary::from_row(&row);
            let b = DataSummary::from_pattern(p);
            assert!((a.ones_fraction - b.ones_fraction).abs() < 0.01, "{p}");
            assert!(
                (a.checker_fraction - b.checker_fraction).abs() < 0.01,
                "{p}"
            );
        }
    }

    #[test]
    fn word_parallel_summary_matches_the_per_bit_reference() {
        let random = |cols: u32, seed: u64| {
            let mut row = RowData::filled(cols, DataPattern::ZEROS);
            for c in 0..cols {
                let word = crate::rng::mix_all(&[seed, u64::from(c / 64)]);
                row.set_bit(c, (word >> (c % 64)) & 1 == 1);
            }
            row
        };
        for cols in [1, 2, 63, 64, 65, 127, 128, 511, 512, 513, 8192] {
            let bases = [
                RowData::filled(cols, DataPattern::ZEROS),
                RowData::filled(cols, DataPattern::ONES),
                RowData::filled(cols, DataPattern::CHECKER_55),
                random(cols, 1),
                random(cols, 2),
            ];
            for base in bases {
                let mut rows = vec![base.clone()];
                for dissent in [0, 63, 64, 511].into_iter().filter(|&c| c < cols) {
                    let mut row = base.clone();
                    row.flip_bit(dissent);
                    rows.push(row);
                }
                for row in rows {
                    let fast = DataSummary::from_row(&row);
                    let slow = DataSummary::from_row_per_bit(&row);
                    // Width 1 has no adjacent pair: both give 0 / 0 = NaN.
                    assert_eq!(
                        fast.ones_fraction.to_bits(),
                        slow.ones_fraction.to_bits(),
                        "ones, {cols} columns"
                    );
                    assert_eq!(
                        fast.checker_fraction.to_bits(),
                        slow.checker_fraction.to_bits(),
                        "toggles, {cols} columns"
                    );
                }
            }
        }
    }

    #[test]
    fn fingerprints_distinguish_patterns() {
        let a = DataSummary::from_pattern(DataPattern::ZEROS).fingerprint();
        let b = DataSummary::from_pattern(DataPattern::CHECKER_55).fingerprint();
        let c = DataSummary::from_pattern(DataPattern::ONES).fingerprint();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }
}
