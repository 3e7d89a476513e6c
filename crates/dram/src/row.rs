//! Per-row data storage.

use crate::types::DataPattern;

/// The data contents of one DRAM row, stored as a packed bit vector.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RowData {
    words: Vec<u64>,
    cols: u32,
}

impl RowData {
    /// Creates a row of `cols` bits filled with `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is zero.
    pub fn filled(cols: u32, pattern: DataPattern) -> RowData {
        assert!(cols > 0, "a row must have at least one column");
        let byte = pattern.0;
        let word = u64::from_le_bytes([byte; 8]);
        let n_words = cols.div_ceil(64) as usize;
        let mut row = RowData {
            words: vec![word; n_words],
            cols,
        };
        row.mask_tail();
        row
    }

    /// Number of columns (bits) in the row.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// The bit stored at column `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn bit(&self, col: u32) -> bool {
        assert!(col < self.cols, "column out of range");
        (self.words[(col / 64) as usize] >> (col % 64)) & 1 == 1
    }

    /// Sets the bit at column `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn set_bit(&mut self, col: u32, value: bool) {
        assert!(col < self.cols, "column out of range");
        let w = &mut self.words[(col / 64) as usize];
        let mask = 1u64 << (col % 64);
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Flips the bit at column `col`, returning the new value.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn flip_bit(&mut self, col: u32) -> bool {
        let v = !self.bit(col);
        self.set_bit(col, v);
        v
    }

    /// The byte starting at bit offset `8 * index` (little-endian bit order).
    ///
    /// # Panics
    ///
    /// Panics if the byte is out of range.
    pub fn byte(&self, index: u32) -> u8 {
        assert!(index * 8 + 7 < self.cols, "byte out of range");
        let word = self.words[(index / 8) as usize];
        (word >> ((index % 8) * 8)) as u8
    }

    /// Number of bit positions at which `self` and `other` differ.
    ///
    /// # Panics
    ///
    /// Panics if the rows have different widths.
    pub fn diff_count(&self, other: &RowData) -> u32 {
        assert_eq!(self.cols, other.cols, "rows must have equal widths");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// Columns at which `self` and `other` differ.
    ///
    /// # Panics
    ///
    /// Panics if the rows have different widths.
    pub fn diff_columns(&self, other: &RowData) -> Vec<u32> {
        assert_eq!(self.cols, other.cols, "rows must have equal widths");
        let mut cols = Vec::new();
        for (i, (a, b)) in self.words.iter().zip(&other.words).enumerate() {
            let mut x = a ^ b;
            while x != 0 {
                let bit = x.trailing_zeros();
                cols.push(i as u32 * 64 + bit);
                x &= x - 1;
            }
        }
        cols
    }

    /// Ones and adjacent-bit toggles among the first `n` columns, as
    /// `(ones, toggles)`: a popcount of each word masked to the prefix,
    /// and a popcount of `w ^ (w >> 1)` for the toggles inside a word plus
    /// the one carried across each word boundary.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the row width.
    pub fn ones_and_toggles(&self, n: u32) -> (u32, u32) {
        assert!(n > 0 && n <= self.cols, "prefix out of range");
        let mut ones = 0;
        let mut toggles = 0;
        // The bit before column 0 reads as column 0 itself: no toggle.
        let mut prev_top = self.words[0] & 1;
        for (i, &word) in self.words[..n.div_ceil(64) as usize].iter().enumerate() {
            let bits = (n - 64 * i as u32).min(64);
            let mask = u64::MAX >> (64 - bits);
            let w = word & mask;
            ones += w.count_ones();
            toggles += ((w ^ (w >> 1)) & (mask >> 1)).count_ones();
            toggles += ((prev_top ^ w) & 1) as u32;
            prev_top = w >> (bits - 1);
        }
        (ones, toggles)
    }

    /// Whether every bit matches the repeating `pattern`.
    pub fn matches_pattern(&self, pattern: DataPattern) -> bool {
        *self == RowData::filled(self.cols, pattern)
    }

    /// Bitwise majority of three equally wide rows, the analog outcome of a
    /// three-row simultaneous activation (MAJ3).
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn majority3(a: &RowData, b: &RowData, c: &RowData) -> RowData {
        assert!(
            a.cols == b.cols && b.cols == c.cols,
            "rows must have equal widths"
        );
        let words = a
            .words
            .iter()
            .zip(&b.words)
            .zip(&c.words)
            .map(|((&x, &y), &z)| (x & y) | (y & z) | (x & z))
            .collect();
        RowData {
            words,
            cols: a.cols,
        }
    }

    /// Bitwise majority across an odd number of equally wide rows.
    ///
    /// This models the charge-sharing outcome of N-row simultaneous
    /// activation used for MAJ5/MAJ7/MAJ9 and, with constant inputs, for
    /// multi-input AND/OR (§2.3).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty, has an even length, or widths differ.
    pub fn majority(rows: &[&RowData]) -> RowData {
        assert!(!rows.is_empty(), "majority needs at least one row");
        RowData::majority_with_zeros(rows[0].cols, rows, 0)
    }

    /// Bitwise majority of `rows` plus `zeros` further all-zero rows, all
    /// `cols` columns wide.
    ///
    /// An all-zero row adds no votes, so rows that were never written take
    /// part in the vote without being materialized.
    ///
    /// The count is bit-sliced: each column's vote total is held across
    /// bit-planes (bit `j` of every column's total lives in plane `j`, one
    /// `u64` per 64 columns), each row is added with a ripple carry, and the
    /// totals are compared with the threshold one plane at a time. That
    /// costs O(n·log n) word operations per 64 columns instead of 64·n bit
    /// tests, in loops over whole rows that the compiler vectorizes.
    ///
    /// # Panics
    ///
    /// Panics if there are no rows at all, if `rows.len() + zeros` is even,
    /// or if any row is not `cols` wide.
    pub fn majority_with_zeros(cols: u32, rows: &[&RowData], zeros: usize) -> RowData {
        let n = rows.len() + zeros;
        assert!(n > 0, "majority needs at least one row");
        assert!(n % 2 == 1, "majority needs an odd number of rows");
        assert!(
            rows.iter().all(|r| r.cols == cols),
            "rows must have equal widths"
        );
        let planes_for = |count: usize| (usize::BITS - count.leading_zeros()) as usize;
        let mut out = RowData::filled(cols, DataPattern::ZEROS);
        let width = out.words.len();
        let mut planes = vec![0u64; planes_for(n) * width];
        let mut carry = vec![0u64; width];
        for (i, r) in rows.iter().enumerate() {
            carry.copy_from_slice(&r.words);
            // After i + 1 rows no total needs more than planes_for(i + 1)
            // bits, so the carry dies out by then.
            for plane in planes.chunks_exact_mut(width).take(planes_for(i + 1)) {
                for (p, c) in plane.iter_mut().zip(&mut carry) {
                    let next = *p & *c;
                    *p ^= *c;
                    *c = next;
                }
            }
        }
        // total > threshold, decided from the most significant plane down:
        // a column is greater once it has a 1 where the threshold has a 0
        // and every higher plane was equal.
        let threshold = n / 2;
        let mut equal = vec![!0u64; width];
        for (j, plane) in planes.chunks_exact(width).enumerate().rev() {
            if (threshold >> j) & 1 == 1 {
                for (e, &p) in equal.iter_mut().zip(plane) {
                    *e &= p;
                }
            } else {
                for ((g, e), &p) in out.words.iter_mut().zip(&mut equal).zip(plane) {
                    *g |= *e & p;
                    *e &= !p;
                }
            }
        }
        out.mask_tail();
        out
    }

    fn mask_tail(&mut self) {
        let rem = self.cols % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_patterns() {
        let r = RowData::filled(128, DataPattern::CHECKER_55);
        assert!(r.bit(0));
        assert!(!r.bit(1));
        assert_eq!(r.byte(0), 0x55);
        assert!(r.matches_pattern(DataPattern::CHECKER_55));
        assert!(!r.matches_pattern(DataPattern::CHECKER_AA));
    }

    #[test]
    fn non_word_aligned_width() {
        let r = RowData::filled(70, DataPattern::ONES);
        assert_eq!(r.cols(), 70);
        assert!(r.bit(69));
        // Tail bits beyond `cols` are masked so equality works.
        assert!(r.matches_pattern(DataPattern::ONES));
    }

    #[test]
    fn set_and_flip_bits() {
        let mut r = RowData::filled(64, DataPattern::ZEROS);
        r.set_bit(5, true);
        assert!(r.bit(5));
        assert!(!r.flip_bit(5));
        assert!(!r.bit(5));
        assert!(r.flip_bit(63));
    }

    #[test]
    fn diff_count_and_columns() {
        let a = RowData::filled(128, DataPattern::ZEROS);
        let mut b = a.clone();
        b.set_bit(3, true);
        b.set_bit(100, true);
        assert_eq!(a.diff_count(&b), 2);
        assert_eq!(a.diff_columns(&b), vec![3, 100]);
    }

    #[test]
    fn majority3_truth_table() {
        let zeros = RowData::filled(64, DataPattern::ZEROS);
        let ones = RowData::filled(64, DataPattern::ONES);
        let checker = RowData::filled(64, DataPattern::CHECKER_AA);
        assert_eq!(RowData::majority3(&zeros, &zeros, &ones), zeros);
        assert_eq!(RowData::majority3(&ones, &zeros, &ones), ones);
        assert_eq!(RowData::majority3(&checker, &ones, &zeros), checker);
    }

    #[test]
    fn majority_n_matches_majority3() {
        let a = RowData::filled(64, DataPattern::CHECKER_AA);
        let b = RowData::filled(64, DataPattern::ONES);
        let c = RowData::filled(64, DataPattern::ZEROS);
        assert_eq!(
            RowData::majority(&[&a, &b, &c]),
            RowData::majority3(&a, &b, &c)
        );
    }

    #[test]
    fn majority5_requires_three_votes() {
        let ones = RowData::filled(8, DataPattern::ONES);
        let zeros = RowData::filled(8, DataPattern::ZEROS);
        let out = RowData::majority(&[&ones, &ones, &zeros, &zeros, &zeros]);
        assert_eq!(out, zeros);
        let out = RowData::majority(&[&ones, &ones, &ones, &zeros, &zeros]);
        assert_eq!(out, ones);
    }

    #[test]
    #[should_panic(expected = "odd number")]
    fn majority_rejects_even_inputs() {
        let r = RowData::filled(8, DataPattern::ZEROS);
        let _ = RowData::majority(&[&r, &r]);
    }

    #[test]
    #[should_panic(expected = "column out of range")]
    fn bit_bounds_checked() {
        let r = RowData::filled(8, DataPattern::ZEROS);
        let _ = r.bit(8);
    }
}
