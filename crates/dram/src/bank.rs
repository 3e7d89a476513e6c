//! Bank model: sparse row storage plus open-row state.

use std::collections::hash_map::Entry;

use crate::error::DramError;
use crate::geometry::ChipGeometry;
use crate::hash::FastMap;
use crate::row::RowData;
use crate::types::{DataPattern, RowAddr};
use crate::Result;

/// One DRAM bank: a set of rows (materialized lazily) and the state of the
/// local row buffer.
///
/// Row addresses at this level are *physical* — the chip applies the
/// logical-to-physical mapping before touching the bank, mirroring how the
/// row decoder sits between the address bus and the wordlines.
#[derive(Debug, Clone)]
pub struct Bank {
    geometry: ChipGeometry,
    /// Materialized rows in order of first write; `slots` maps a physical
    /// row to its index. Rows are never removed but by [`Bank::reset`],
    /// so an index stays valid for the bank's generation.
    rows: Vec<RowData>,
    slots: FastMap<RowAddr, u32>,
    /// Bumped by [`Bank::reset`]: slots handed out before it are stale.
    generation: u32,
    open: Vec<RowAddr>,
}

/// A stable handle to a materialized row of one bank, valid until the
/// bank is [`Bank::reset`]: reaching the row through it costs no map probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowSlot {
    generation: u32,
    index: u32,
}

impl Bank {
    /// Creates an empty bank with the given geometry.
    pub fn new(geometry: ChipGeometry) -> Bank {
        Bank {
            geometry,
            rows: Vec::new(),
            slots: FastMap::default(),
            generation: 0,
            open: Vec::new(),
        }
    }

    /// The bank's geometry.
    pub fn geometry(&self) -> &ChipGeometry {
        &self.geometry
    }

    /// The contents of physical row `row`, if it has been written.
    pub fn row(&self, row: RowAddr) -> Option<&RowData> {
        self.slots.get(&row).map(|&i| &self.rows[i as usize])
    }

    /// The slot of physical row `row`, if it has been written.
    pub fn slot(&self, row: RowAddr) -> Option<RowSlot> {
        self.slots.get(&row).map(|&index| RowSlot {
            generation: self.generation,
            index,
        })
    }

    /// The slot of physical row `row`, materializing the row filled with
    /// `default` if it has never been written.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn slot_or(&mut self, row: RowAddr, default: DataPattern) -> RowSlot {
        self.check_row(row).expect("row out of range");
        let index = match self.slots.entry(row) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                self.rows
                    .push(RowData::filled(self.geometry.cols_per_row, default));
                *e.insert(self.rows.len() as u32 - 1)
            }
        };
        RowSlot {
            generation: self.generation,
            index,
        }
    }

    /// Whether `slot` still refers to a row of this bank (no
    /// [`Bank::reset`] since it was handed out).
    pub fn holds(&self, slot: RowSlot) -> bool {
        slot.generation == self.generation
    }

    /// The row behind `slot`, or `None` if the slot is stale.
    pub fn row_at(&self, slot: RowSlot) -> Option<&RowData> {
        self.rows
            .get(slot.index as usize)
            .filter(|_| self.holds(slot))
    }

    /// Mutable access to the row behind `slot`, or `None` if the slot is
    /// stale.
    pub fn row_at_mut(&mut self, slot: RowSlot) -> Option<&mut RowData> {
        if !self.holds(slot) {
            return None;
        }
        self.rows.get_mut(slot.index as usize)
    }

    /// Mutable access to physical row `row`, materializing it filled with
    /// `default` if it has never been written.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_mut_or(&mut self, row: RowAddr, default: DataPattern) -> &mut RowData {
        let slot = self.slot_or(row, default);
        &mut self.rows[slot.index as usize]
    }

    /// Overwrites physical row `row` with the repeating `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn fill_row(&mut self, row: RowAddr, pattern: DataPattern) {
        self.check_row(row).expect("row out of range");
        self.put(row, RowData::filled(self.geometry.cols_per_row, pattern));
    }

    /// Overwrites physical row `row` with explicit data.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfRange`] if `row` is out of range and
    /// [`DramError::WidthMismatch`] if `data` has the wrong number of
    /// columns.
    pub fn write_row(&mut self, row: RowAddr, data: RowData) -> Result<()> {
        self.check_row(row)?;
        if data.cols() != self.geometry.cols_per_row {
            return Err(DramError::WidthMismatch {
                expected: self.geometry.cols_per_row,
                actual: data.cols(),
            });
        }
        self.put(row, data);
        Ok(())
    }

    /// Stores `data` as physical row `row`, in its slot if it has one.
    fn put(&mut self, row: RowAddr, data: RowData) {
        match self.slots.entry(row) {
            Entry::Occupied(e) => self.rows[*e.get() as usize] = data,
            Entry::Vacant(e) => {
                e.insert(self.rows.len() as u32);
                self.rows.push(data);
            }
        }
    }

    /// The set of rows currently latched in the sense amplifiers.
    ///
    /// Under nominal operation this is zero or one row; multiple-row
    /// activation latches several.
    pub fn open_rows(&self) -> &[RowAddr] {
        &self.open
    }

    /// Records that `rows` are now activated (replacing any previous set).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfRange`] if any row is out of range.
    pub fn activate(&mut self, rows: &[RowAddr]) -> Result<()> {
        for &r in rows {
            self.check_row(r)?;
        }
        self.open.clear();
        self.open.extend_from_slice(rows);
        Ok(())
    }

    /// Closes the bank (precharge).
    pub fn precharge(&mut self) {
        self.open.clear();
    }

    /// Number of rows that have been materialized.
    pub fn touched_rows(&self) -> usize {
        self.rows.len()
    }

    /// Drops all materialized rows and closes the bank. Every [`RowSlot`]
    /// handed out before goes stale.
    pub fn reset(&mut self) {
        self.rows.clear();
        self.slots.clear();
        self.generation = self.generation.wrapping_add(1);
        self.open.clear();
    }

    fn check_row(&self, row: RowAddr) -> Result<()> {
        if row.0 >= self.geometry.rows_per_bank() {
            return Err(DramError::RowOutOfRange {
                row,
                limit: self.geometry.rows_per_bank(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> Bank {
        Bank::new(ChipGeometry::scaled_for_tests())
    }

    #[test]
    fn fill_and_read() {
        let mut b = bank();
        assert!(b.row(RowAddr(0)).is_none());
        b.fill_row(RowAddr(0), DataPattern::CHECKER_AA);
        assert!(b
            .row(RowAddr(0))
            .unwrap()
            .matches_pattern(DataPattern::CHECKER_AA));
        assert_eq!(b.touched_rows(), 1);
    }

    #[test]
    fn row_mut_or_materializes_default() {
        let mut b = bank();
        b.row_mut_or(RowAddr(3), DataPattern::ONES)
            .set_bit(0, false);
        assert!(!b.row(RowAddr(3)).unwrap().bit(0));
        assert!(b.row(RowAddr(3)).unwrap().bit(1));
    }

    #[test]
    fn write_row_validates_width() {
        let mut b = bank();
        let narrow = RowData::filled(8, DataPattern::ZEROS);
        assert!(matches!(
            b.write_row(RowAddr(0), narrow),
            Err(DramError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn out_of_range_row_rejected() {
        let mut b = bank();
        let limit = b.geometry().rows_per_bank();
        assert!(matches!(
            b.write_row(
                RowAddr(limit),
                RowData::filled(b.geometry().cols_per_row, DataPattern::ZEROS)
            ),
            Err(DramError::RowOutOfRange { .. })
        ));
        assert!(b.activate(&[RowAddr(limit)]).is_err());
    }

    #[test]
    fn activate_and_precharge() {
        let mut b = bank();
        b.activate(&[RowAddr(1), RowAddr(2)]).unwrap();
        assert_eq!(b.open_rows(), &[RowAddr(1), RowAddr(2)]);
        b.precharge();
        assert!(b.open_rows().is_empty());
    }

    #[test]
    fn reset_clears_everything() {
        let mut b = bank();
        b.fill_row(RowAddr(0), DataPattern::ZEROS);
        b.activate(&[RowAddr(0)]).unwrap();
        b.reset();
        assert_eq!(b.touched_rows(), 0);
        assert!(b.open_rows().is_empty());
    }

    #[test]
    fn slots_follow_rewrites_and_go_stale_on_reset() {
        let mut b = bank();
        assert!(b.slot(RowAddr(4)).is_none());
        let slot = b.slot_or(RowAddr(4), DataPattern::ONES);
        assert_eq!(b.slot(RowAddr(4)), Some(slot));
        b.fill_row(RowAddr(4), DataPattern::CHECKER_AA);
        assert!(b
            .row_at(slot)
            .unwrap()
            .matches_pattern(DataPattern::CHECKER_AA));
        b.row_at_mut(slot).unwrap().set_bit(0, false);
        assert!(!b.row(RowAddr(4)).unwrap().bit(0));
        b.reset();
        assert!(!b.holds(slot));
        assert!(b.row_at(slot).is_none() && b.row_at_mut(slot).is_none());
        // The slot's index is reused by the next row; the stale handle
        // still reads nothing.
        b.fill_row(RowAddr(9), DataPattern::ONES);
        assert!(b.row_at(slot).is_none());
        assert!(b.holds(b.slot(RowAddr(9)).unwrap()));
    }
}
