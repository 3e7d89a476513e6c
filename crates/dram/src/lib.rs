//! Behavioural DDR4 DRAM device model for the PuDHammer reproduction.
//!
//! This crate provides the *substrate* the characterization study runs on:
//! the hierarchical organization of a DDR4 module (module → rank → chip →
//! bank → subarray → row → cell), logical-to-physical row address mapping,
//! true-/anti-cell layouts, per-row data storage, and the metadata of the 40
//! DRAM modules (316 chips) the paper tests (Tables 1 and 2).
//!
//! The model is purely behavioural: it stores row contents, tracks which row
//! of which bank is open, and exposes the geometry/mapping facts that the
//! paper's methodology reverse engineers. The read-disturbance *physics* is
//! deliberately not here — it lives in `pud-disturb` — so that this crate can
//! be reused as a plain functional DRAM model.
//!
//! # Example
//!
//! ```
//! use pud_dram::{Chip, ChipGeometry, DataPattern, profiles};
//!
//! let profile = &profiles::TESTED_MODULES[0];
//! let geometry = ChipGeometry::scaled_for_tests();
//! let mut chip = Chip::new(geometry, profile.mapping(), profile.cell_layout());
//! let bank = chip.bank_mut(0.into()).unwrap();
//! bank.fill_row(3.into(), DataPattern::CHECKER_55);
//! assert_eq!(bank.row(3.into()).unwrap().byte(0), 0x55);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank;
mod cells;
mod chip;
pub mod ecc;
mod error;
mod geometry;
mod hash;
mod mapping;
pub mod profiles;
mod row;
mod types;

pub use bank::{Bank, RowSlot};
pub use cells::CellLayout;
pub use chip::Chip;
pub use error::DramError;
pub use geometry::{ChipGeometry, SubarrayRegion};
pub use hash::{FastHasher, FastMap};
pub use mapping::RowMapping;
pub use profiles::ModuleProfile;
pub use row::RowData;
pub use types::{
    BankId, Celsius, ChipDensity, ChipOrg, DataPattern, DieRevision, Manufacturer, Picos, RowAddr,
    SubarrayId,
};

/// Result alias used across the DRAM model.
pub type Result<T> = std::result::Result<T, DramError>;
