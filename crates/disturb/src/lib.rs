//! Calibrated DRAM read-disturbance engine for the PuDHammer reproduction.
//!
//! This crate substitutes for the physical read-disturbance behaviour of the
//! paper's 316 DDR4 chips. It is *phenomenological*: instead of simulating
//! charge transport, it samples per-row vulnerability from distributions
//! calibrated to Table 2 and modulates per-hammer "effective disturbance"
//! through factor curves anchored to the paper's 26 Observations (see
//! [`calib`] for the anchor-by-anchor mapping).
//!
//! # Model summary
//!
//! - Each victim row has two weakest-cell thresholds, one per
//!   [`FlipClass`]: RowHammer-like disturbance (shared by RowHammer,
//!   RowPress, and CoMRA) and SiMRA disturbance, which the paper shows has
//!   the opposite flip direction and different temperature behaviour (§5.3).
//! - Each hammer cycle adds a weight to the victim's class accumulator; the
//!   weight is the product of calibrated factors (access pattern, timing,
//!   temperature, data pattern, on-time, spatial region).
//! - The i-th weakest cell of a row flips when effective progress reaches
//!   `t · i^(1/beta)`; which *data* flips depends on the stored value and
//!   the class's direction mix, which is what makes data patterns matter.
//! - Cross-class coupling reproduces the paper's §6 combined-pattern
//!   results; restoring a row (activation/refresh/rewrite) clears its
//!   accumulators, which is what TRR exploits (§7).
//!
//! # Example
//!
//! ```
//! use pud_disturb::{AggressionKind, DataSummary, DisturbEngine, HammerEvent};
//! use pud_dram::{profiles, BankId, ChipGeometry, DataPattern, RowAddr, RowData};
//!
//! let profile = &profiles::TESTED_MODULES[1]; // SK Hynix 8Gb A-die
//! let mut engine = DisturbEngine::new(profile, ChipGeometry::scaled_for_tests(), 0, 42);
//! let mut victim = RowData::filled(1024, DataPattern::CHECKER_AA);
//! let event = HammerEvent::reference(
//!     BankId(0),
//!     RowAddr(10),
//!     AggressionKind::RowHammerDouble,
//!     DataSummary::from_pattern(DataPattern::CHECKER_55),
//!     500_000,
//! );
//! let mut flips = Vec::new();
//! engine.hammer(&event, &mut victim, &mut flips);
//! assert!(!flips.is_empty(), "500K double-sided hammers exceed any HC_first");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod calib;
mod curve;
mod engine;
mod event;
pub mod rng;
mod vuln;

pub use batch::BatchStats;
pub use curve::{solve_mu_for_inverse_mean, LogLogCurve};
pub use engine::{Bitflip, DisturbEngine, RecordId, SideHistory, VictimForecast};
pub use event::{AggressionKind, DataSummary, FlipClass, HammerEvent};
pub use vuln::{RowVuln, VulnModel};
