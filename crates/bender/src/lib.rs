//! DRAM Bender analog: command-level DDR4 test infrastructure.
//!
//! This crate reproduces the role of the paper's FPGA-based DRAM Bender
//! setup (§3.1): test programs are sequences of DDR4 commands with explicit
//! picosecond delays, and *deliberately violating* those delays is what
//! unlocks Processing-using-DRAM behaviour:
//!
//! - `ACT src – tRAS – PRE – ~7.5 ns – ACT dst` performs an in-DRAM copy
//!   (CoMRA / RowClone, Fig. 3c);
//! - `ACT r1 – ~3 ns – PRE – ~3 ns – ACT r2` simultaneously activates a
//!   whole row group (SiMRA, Fig. 12c) on chips that support it.
//!
//! The [`Executor`] compiles command streams and replays them against the
//! `pud-dram` device model, feeds the `pud-disturb` engine with per-victim
//! hammer events (detecting single-/double-sided patterns from the
//! activation history), and reports every bitflip.
//!
//! # Example: hammering a victim with CoMRA
//!
//! ```
//! use pud_bender::{ops, Executor};
//! use pud_dram::{profiles, BankId, ChipGeometry, DataPattern, Picos, RowAddr};
//!
//! let profile = &profiles::TESTED_MODULES[1]; // SK Hynix 8Gb A-die
//! let mut exec = Executor::new(profile, ChipGeometry::scaled_for_tests(), 0, 42);
//! let bank = BankId(0);
//! // Aggressors at physical rows 20 and 22 sandwich physical row 21.
//! let src = exec.chip().to_logical(RowAddr(20));
//! let dst = exec.chip().to_logical(RowAddr(22));
//! for row in 19..=23 {
//!     exec.write_row(bank, exec.chip().to_logical(RowAddr(row)), DataPattern::CHECKER_AA);
//! }
//! exec.write_row(bank, src, DataPattern::CHECKER_55);
//! exec.write_row(bank, dst, DataPattern::CHECKER_55);
//! let program = ops::comra(bank, src, dst, Picos::from_ns(7.5), ops::t_ras(), 500_000);
//! let report = exec.run(&program);
//! assert!(!report.flips.is_empty(), "500K CoMRA cycles exceed any HC_first");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod command;
mod compile;
mod env;
mod error;
mod executor;
pub mod fault;
pub mod ops;
mod program;
pub mod simra_decode;

pub use command::{DramCommand, TimedCommand};
pub use env::TestEnv;
pub use error::ExecError;
pub use executor::{ActivityObserver, Executor, FaultCarry, FlipRecord, LoopForecast, RunReport};
pub use program::{Step, TestProgram};

/// Process-wide cooperative cancellation probe, registered once by a
/// supervising layer (see `pudhammer::fleet::supervisor`).
static CANCEL_CHECK: std::sync::OnceLock<fn()> = std::sync::OnceLock::new();

/// Registers a cancellation probe the [`Executor`] invokes at safe points:
/// at the start of every program run and periodically (every few thousand
/// commands) inside long command streams. The probe signals cancellation
/// by panicking with a caller-defined payload; the caller's own unwind
/// machinery is expected to catch it. The first registration wins — later
/// calls are ignored, keeping the probe a process-lifetime constant.
pub fn set_cancel_check(probe: fn()) {
    let _ = CANCEL_CHECK.set(probe);
}

/// Invokes the registered cancellation probe, if any.
pub(crate) fn cancel_check() {
    if let Some(probe) = CANCEL_CHECK.get() {
        probe();
    }
}
