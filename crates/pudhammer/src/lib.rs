//! PuDHammer: characterization of read-disturbance effects of
//! Processing-using-DRAM operations — the core library of the
//! reproduction.
//!
//! The paper demonstrates, on 316 real DDR4 chips, that multiple-row
//! activation (the primitive behind in-DRAM copy and bitwise operations)
//! drastically exacerbates DRAM read disturbance. This crate implements the
//! complete characterization methodology on top of the simulated substrate:
//!
//! - [`patterns`] — victim-centric construction of RowHammer / RowPress /
//!   CoMRA / SiMRA hammering kernels, including the SiMRA group search,
//!   and the pattern-class vocabulary the drivers and the server share;
//! - [`hcfirst`] — the HC_first bisection algorithm (§4.2);
//! - [`wcdp`] — worst-case data pattern search;
//! - [`rev_eng`] — reverse engineering of subarray boundaries, physical
//!   row adjacency, and SiMRA row groups (§3.2, §5.2);
//! - [`fleet`] — the simulated 40-module / 316-chip test fleet, with a
//!   deterministic work-stealing parallel sweep engine ([`fleet::sweep`]),
//!   per-driver checkpoint/resume ([`fleet::checkpoint`]), and a campaign
//!   supervisor for deadlines and cooperative cancellation
//!   ([`fleet::supervisor`]);
//! - [`experiments`] — one function per table/figure of the paper;
//! - [`serve`] — characterization-as-a-service: the durable profile store
//!   and fault-hardened TCP query server behind `repro serve`;
//! - [`stats`] / [`report`] — distribution summaries and text rendering.
//!
//! # Example: measuring HC_first under CoMRA vs RowHammer
//!
//! ```
//! use pudhammer::fleet::{Fleet, FleetConfig};
//! use pudhammer::hcfirst::{measure_hc_first, HcSearch};
//! use pudhammer::patterns::{comra_ds_for, rowhammer_ds_for};
//! use pud_dram::DataPattern;
//!
//! let mut fleet = Fleet::build(FleetConfig::quick());
//! let chip = &mut fleet.chips[1]; // SK Hynix 8Gb A-die
//! let bank = chip.bank();
//! let victim = chip.victim_rows()[0];
//! let search = HcSearch::default();
//! let rh = rowhammer_ds_for(chip.exec().chip(), victim).unwrap();
//! let comra = comra_ds_for(chip.exec().chip(), victim, false).unwrap();
//! let dp = DataPattern::CHECKER_55;
//! let hc_rh = measure_hc_first(chip.exec(), bank, &rh, victim, dp, dp.negated(), &search);
//! let hc_comra =
//!     measure_hc_first(chip.exec(), bank, &comra, victim, dp, dp.negated(), &search);
//! assert!(hc_comra.unwrap() < hc_rh.unwrap(), "Observation 1");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fleet;
pub mod hcfirst;
pub mod patterns;
pub mod report;
pub mod rev_eng;
pub mod serve;
pub mod stats;
pub mod wcdp;
