//! Benchmark logic that does not itself drive the system under test:
//! seeded input streams, percentiles, output digests, the Table 2 fit
//! error, an in-memory span recorder and `/proc` readings.
//!
//! The workload runners live in the binary (`src/main.rs`, `src/campaign.rs`,
//! `src/serve_load.rs`); everything here is unit-tested.

pub mod calib;
pub mod digest;
pub mod keys;
pub mod paper;
pub mod procfs;
pub mod spans;
pub mod stats;

/// The 21 driver targets of a campaign, in `repro all` order.
pub const TARGETS: [&str; 21] = [
    "table2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig13", "fig14",
    "fig15", "fig16", "fig17", "fig18", "fig19", "fig21", "fig22", "fig23", "fig24", "fig25",
];

/// Fleet seeds with recorded reference outputs: the library default and
/// one held-out seed that no calibration used.
pub const FLEET_SEEDS: [u64; 2] = [0x005A_FA11, 0x0BE7_5EED];

/// The fleet seed a campaign workload runs with: the workload seed selects
/// one of [`FLEET_SEEDS`].
pub fn fleet_seed_for(workload_seed: u64) -> u64 {
    FLEET_SEEDS[(workload_seed % FLEET_SEEDS.len() as u64) as usize]
}
