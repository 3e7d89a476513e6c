//! Deterministic fault injection for fleet campaigns.
//!
//! Real DRAM Bender campaigns over hundreds of chips routinely hit flaky
//! boards, transient command failures, and outlier chips. This module
//! reproduces that operational reality *deterministically*: a seeded
//! [`FaultConfig`] assigns each chip (identified by its module-family key
//! and chip index, nothing else) a [`FaultPlan`] — a fixed schedule of
//! faults derived through the same SplitMix64 mixer the disturbance model
//! uses (`pud_disturb::rng`), so the exact same failures reproduce at any
//! thread count, on any platform, from the seed alone.
//!
//! Fault taxonomy:
//!
//! - **Transient** (retryable): a command timeout, a bus glitch corrupting
//!   a read burst, or a spurious ACT drop. Each fires exactly once, at a
//!   scheduled lifetime command ordinal, and aborts the running program
//!   with [`ExecError::Fault`](crate::ExecError::Fault). Transient faults
//!   mutate no device state, so a retried measurement reproduces the
//!   fault-free value exactly.
//! - **Permanent**: a chip that goes *dead* after N commands (every
//!   subsequent command fails — the fleet sweep quarantines it), or
//!   *stuck-at cells* whose bits are forced after every write (the chip
//!   keeps running but behaves like the outlier modules real campaigns
//!   discard).
//!
//! Enable injection with the `PUD_FAULT_SEED` environment variable or the
//! `repro --fault-seed` flag.
//!
//! Only faults of the chip and its board live here. The campaign's other
//! drills sit next to the code they break: checkpoint storage faults in
//! `pudhammer::fleet::checkpoint`, shard-worker abort/hang faults in
//! `pudhammer::fleet::shard`, and the chaos client in the `repro` binary.

use pud_disturb::rng::{mix_all, unit};
use pud_dram::ChipGeometry;

/// Environment variable enabling fault injection (a `u64` seed).
pub const FAULT_SEED_ENV: &str = "PUD_FAULT_SEED";

/// Domain-separation salt so fault draws never correlate with the
/// disturbance model's draws from the same seed.
const FAULT_SALT: u64 = 0xFA17_5EED_0000_0001;

/// The kinds of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The board stopped acknowledging a command (transient).
    CommandTimeout,
    /// A bus glitch corrupted an in-flight read burst (transient).
    BusGlitch,
    /// An ACT command was dropped on the bus (transient).
    ActDrop,
    /// The chip stopped responding entirely after N commands (permanent).
    ChipDead,
    /// Cells stuck at fixed values (permanent; the chip keeps running).
    StuckCells,
}

impl FaultKind {
    /// Stable lowercase name (used in metrics, traces, and errors).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::CommandTimeout => "command_timeout",
            FaultKind::BusGlitch => "bus_glitch",
            FaultKind::ActDrop => "act_drop",
            FaultKind::ChipDead => "chip_dead",
            FaultKind::StuckCells => "stuck_cells",
        }
    }

    /// Whether a retry can succeed (the fault fires once and is consumed).
    pub fn is_transient(self) -> bool {
        matches!(
            self,
            FaultKind::CommandTimeout | FaultKind::BusGlitch | FaultKind::ActDrop
        )
    }
}

/// Seeded fault-injection configuration for a whole fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// The campaign fault seed — every fault derives from it.
    pub seed: u64,
    /// Per-mille probability that a chip draws transient faults.
    pub transient_permille: u32,
    /// Per-mille probability that a chip draws a permanent fault.
    pub permanent_permille: u32,
}

impl FaultConfig {
    /// The default fault mix for a seed: roughly one chip in five hits a
    /// transient fault, one in fourteen a permanent one — the flake rates
    /// of a realistically unlucky multi-board campaign.
    pub fn from_seed(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            transient_permille: 200,
            permanent_permille: 70,
        }
    }

    /// Reads [`FAULT_SEED_ENV`] (re-read on every call — never cached) and
    /// builds the default configuration from it.
    pub fn from_env() -> Option<FaultConfig> {
        std::env::var(FAULT_SEED_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map(FaultConfig::from_seed)
    }
}

/// What class of fault a chip draws from a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// The chip is scheduled for this many transient faults.
    Transient(u32),
    /// The chip dies after a scheduled number of commands.
    Dead,
    /// The chip has stuck-at cells.
    Stuck,
}

/// One scheduled transient fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransientFault {
    /// What fires.
    pub kind: FaultKind,
    /// Lifetime command ordinal at which it fires.
    pub at_cmd: u64,
}

/// One permanently stuck cell (physical address, forced value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckCell {
    /// Bank index.
    pub bank: u8,
    /// Physical row.
    pub row: u32,
    /// Column (bit) within the row.
    pub col: u32,
    /// The value the cell is stuck at.
    pub value: bool,
}

/// The resolved fault schedule of one chip.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Scheduled transient faults, ascending by `at_cmd`.
    pub transients: Vec<TransientFault>,
    /// The chip stops responding once this many commands have been issued.
    pub dead_after: Option<u64>,
    /// Permanently stuck cells, forced after every write.
    pub stuck: Vec<StuckCell>,
}

fn key_hash(key: &str) -> u64 {
    let words: Vec<u64> = key.bytes().map(u64::from).collect();
    mix_all(&words)
}

fn chip_id(config: &FaultConfig, family_key: &str, chip_index: u32) -> [u64; 3] {
    [
        config.seed ^ FAULT_SALT,
        key_hash(family_key),
        u64::from(chip_index),
    ]
}

fn draw(id: &[u64; 3], tag: u64) -> u64 {
    mix_all(&[id[0], id[1], id[2], tag])
}

impl FaultPlan {
    /// The fault class a chip draws, or `None` for a healthy chip.
    ///
    /// Depends only on `(config, family_key, chip_index)` — not on
    /// geometry or fleet composition — so the quarantine set is stable
    /// across fleet subsets and scales.
    pub fn classify(config: &FaultConfig, family_key: &str, chip_index: u32) -> Option<FaultClass> {
        let id = chip_id(config, family_key, chip_index);
        let r = unit(&[id[0], id[1], id[2], 1]);
        let permanent = f64::from(config.permanent_permille) / 1000.0;
        let transient = f64::from(config.transient_permille) / 1000.0;
        if r < permanent {
            if draw(&id, 2) & 1 == 0 {
                Some(FaultClass::Dead)
            } else {
                Some(FaultClass::Stuck)
            }
        } else if r < permanent + transient {
            Some(FaultClass::Transient(1 + (draw(&id, 3) % 2) as u32))
        } else {
            None
        }
    }

    /// Resolves the concrete fault schedule for a chip, or `None` for a
    /// healthy chip. Geometry is needed only to place stuck cells.
    pub fn derive(
        config: &FaultConfig,
        family_key: &str,
        chip_index: u32,
        geometry: &ChipGeometry,
    ) -> Option<FaultPlan> {
        let class = FaultPlan::classify(config, family_key, chip_index)?;
        let id = chip_id(config, family_key, chip_index);
        let mut plan = FaultPlan::default();
        match class {
            FaultClass::Transient(n) => {
                for k in 0..u64::from(n) {
                    let kind = match draw(&id, 10 + k) % 3 {
                        0 => FaultKind::CommandTimeout,
                        1 => FaultKind::BusGlitch,
                        _ => FaultKind::ActDrop,
                    };
                    let at_cmd = 1_000 + draw(&id, 20 + k) % 200_000;
                    plan.transients.push(TransientFault { kind, at_cmd });
                }
                plan.transients.sort_unstable_by_key(|t| t.at_cmd);
                plan.transients.dedup_by_key(|t| t.at_cmd);
            }
            FaultClass::Dead => {
                plan.dead_after = Some(50_000 + draw(&id, 4) % 450_000);
            }
            FaultClass::Stuck => {
                let count = 4 + draw(&id, 5) % 13;
                for k in 0..count {
                    plan.stuck.push(StuckCell {
                        bank: (draw(&id, 30 + k) % u64::from(geometry.banks)) as u8,
                        row: (draw(&id, 50 + k) % u64::from(geometry.rows_per_bank())) as u32,
                        col: (draw(&id, 70 + k) % u64::from(geometry.cols_per_row)) as u32,
                        value: draw(&id, 90 + k) & 1 == 1,
                    });
                }
                plan.stuck.sort_unstable_by_key(|c| (c.bank, c.row, c.col));
                plan.stuck.dedup_by_key(|c| (c.bank, c.row, c.col));
            }
        }
        Some(plan)
    }
}

/// Runtime fault bookkeeping carried by an executor.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    /// Lifetime commands issued to the chip (across all runs).
    cmds: u64,
    next_transient: usize,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> FaultState {
        FaultState {
            plan,
            cmds: 0,
            next_transient: 0,
        }
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub(crate) fn commands(&self) -> u64 {
        self.cmds
    }

    /// Advances the lifetime command counter by `n` and returns the fault
    /// that fires within the advanced span, if any. Transient faults are
    /// consumed (they never re-fire); a dead chip fails every call once
    /// its threshold is crossed.
    pub(crate) fn advance(&mut self, n: u64) -> Option<(FaultKind, u64)> {
        self.cmds = self.cmds.saturating_add(n);
        let transient = self
            .plan
            .transients
            .get(self.next_transient)
            .filter(|t| t.at_cmd <= self.cmds)
            .copied();
        let dead = self.plan.dead_after.filter(|&d| self.cmds >= d);
        // Earliest ordinal wins; a transient wins a tie with death.
        let fired = match (transient, dead) {
            (Some(t), Some(d)) if d < t.at_cmd => Some((FaultKind::ChipDead, d)),
            (Some(t), _) => Some((t.kind, t.at_cmd)),
            (None, d) => d.map(|d| (FaultKind::ChipDead, d)),
        };
        if let Some((kind, _)) = fired {
            if kind.is_transient() {
                self.next_transient += 1;
            }
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry() -> ChipGeometry {
        ChipGeometry::scaled_for_tests()
    }

    #[test]
    fn plans_are_deterministic_per_chip_identity() {
        let cfg = FaultConfig::from_seed(1234);
        for idx in 0..4 {
            let a = FaultPlan::derive(&cfg, "H0", idx, &geometry());
            let b = FaultPlan::derive(&cfg, "H0", idx, &geometry());
            assert_eq!(a, b);
        }
        // Different identities decorrelate.
        let keys = ["H0", "H1", "M0", "S0", "N0"];
        let classes: Vec<_> = keys
            .iter()
            .map(|k| FaultPlan::classify(&cfg, k, 0))
            .collect();
        assert!(
            classes.iter().any(|c| c != &classes[0]) || classes[0].is_none(),
            "five chips should not all share one class: {classes:?}"
        );
    }

    #[test]
    fn transient_faults_fire_once_then_clear() {
        let plan = FaultPlan {
            transients: vec![TransientFault {
                kind: FaultKind::CommandTimeout,
                at_cmd: 5,
            }],
            ..FaultPlan::default()
        };
        let mut st = FaultState::new(plan);
        assert_eq!(st.advance(4), None);
        assert_eq!(st.advance(1), Some((FaultKind::CommandTimeout, 5)));
        assert_eq!(st.advance(100), None, "consumed transients never re-fire");
    }

    #[test]
    fn dead_chip_fails_every_command_after_threshold() {
        let plan = FaultPlan {
            dead_after: Some(10),
            ..FaultPlan::default()
        };
        let mut st = FaultState::new(plan);
        assert_eq!(st.advance(9), None);
        assert_eq!(st.advance(1), Some((FaultKind::ChipDead, 10)));
        assert_eq!(st.advance(1), Some((FaultKind::ChipDead, 10)));
    }

    #[test]
    fn bulk_advance_catches_faults_inside_the_span() {
        let plan = FaultPlan {
            transients: vec![TransientFault {
                kind: FaultKind::ActDrop,
                at_cmd: 1_000,
            }],
            dead_after: Some(2_000),
            ..FaultPlan::default()
        };
        let mut st = FaultState::new(plan);
        // One bulk step jumps over both thresholds: the earlier fault wins.
        assert_eq!(st.advance(5_000), Some((FaultKind::ActDrop, 1_000)));
        assert_eq!(st.advance(1), Some((FaultKind::ChipDead, 2_000)));
    }

    #[test]
    fn env_config_round_trips_the_seed() {
        // Only this test (in this crate) touches the env var.
        std::env::set_var(FAULT_SEED_ENV, "7");
        let cfg = FaultConfig::from_env().expect("seed set");
        assert_eq!(cfg.seed, 7);
        std::env::remove_var(FAULT_SEED_ENV);
        assert_eq!(FaultConfig::from_env(), None);
        std::env::set_var(FAULT_SEED_ENV, "not-a-seed");
        assert_eq!(FaultConfig::from_env(), None);
        std::env::remove_var(FAULT_SEED_ENV);
    }

    #[test]
    fn chip_schedules_are_pinned() {
        // Chip 0 of every quick-fleet family under the curated CI seed 103:
        // (transient faults, dead-after ordinal, stuck-cell count).
        use FaultKind::{BusGlitch, CommandTimeout};
        type Pin = Option<(Vec<TransientFault>, Option<u64>, usize)>;
        let t = |kind, at_cmd| TransientFault { kind, at_cmd };
        let expected: [(&str, Pin); 14] = [
            ("SK Hynix-A-4Gb", None),
            ("SK Hynix-A-8Gb", None),
            ("SK Hynix-C-16Gb", None),
            ("SK Hynix-D-8Gb", None),
            ("Micron-B-4Gb", None),
            ("Micron-E-16Gb", Some((vec![], Some(396_440), 0))),
            (
                "Micron-F-16Gb",
                Some((vec![t(BusGlitch, 100_103)], None, 0)),
            ),
            ("Micron-R-8Gb", None),
            ("Samsung-A-16Gb", None),
            ("Samsung-B-16Gb", None),
            ("Samsung-C-4Gb", None),
            (
                "Samsung-C-16Gb",
                Some((
                    vec![t(CommandTimeout, 80_778), t(BusGlitch, 191_196)],
                    None,
                    0,
                )),
            ),
            ("Samsung-E-4Gb", None),
            ("Nanya-C-8Gb", None),
        ];
        let cfg = FaultConfig::from_seed(103);
        for (module, (key, want)) in pud_dram::profiles::TESTED_MODULES.iter().zip(expected) {
            assert_eq!(module.key(), key);
            let got = FaultPlan::derive(&cfg, key, 0, &geometry())
                .map(|p| (p.transients, p.dead_after, p.stuck.len()));
            assert_eq!(got, want, "{key}");
        }
    }
}
