//! The simulated test fleet: one executor per tested chip, with the
//! paper's subarray/victim sampling methodology, and the parallel
//! [`sweep`] engine the experiment drivers iterate it with.
//!
//! Chips are instantiated *lazily*: building a [`Fleet`] allocates only
//! per-chip bookkeeping, and the executor (with its cell state and
//! disturbance engine) materializes on first use. With
//! [`FleetConfig::page_chips`] enabled, the sweep engine drops each chip's
//! materialized state after its sweep unit completes, so peak RSS is
//! bounded by the number of *concurrently active* chips (the shard width),
//! not the fleet size — the paper-scale 316-chip roster and the synthetic
//! `synth:<n>` rosters depend on this.

use pud_bender::fault::FaultConfig;
use pud_bender::{Executor, FaultCarry, TestEnv};
use pud_dram::{
    profiles::{self, ModuleProfile},
    BankId, ChipGeometry, Manufacturer, RowAddr, SubarrayId,
};
use pud_observe::SharedSink;

pub mod checkpoint;
pub mod fsck;
pub mod progress;
pub mod shard;
pub mod supervisor;
pub mod sweep;
pub mod wire;

/// Which chips a fleet instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Roster {
    /// [`FleetConfig::chips_per_family`] chips from each of the 14 module
    /// families — the default, and the only roster before sharding landed.
    PerFamily,
    /// The paper's full Table 1/2 fleet: every family contributes its
    /// `n_chips` chips (316 in total across 40 modules).
    Paper,
    /// A synthetic fleet of exactly `n` chips, round-robined over the 14
    /// families (chip `i` maps to family `i % 14`, chip index `i / 14`) —
    /// the scaling knob for memory-bound and sharding stress tests.
    Synth(u32),
}

impl Roster {
    /// Parses the `repro --fleet` syntax: `per-family`, `paper`, or
    /// `synth:<n>` with `n > 0`.
    pub fn parse(s: &str) -> Option<Roster> {
        match s {
            "per-family" => Some(Roster::PerFamily),
            "paper" => Some(Roster::Paper),
            _ => s
                .strip_prefix("synth:")?
                .parse::<u32>()
                .ok()
                .filter(|&n| n > 0)
                .map(Roster::Synth),
        }
    }
}

/// Scale and sampling configuration for experiments.
///
/// The paper tests six subarrays per module (two each from the beginning,
/// middle, and end of the bank) and all rows within them (§4.2). The
/// reproduction samples a configurable number of victims per subarray so
/// quick runs stay quick; `--full`-style runs raise the sampling density.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Fleet seed — all per-row vulnerability derives from it.
    pub seed: u64,
    /// Chip geometry for every simulated chip.
    pub geometry: ChipGeometry,
    /// Chips instantiated per module family (under [`Roster::PerFamily`]).
    pub chips_per_family: u32,
    /// Victim rows sampled per tested subarray.
    pub victims_per_subarray: u32,
    /// Deterministic fault injection (see [`pud_bender::fault`]); `None`
    /// builds a healthy fleet. The library never reads `PUD_FAULT_SEED`
    /// itself — only the `repro` CLI resolves the environment into this
    /// field, so library callers and tests stay race-free.
    pub fault: Option<FaultConfig>,
    /// The chip roster (see [`Roster`]).
    pub roster: Roster,
    /// Page chips out after each sweep unit: the sweep engine drops the
    /// materialized executor once the unit's checkpoint row is flushed,
    /// bounding peak RSS by shard width instead of fleet size. Results are
    /// byte-identical either way (a rematerialized chip is rebuilt from
    /// the same seed, carrying its fault clock), so this field is NOT part
    /// of [`FleetConfig::fingerprint`].
    pub page_chips: bool,
}

impl FleetConfig {
    /// Quick configuration for tests and CI benches.
    pub fn quick() -> FleetConfig {
        FleetConfig {
            seed: 0x005A_FA11,
            geometry: ChipGeometry::scaled_for_tests(),
            chips_per_family: 1,
            victims_per_subarray: 4,
            fault: None,
            roster: Roster::PerFamily,
            page_chips: false,
        }
    }

    /// Denser configuration for full reproduction runs.
    pub fn full() -> FleetConfig {
        FleetConfig {
            chips_per_family: 2,
            victims_per_subarray: 32,
            geometry: ChipGeometry::paper_scale(),
            ..FleetConfig::quick()
        }
    }

    /// Number of chips a full (unfiltered) fleet built from this
    /// configuration holds — the natural cap for sweep thread counts.
    pub fn fleet_size(&self) -> usize {
        match self.roster {
            Roster::PerFamily => profiles::TESTED_MODULES.len() * self.chips_per_family as usize,
            Roster::Paper => profiles::TESTED_MODULES
                .iter()
                .map(|p| p.n_chips as usize)
                .sum(),
            Roster::Synth(n) => n as usize,
        }
    }

    /// A stable fingerprint of everything that shapes sweep results: the
    /// fleet seed, geometry, sampling density, chip-level fault
    /// configuration, and the chip roster. Checkpoints store it in their
    /// header so a resume against a differently-shaped fleet is rejected
    /// instead of silently mixing incompatible rows.
    ///
    /// [`FleetConfig::page_chips`] is excluded: paging is results-neutral,
    /// so checkpoints written with or without it interchange freely.
    pub fn fingerprint(&self) -> u64 {
        let mut words = vec![
            self.seed,
            u64::from(self.geometry.banks),
            u64::from(self.geometry.subarrays_per_bank),
            u64::from(self.geometry.rows_per_subarray),
            u64::from(self.geometry.cols_per_row),
            u64::from(self.chips_per_family),
            u64::from(self.victims_per_subarray),
        ];
        match self.fault {
            None => words.push(0),
            Some(f) => {
                words.push(1);
                words.push(f.seed);
                words.push(u64::from(f.transient_permille));
                words.push(u64::from(f.permanent_permille));
            }
        }
        for profile in &profiles::TESTED_MODULES {
            let key = profile.key();
            words.push(pud_disturb::rng::mix_all(
                &key.bytes().map(u64::from).collect::<Vec<u64>>(),
            ));
        }
        match self.roster {
            // Nothing appended: per-family fingerprints are unchanged from
            // before rosters existed, so old checkpoints stay resumable.
            Roster::PerFamily => {}
            Roster::Paper => words.push(2),
            Roster::Synth(n) => {
                words.push(3);
                words.push(u64::from(n));
            }
        }
        pud_disturb::rng::mix_all(&words)
    }
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig::quick()
    }
}

/// One chip under test: its profile, index, and a lazily materialized
/// executor.
pub struct ChipUnderTest {
    /// The module family this chip belongs to.
    pub profile: &'static ModuleProfile,
    /// Chip index within the family (chip 0 carries the family's
    /// most-vulnerable row).
    pub chip_index: u32,
    config: FleetConfig,
    /// The live executor, `None` while paged out (or never yet used).
    state: Option<Box<Executor>>,
    /// Fault bookkeeping preserved across page-out (the fault clock is
    /// lifetime state: resetting it would replay consumed transients).
    fault_carry: Option<FaultCarry>,
    /// The trace sink a (re)materialized executor attaches, tracked at the
    /// chip level so paging is invisible to tracing.
    pending_sink: Option<SharedSink>,
    /// The test environment a (re)materialized executor runs under,
    /// tracked at the chip level so setting it neither materializes the
    /// chip nor is lost across paging.
    pending_env: Option<TestEnv>,
}

impl std::fmt::Debug for ChipUnderTest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChipUnderTest")
            .field("family", &self.profile.key())
            .field("chip_index", &self.chip_index)
            .field("materialized", &self.state.is_some())
            .finish_non_exhaustive()
    }
}

impl ChipUnderTest {
    fn new(profile: &'static ModuleProfile, chip_index: u32, config: FleetConfig) -> ChipUnderTest {
        ChipUnderTest {
            profile,
            chip_index,
            config,
            state: None,
            fault_carry: None,
            // Capture the build-time global sink, exactly as the eager
            // constructor used to.
            pending_sink: pud_observe::global_sink(),
            pending_env: None,
        }
    }

    /// Stable display label: `family-key#chip-index` — the identity sweep
    /// reports and checkpoints key chips by.
    pub fn label(&self) -> String {
        format!("{}#{}", self.profile.key(), self.chip_index)
    }

    /// The bank all characterization runs on (the paper tests one bank per
    /// module).
    pub fn bank(&self) -> BankId {
        BankId(0)
    }

    /// The command-level executor bound to the chip, materializing it on
    /// first use (and after every [`ChipUnderTest::page_out`]).
    pub fn exec(&mut self) -> &mut Executor {
        if self.state.is_none() {
            let mut exec = Executor::new(
                self.profile,
                self.config.geometry,
                self.chip_index,
                self.config.seed,
            );
            match self.fault_carry.take() {
                // Rematerialization: the fault clock continues where the
                // paged-out executor left off.
                Some(carry) => exec.restore_fault_carry(carry),
                None => {
                    if let Some(fault) = &self.config.fault {
                        exec.enable_faults(fault, &self.profile.key(), self.chip_index);
                    }
                }
            }
            match &self.pending_sink {
                Some(sink) => exec.set_trace_sink(sink.clone()),
                None => {
                    exec.take_trace_sink();
                }
            }
            if let Some(env) = self.pending_env {
                exec.set_env(env);
            }
            self.state = Some(Box::new(exec));
        }
        self.state.as_mut().expect("just materialized")
    }

    /// Whether the executor is currently materialized.
    pub fn is_materialized(&self) -> bool {
        self.state.is_some()
    }

    /// Drops the materialized executor (cell state, disturbance engine,
    /// activation history), keeping only what must survive: the fault
    /// clock and the trace sink. The next [`ChipUnderTest::exec`] rebuilds
    /// an identical chip from the seed. Callers must only page at sweep
    /// unit boundaries — in-unit state (written patterns, accumulated
    /// disturbance) does not survive.
    pub fn page_out(&mut self) {
        if let Some(exec) = self.state.take() {
            self.fault_carry = Some(exec.fault_carry());
            self.pending_sink = exec.trace_sink_ref();
            // Read the env back from the executor so even a direct
            // `exec().set_env(..)` survives paging.
            self.pending_env = Some(exec.env());
        }
    }

    /// Whether the fleet configuration asks for per-unit paging.
    pub fn pages(&self) -> bool {
        self.config.page_chips
    }

    /// Sets the test environment at the chip level: it reaches the live
    /// executor immediately (if materialized), survives paging, and — for
    /// paged-out chips — applies at the next materialization without
    /// forcing one now. Drivers that sweep temperature over the whole
    /// fleet call this in a loop; with an eager `exec()` that loop alone
    /// would materialize every chip and defeat the paging RSS bound.
    pub fn set_env(&mut self, env: TestEnv) {
        if let Some(exec) = self.state.as_mut() {
            exec.set_env(env);
        }
        self.pending_env = Some(env);
    }

    /// Attaches a trace sink (replacing any previous one) at the chip
    /// level: it reaches the live executor immediately and survives
    /// paging.
    pub fn set_trace_sink(&mut self, sink: SharedSink) {
        if let Some(exec) = self.state.as_mut() {
            exec.set_trace_sink(sink.clone());
        }
        self.pending_sink = Some(sink);
    }

    /// Detaches the chip's trace sink, returning it. A materialized
    /// executor is the source of truth (callers may have attached a sink
    /// on it directly, bypassing the chip level).
    pub fn take_trace_sink(&mut self) -> Option<SharedSink> {
        if let Some(exec) = self.state.as_mut() {
            self.pending_sink = None;
            return exec.take_trace_sink();
        }
        self.pending_sink.take()
    }

    /// Re-fetches the live executor's metric handles against the calling
    /// thread's current registry (no-op while paged out — materialization
    /// binds fresh handles anyway).
    pub fn rebind_metrics(&mut self) {
        if let Some(exec) = self.state.as_mut() {
            exec.rebind_metrics();
        }
    }

    /// The six tested subarrays: two from the beginning, two from the
    /// middle, two from the end of the bank (§4.2).
    pub fn tested_subarrays(&self) -> Vec<SubarrayId> {
        let n = self.config.geometry.subarrays_per_bank;
        if n < 6 {
            return (0..n).map(SubarrayId).collect();
        }
        let mid = n / 2;
        vec![
            SubarrayId(0),
            SubarrayId(1),
            SubarrayId(mid - 1),
            SubarrayId(mid),
            SubarrayId(n - 2),
            SubarrayId(n - 1),
        ]
    }

    /// Sampled victim rows (physical) across the tested subarrays, spread
    /// evenly over the five subarray regions; always includes the chip's
    /// designated most-vulnerable row when it has one.
    pub fn victim_rows(&mut self) -> Vec<RowAddr> {
        let g = self.config.geometry;
        let per_sa = self.config.victims_per_subarray.max(1);
        let mut victims = Vec::new();
        for sa in self.tested_subarrays() {
            let base = g.subarray_base(sa).0;
            let rows = g.rows_per_subarray;
            // Keep two rows of margin at subarray edges so every victim has
            // in-subarray aggressors at distance ≤ 2.
            let usable = rows.saturating_sub(4);
            for i in 0..per_sa {
                let offset = 2 + (u64::from(i) * u64::from(usable) / u64::from(per_sa)) as u32;
                // Odd physical offsets stay sandwichable by SiMRA groups.
                victims.push(RowAddr((base + offset) | 1));
            }
        }
        // Sampling walks subarrays and offsets in ascending order, so
        // duplicates (dense sampling collapsing adjacent offsets onto the
        // same odd row) are adjacent: sort + dedup replaces the old
        // quadratic `contains` filter without changing the output.
        victims.sort_unstable();
        victims.dedup();
        let bank = self.bank();
        if let Some((hero_bank, hero)) = self.exec().engine().model().hero_row() {
            debug_assert_eq!(hero_bank, bank);
            // Hero-row-last invariant: the designated most-vulnerable row is
            // appended after the sorted sample when not already in it.
            if victims.binary_search(&hero).is_err() {
                victims.push(hero);
            }
        }
        victims
    }
}

/// The whole simulated fleet.
pub struct Fleet {
    /// Chips under test.
    pub chips: Vec<ChipUnderTest>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("chips", &self.chips.len())
            .finish()
    }
}

impl Fleet {
    /// Builds the configured roster (14 families by default).
    pub fn build(config: FleetConfig) -> Fleet {
        Fleet::build_filtered(config, |_| true)
    }

    /// Builds only the SiMRA-capable (SK Hynix) part of the fleet.
    pub fn build_simra_capable(config: FleetConfig) -> Fleet {
        Fleet::build_filtered(config, |p| p.supports_simra())
    }

    /// Builds the fleet for one manufacturer.
    pub fn build_manufacturer(config: FleetConfig, mfr: Manufacturer) -> Fleet {
        Fleet::build_filtered(config, move |p| p.chip_vendor == mfr)
    }

    /// Builds a fleet from the families accepted by `filter`. Chips are
    /// bookkeeping-only until first use (see [`ChipUnderTest::exec`]).
    pub fn build_filtered(config: FleetConfig, filter: impl Fn(&ModuleProfile) -> bool) -> Fleet {
        let mut chips = Vec::new();
        match config.roster {
            Roster::PerFamily | Roster::Paper => {
                for profile in &profiles::TESTED_MODULES {
                    if !filter(profile) {
                        continue;
                    }
                    let count = match config.roster {
                        Roster::PerFamily => config.chips_per_family,
                        _ => profile.n_chips,
                    };
                    for chip_index in 0..count {
                        chips.push(ChipUnderTest::new(profile, chip_index, config));
                    }
                }
            }
            Roster::Synth(n) => {
                let families = profiles::TESTED_MODULES.len() as u32;
                for i in 0..n {
                    let profile = &profiles::TESTED_MODULES[(i % families) as usize];
                    if !filter(profile) {
                        continue;
                    }
                    chips.push(ChipUnderTest::new(profile, i / families, config));
                }
            }
        }
        Fleet { chips }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_fleet_has_all_families() {
        let fleet = Fleet::build(FleetConfig::quick());
        assert_eq!(fleet.chips.len(), 14);
        let simra = Fleet::build_simra_capable(FleetConfig::quick());
        assert_eq!(simra.chips.len(), 4);
        let micron = Fleet::build_manufacturer(FleetConfig::quick(), Manufacturer::Micron);
        assert_eq!(micron.chips.len(), 4);
    }

    #[test]
    fn chips_per_family_scales_fleet() {
        let mut cfg = FleetConfig::quick();
        cfg.chips_per_family = 3;
        let fleet = Fleet::build(cfg);
        assert_eq!(fleet.chips.len(), 42);
    }

    #[test]
    fn paper_roster_builds_all_316_chips() {
        let mut cfg = FleetConfig::quick();
        cfg.roster = Roster::Paper;
        assert_eq!(cfg.fleet_size(), 316);
        let fleet = Fleet::build(cfg);
        assert_eq!(fleet.chips.len(), 316);
        // Lazy: 316 chips must not materialize 316 executors.
        assert!(fleet.chips.iter().all(|c| !c.is_materialized()));
        // Chip indices within each family are dense from 0.
        for profile in &profiles::TESTED_MODULES {
            let indices: Vec<u32> = fleet
                .chips
                .iter()
                .filter(|c| c.profile.key() == profile.key())
                .map(|c| c.chip_index)
                .collect();
            assert_eq!(indices, (0..profile.n_chips).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn synth_roster_round_robins_families() {
        let mut cfg = FleetConfig::quick();
        cfg.roster = Roster::Synth(30);
        assert_eq!(cfg.fleet_size(), 30);
        let fleet = Fleet::build(cfg);
        assert_eq!(fleet.chips.len(), 30);
        assert_eq!(fleet.chips[0].profile.key(), fleet.chips[14].profile.key());
        assert_eq!(fleet.chips[14].chip_index, 1);
        assert_eq!(fleet.chips[29].chip_index, 2);
        // Labels are unique.
        let mut labels: Vec<String> = fleet.chips.iter().map(ChipUnderTest::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 30);
    }

    #[test]
    fn roster_parse_accepts_cli_syntax() {
        assert_eq!(Roster::parse("per-family"), Some(Roster::PerFamily));
        assert_eq!(Roster::parse("paper"), Some(Roster::Paper));
        assert_eq!(Roster::parse("synth:100"), Some(Roster::Synth(100)));
        assert_eq!(Roster::parse("synth:0"), None);
        assert_eq!(Roster::parse("synth:"), None);
        assert_eq!(Roster::parse("316"), None);
    }

    #[test]
    fn rosters_and_chip_faults_shape_the_fingerprint() {
        let base = FleetConfig::quick();
        let mut paper = base;
        paper.roster = Roster::Paper;
        let mut synth = base;
        synth.roster = Roster::Synth(100);
        assert_ne!(base.fingerprint(), paper.fingerprint());
        assert_ne!(base.fingerprint(), synth.fingerprint());
        assert_ne!(paper.fingerprint(), synth.fingerprint());
        // Paging is results-neutral and excluded.
        let mut paged = base;
        paged.page_chips = true;
        assert_eq!(base.fingerprint(), paged.fingerprint());
        let mut faulted = base;
        faulted.fault = Some(FaultConfig::from_seed(103));
        assert_ne!(base.fingerprint(), faulted.fingerprint());
    }

    #[test]
    fn tested_subarrays_cover_begin_middle_end() {
        let fleet = Fleet::build(FleetConfig::quick());
        let sas = fleet.chips[0].tested_subarrays();
        assert_eq!(sas.len(), 6);
        let n = FleetConfig::quick().geometry.subarrays_per_bank;
        assert!(sas.contains(&SubarrayId(0)));
        assert!(sas.contains(&SubarrayId(n - 1)));
    }

    #[test]
    fn victims_include_hero_and_stay_in_bounds() {
        let mut fleet = Fleet::build(FleetConfig::quick());
        for chip in &mut fleet.chips {
            let victims = chip.victim_rows();
            assert!(!victims.is_empty());
            let hero = chip.exec().engine().model().hero_row();
            if chip.chip_index == 0 {
                let (_, hero_row) = hero.unwrap();
                assert!(victims.contains(&hero_row), "{}", chip.profile.key());
            }
            let g = FleetConfig::quick().geometry;
            for v in victims {
                assert!(v.0 < g.rows_per_bank());
                assert!(v.0 % 2 == 1, "victims are odd physical rows");
            }
        }
    }

    #[test]
    fn dense_sampling_dedups_and_keeps_hero_last() {
        let mut cfg = FleetConfig::quick();
        // Denser than the subarray has usable rows: adjacent offsets
        // collapse onto the same odd row, exercising the dedup path.
        cfg.victims_per_subarray = 4 * cfg.geometry.rows_per_subarray;
        let mut fleet = Fleet::build(cfg);
        for chip in &mut fleet.chips {
            let victims = chip.victim_rows();
            let mut unique = victims.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), victims.len(), "{}", chip.profile.key());
            // The sampled prefix stays ascending; only the hero row may
            // break the order, and only as the final element.
            let ascending = victims.windows(2).filter(|w| w[0] >= w[1]).count();
            assert!(ascending <= 1);
            if ascending == 1 {
                let hero = chip.exec().engine().model().hero_row().unwrap().1;
                assert_eq!(*victims.last().unwrap(), hero);
            }
        }
    }

    #[test]
    fn victims_are_deterministic() {
        let mut a = Fleet::build(FleetConfig::quick());
        let mut b = Fleet::build(FleetConfig::quick());
        assert_eq!(a.chips[0].victim_rows(), b.chips[0].victim_rows());
    }

    #[test]
    fn paging_rebuilds_an_identical_chip() {
        let mut fleet = Fleet::build(FleetConfig::quick());
        let chip = &mut fleet.chips[0];
        let victims_before = chip.victim_rows();
        assert!(chip.is_materialized());
        chip.page_out();
        assert!(!chip.is_materialized());
        assert_eq!(chip.victim_rows(), victims_before);
        assert!(chip.is_materialized(), "victim_rows rematerializes");
    }

    #[test]
    fn paging_carries_the_fault_clock() {
        let mut cfg = FleetConfig::quick();
        cfg.fault = Some(FaultConfig::from_seed(103));
        let mut fleet = Fleet::build(cfg);
        // Find a chip with an installed plan and advance its clock by
        // running a tiny program.
        let mut carried = false;
        for chip in &mut fleet.chips {
            if chip.exec().fault_plan().is_none() {
                continue;
            }
            let bank = chip.bank();
            let prog = pud_bender::ops::single_sided_rowhammer(
                bank,
                pud_dram::RowAddr(11),
                pud_bender::ops::t_ras(),
                3,
            );
            let _ = chip.exec().try_run(&prog);
            let cmds = chip.exec().fault_commands().expect("plan installed");
            assert!(cmds > 0);
            chip.page_out();
            assert_eq!(chip.exec().fault_commands(), Some(cmds), "clock survives");
            carried = true;
            break;
        }
        assert!(carried, "seed 103 schedules at least one faulty chip");
    }
}
