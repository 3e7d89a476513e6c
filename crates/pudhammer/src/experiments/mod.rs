//! The paper's experiments, one module per section.
//!
//! Every public function regenerates one table or figure of the paper and
//! returns a typed result whose `Display` implementation prints the same
//! rows/series the paper reports. The `repro` binary is a thin wrapper over
//! these functions.

pub mod combined;
pub mod comra;
pub mod simra;
pub mod table2;
pub mod trr_eval;

use pud_dram::{DataPattern, RowAddr};
use pud_observe::json::JsonArray;
use pud_observe::JsonValue;

use crate::fleet::checkpoint::{CheckpointStore, Codec, RunCtx};
use crate::fleet::supervisor;
use crate::fleet::{ChipUnderTest, FleetConfig};
use crate::hcfirst::{HcSearch, WarmStart};
use crate::patterns::{Kernel, PatternClass};

/// Experiment scale: fleet density, search parameters, and whether the full
/// per-row WCDP search is performed (quick runs fix the usual worst-case
/// patterns instead).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Fleet construction parameters.
    pub fleet: FleetConfig,
    /// HC_first search parameters.
    pub search: HcSearch,
    /// Run the full four-pattern WCDP search per row (×4 cost).
    pub use_wcdp: bool,
    /// Hammer count per aggressor for the §7 TRR experiments.
    pub trr_hammers: u64,
    /// Sweep worker threads (0 = auto: `PUD_THREADS` env or available
    /// parallelism, capped at fleet size). Output is identical at any
    /// value — see [`crate::fleet::sweep`].
    pub threads: usize,
    /// Transient-failure retries per chip before it is quarantined (see
    /// [`crate::fleet::sweep::SweepPolicy`]).
    pub max_retries: u32,
}

impl Scale {
    /// Quick scale for tests and CI benches.
    pub fn quick() -> Scale {
        Scale {
            fleet: FleetConfig::quick(),
            search: HcSearch::default(),
            use_wcdp: false,
            trr_hammers: 200_000,
            threads: 0,
            max_retries: 3,
        }
    }

    /// Paper-density scale for full reproduction runs.
    pub fn full() -> Scale {
        Scale {
            fleet: FleetConfig::full(),
            search: HcSearch {
                repeats: 5,
                ..HcSearch::default()
            },
            use_wcdp: true,
            trr_hammers: 500_000,
            threads: 0,
            max_retries: 3,
        }
    }

    /// Effective sweep worker count for a fleet (or target list) of
    /// `items` elements.
    pub fn sweep_threads(&self, items: usize) -> usize {
        crate::fleet::sweep::resolve_threads(self.threads, items)
    }

    /// The retry policy isolating sweeps run under at this scale.
    pub fn sweep_policy(&self) -> crate::fleet::sweep::SweepPolicy {
        crate::fleet::sweep::SweepPolicy {
            max_retries: self.max_retries,
        }
    }
}

impl Default for Scale {
    fn default() -> Scale {
        Scale::quick()
    }
}

/// The aggressor data pattern of one measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpSpec {
    /// One fixed aggressor pattern (victims hold its negation).
    Fixed(DataPattern),
    /// The full four-pattern worst-case search; the result names the winner.
    Wcdp,
}

impl DpSpec {
    /// Canonical wire text (`0x55`, `wcdp`, ...).
    pub(crate) fn canonical(self) -> String {
        match self {
            DpSpec::Fixed(dp) => format!("0x{:02x}", dp.0),
            DpSpec::Wcdp => "wcdp".to_string(),
        }
    }

    /// Parses the canonical wire text.
    pub(crate) fn parse(s: &str) -> Result<DpSpec, String> {
        match s {
            "wcdp" => Ok(DpSpec::Wcdp),
            "0x00" => Ok(DpSpec::Fixed(DataPattern::ZEROS)),
            "0x55" => Ok(DpSpec::Fixed(DataPattern::CHECKER_55)),
            "0xaa" => Ok(DpSpec::Fixed(DataPattern::CHECKER_AA)),
            "0xff" => Ok(DpSpec::Fixed(DataPattern::ONES)),
            other => Err(format!(
                "unknown data pattern {other:?} (expected 0x00, 0x55, 0xaa, 0xff, or wcdp)"
            )),
        }
    }
}

impl Scale {
    /// The data pattern of drivers that leave it to the scale: the full
    /// WCDP search when [`Scale::use_wcdp`] is set, else the class's
    /// [`PatternClass::default_dp`].
    pub fn dp_policy(&self, class: PatternClass) -> DpSpec {
        if self.use_wcdp {
            DpSpec::Wcdp
        } else {
            DpSpec::Fixed(class.default_dp())
        }
    }
}

/// One §4.2 measurement: HC_first of the physical `victim` under `kernel`
/// on `chip`, with the aggressor pattern `dp` names (or the lowest over
/// the four tested patterns for [`DpSpec::Wcdp`]). Returns the HC_first
/// and the pattern it was measured with. `warm` seeds the bisection
/// bracket from the previous search on the same victim; pass a fresh
/// [`WarmStart`] for a cold search.
pub fn measure(
    scale: &Scale,
    chip: &mut ChipUnderTest,
    kernel: &Kernel,
    victim: RowAddr,
    dp: DpSpec,
    warm: &mut WarmStart,
) -> (Option<u64>, DataPattern) {
    let bank = chip.bank();
    match dp {
        DpSpec::Fixed(dp) => {
            let hc = crate::hcfirst::measure_hc_first_warm(
                chip.exec(),
                bank,
                kernel,
                victim,
                dp,
                dp.negated(),
                &scale.search,
                warm,
            );
            (hc, dp)
        }
        DpSpec::Wcdp => {
            let w = crate::wcdp::find_wcdp(chip.exec(), bank, kernel, victim, &scale.search, warm);
            (w.hc, w.pattern)
        }
    }
}

/// One HC_first measurement over the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Fleet index of the measured chip. Drivers that pair measurements
    /// across several [`collect_hc`] calls join on `(chip, victim)` so the
    /// pairing survives a chip being quarantined in one call but not
    /// another.
    pub chip: usize,
    /// Chip manufacturer.
    pub mfr: pud_dram::Manufacturer,
    /// Victim row (physical).
    pub victim: pud_dram::RowAddr,
    /// Victim location within its subarray.
    pub region: pud_dram::SubarrayRegion,
    /// Measured HC_first (`None`: no flip within the search cap).
    pub hc: Option<u64>,
}

/// Compact positional encoding: `[chip, mfr, victim, region, hc]`, with
/// manufacturer and region stored as indices into their `ALL` rosters
/// (process-lifetime constants, covered by the checkpoint fingerprint).
impl Codec for Record {
    fn encode(&self) -> String {
        let mfr = pud_dram::Manufacturer::ALL
            .iter()
            .position(|m| *m == self.mfr)
            .expect("manufacturer is in the roster") as u64;
        let region = self.region.index() as u64;
        JsonArray::new()
            .u64(self.chip as u64)
            .u64(mfr)
            .u64(u64::from(self.victim.0))
            .u64(region)
            .raw(&self.hc.encode())
            .finish()
    }

    fn decode(v: &JsonValue) -> Option<Record> {
        match v.as_arr()? {
            [chip, mfr, victim, region, hc] => Some(Record {
                chip: chip.as_u64()? as usize,
                mfr: *pud_dram::Manufacturer::ALL.get(mfr.as_u64()? as usize)?,
                victim: pud_dram::RowAddr(u32::try_from(victim.as_u64()?).ok()?),
                region: *pud_dram::SubarrayRegion::ALL.get(region.as_u64()? as usize)?,
                hc: Codec::decode(hc)?,
            }),
            _ => None,
        }
    }
}

/// Fault-isolating parallel sweep over the fleet at this scale: every chip
/// closure runs under the retry/quarantine machinery of
/// [`crate::fleet::sweep::sweep_isolated`] with [`Scale::sweep_policy`].
/// Quarantined and cancelled chips contribute no element to the returned
/// vector (results are otherwise in fleet order) and their status — like
/// every retry — is merged into `sweep` for the driver's footer.
///
/// With a checkpoint context, the sweep allocates its stage name (in code
/// order — see [`RunCtx::next_stage`]), runs every chip through
/// [`resume_or_run`] under it, and commits the store at its barrier.
pub(crate) fn sweep_fleet<R: Send + Codec>(
    scale: &Scale,
    fleet: &mut crate::fleet::Fleet,
    sweep: &mut crate::fleet::sweep::SweepReport,
    ctx: Option<&RunCtx<'_>>,
    f: impl Fn(usize, &mut crate::fleet::ChipUnderTest) -> R + Sync,
) -> Vec<R> {
    // Only the (Sync) store and the pre-allocated stage name cross into
    // the workers — RunCtx itself holds the stage counter in a Cell.
    let stage = ctx.map(RunCtx::next_stage);
    let ckpt = ctx.map(RunCtx::store).zip(stage.as_deref());
    let threads = scale.sweep_threads(fleet.chips.len());
    let (outcomes, report) = crate::fleet::sweep::sweep_isolated(
        threads,
        scale.sweep_policy(),
        &mut fleet.chips,
        |chip_idx, chip| resume_or_run(ckpt, &chip.label(), || f(chip_idx, chip)),
    );
    sweep.absorb(&report);
    // Sweep barrier: everything recorded above is now made durable against
    // power loss, not just process death (temp file + rename + dir fsync).
    if let Some((store, _)) = ckpt {
        store.commit();
    }
    outcomes
        .into_iter()
        .filter_map(crate::fleet::sweep::SweepOutcome::ok)
        .collect()
}

/// One unit of a checkpointed sweep — the resume step every driver's sweep
/// closure goes through. With a `(store, stage)`, a unit already recorded
/// under `stage` is decoded instead of re-run (and counted as resumed),
/// and a freshly run unit's result is recorded as soon as it is known.
/// The sweep commits the store at its barrier once every unit is done.
pub(crate) fn resume_or_run<R: Codec>(
    ckpt: Option<(&CheckpointStore, &str)>,
    unit: &str,
    run: impl FnOnce() -> R,
) -> R {
    if let Some((store, stage)) = ckpt {
        if let Some(saved) = store.lookup(stage, unit).and_then(R::decode) {
            supervisor::record_resumed();
            return saved;
        }
    }
    let result = run();
    if let Some((store, stage)) = ckpt {
        store.record(stage, unit, &result.encode());
    }
    result
}

/// Measures HC_first for every fleet victim under the kernel produced by
/// `make_kernel`, with the aggressor pattern `dp` names (each victim's
/// search runs cold). Chips are swept in parallel per
/// [`Scale::threads`]; records come back in fleet order regardless.
///
/// The sweep is fault-isolating (see [`sweep_fleet`]): a chip whose
/// closure fails permanently (or exhausts [`Scale::max_retries`])
/// contributes no records, and what happened to it is merged into `sweep`
/// so the driver can render the partial fleet with an explicit quarantine
/// footer.
pub(crate) fn collect_hc(
    scale: &Scale,
    fleet: &mut crate::fleet::Fleet,
    make_kernel: impl Fn(&pud_dram::Chip, pud_dram::RowAddr) -> Option<Kernel> + Sync,
    dp: DpSpec,
    sweep: &mut crate::fleet::sweep::SweepReport,
    ctx: Option<&RunCtx<'_>>,
) -> Vec<Record> {
    let per_chip = sweep_fleet(scale, fleet, sweep, ctx, |chip_idx, chip| {
        let _sweep = pud_observe::span(&format!("fleet.sweep.{}", chip.profile.key()));
        let mut records = Vec::new();
        for victim in chip.victim_rows() {
            let Some(kernel) = make_kernel(chip.exec().chip(), victim) else {
                continue;
            };
            let (hc, _) = measure(scale, chip, &kernel, victim, dp, &mut WarmStart::new());
            records.push(Record {
                chip: chip_idx,
                mfr: chip.profile.chip_vendor,
                victim,
                region: chip.exec().chip().geometry().region_of(victim),
                hc,
            });
        }
        records
    });
    per_chip.into_iter().flatten().collect()
}

/// Finite HC values of a record subset.
pub(crate) fn hc_values<'a>(
    records: impl IntoIterator<Item = &'a Record>,
    filter: impl Fn(&Record) -> bool,
) -> Vec<f64> {
    records
        .into_iter()
        .filter(|r| filter(r))
        .filter_map(|r| r.hc.map(|h| h as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::Fleet;
    use crate::patterns;
    use crate::serve::{resolve_with_retry, ProfileKey};
    use pud_dram::Chip;

    #[test]
    fn default_patterns_per_kernel_class() {
        let quick = Scale::quick();
        for class in [PatternClass::RhDs, PatternClass::ComraSs] {
            assert_eq!(
                quick.dp_policy(class),
                DpSpec::Fixed(DataPattern::CHECKER_55)
            );
        }
        assert_eq!(
            quick.dp_policy(PatternClass::Simra(4)),
            DpSpec::Fixed(DataPattern::ZEROS)
        );
        assert_eq!(Scale::full().dp_policy(PatternClass::RhDs), DpSpec::Wcdp);
    }

    #[test]
    fn scales_differ() {
        assert!(Scale::full().use_wcdp);
        assert!(!Scale::quick().use_wcdp);
        assert!(Scale::full().trr_hammers > Scale::quick().trr_hammers);
    }

    #[test]
    fn records_encode_to_pinned_bytes() {
        let measured = Record {
            chip: 3,
            mfr: pud_dram::Manufacturer::ALL[1],
            victim: RowAddr(77),
            region: pud_dram::SubarrayRegion::ALL[2],
            hc: Some(25_000),
        };
        let unflipped = Record {
            hc: None,
            ..measured
        };
        assert_eq!(measured.encode(), "[3,1,77,2,25000]");
        assert_eq!(unflipped.encode(), "[3,1,77,2,null]");
    }

    /// The oracle: each class's kernel built from its paper definition
    /// (not through [`PatternClass`]), measured by the drivers' fleet
    /// sweep. The served value of every family's chip 0 must equal that
    /// chip's first record, victim included.
    #[test]
    fn served_values_equal_driver_records() {
        let scale = Scale::quick();
        let mut fleet = Fleet::build(scale.fleet);
        let families: Vec<(usize, String)> = fleet
            .chips
            .iter()
            .enumerate()
            .filter(|(_, c)| c.chip_index == 0)
            .map(|(i, c)| (i, c.profile.key()))
            .collect();
        assert_eq!(families.len(), 14);
        for class in ["rh-ds", "rh-ss", "comra-ds", "comra-ss"] {
            let make = |c: &Chip, v: RowAddr| match class {
                "rh-ds" => patterns::rowhammer_ds_for(c, v),
                "rh-ss" => patterns::rowhammer_ss_for(c, v),
                "comra-ds" => patterns::comra_ds_for(c, v, false),
                _ => patterns::comra_ss_for(c, v, patterns::DEFAULT_FAR_OFFSET, false),
            };
            let dp = DpSpec::Fixed(DataPattern::CHECKER_55);
            let mut sweep = crate::fleet::sweep::SweepReport::default();
            let records = collect_hc(&scale, &mut fleet, make, dp, &mut sweep, None);
            for (idx, family) in &families {
                let first = records.iter().find(|r| r.chip == *idx).expect("a record");
                let hc = first.hc.map_or("none".to_string(), |h| h.to_string());
                let key =
                    ProfileKey::parse(&format!("family={family};chip=0;pattern={class};dp=0x55"))
                        .expect("valid key");
                let served = resolve_with_retry(&scale, &key);
                assert_eq!(
                    served.value,
                    format!("victim={} hc_first={hc}", first.victim.0),
                    "{}",
                    key.canonical()
                );
            }
        }
    }
}
