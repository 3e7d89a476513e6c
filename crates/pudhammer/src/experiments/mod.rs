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

use pud_dram::DataPattern;
use pud_observe::json::JsonArray;
use pud_observe::JsonValue;

use crate::fleet::checkpoint::{Codec, RunCtx};
use crate::fleet::supervisor;
use crate::fleet::FleetConfig;
use crate::hcfirst::HcSearch;
use crate::patterns::Kernel;

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

/// The default aggressor data pattern for a kernel class when the full
/// WCDP search is skipped: checkerboard for RowHammer/CoMRA-class kernels
/// (Observation 3), all-zeros for SiMRA (Observations 13–14: the victim
/// then holds 0xFF, the most flippable pattern for 1→0 disturbance).
pub fn default_aggressor_dp(kernel: &Kernel) -> DataPattern {
    match kernel {
        Kernel::Simra { .. } => DataPattern::ZEROS,
        _ => DataPattern::CHECKER_55,
    }
}

pub(crate) fn measure_with_policy(
    scale: &Scale,
    exec: &mut pud_bender::Executor,
    bank: pud_dram::BankId,
    kernel: &Kernel,
    victim: pud_dram::RowAddr,
) -> Option<u64> {
    if scale.use_wcdp {
        crate::wcdp::find_wcdp(exec, bank, kernel, victim, &scale.search).hc
    } else {
        let dp = default_aggressor_dp(kernel);
        crate::hcfirst::measure_hc_first(
            exec,
            bank,
            kernel,
            victim,
            dp,
            dp.negated(),
            &scale.search,
        )
    }
}

pub(crate) fn measure_with_dp(
    scale: &Scale,
    exec: &mut pud_bender::Executor,
    bank: pud_dram::BankId,
    kernel: &Kernel,
    victim: pud_dram::RowAddr,
    dp: DataPattern,
) -> Option<u64> {
    crate::hcfirst::measure_hc_first(exec, bank, kernel, victim, dp, dp.negated(), &scale.search)
}

/// [`measure_with_dp`] with a caller-held warm-start cache, for call sites
/// that measure one victim under several patterns or kernels in a row.
pub(crate) fn measure_with_dp_warm(
    scale: &Scale,
    exec: &mut pud_bender::Executor,
    bank: pud_dram::BankId,
    kernel: &Kernel,
    victim: pud_dram::RowAddr,
    dp: DataPattern,
    warm: &mut crate::hcfirst::WarmStart,
) -> Option<u64> {
    crate::hcfirst::measure_hc_first_warm(
        exec,
        bank,
        kernel,
        victim,
        dp,
        dp.negated(),
        &scale.search,
        warm,
    )
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
/// order — see [`RunCtx::next_stage`]), serves chips already recorded
/// under it from the store instead of re-measuring, and records each
/// freshly completed chip's encoded result as soon as it finishes.
pub(crate) fn sweep_fleet<R: Send + Codec>(
    scale: &Scale,
    fleet: &mut crate::fleet::Fleet,
    sweep: &mut crate::fleet::sweep::SweepReport,
    ctx: Option<&RunCtx<'_>>,
    f: impl Fn(usize, &mut crate::fleet::ChipUnderTest) -> R + Sync,
) -> Vec<R> {
    // Only the (Sync) store and the pre-allocated stage name cross into
    // the workers — RunCtx itself holds the stage counter in a Cell.
    let ckpt = ctx.map(|c| (c.store(), c.next_stage()));
    let threads = scale.sweep_threads(fleet.chips.len());
    let (outcomes, report) = crate::fleet::sweep::sweep_isolated(
        threads,
        scale.sweep_policy(),
        &mut fleet.chips,
        |chip_idx, chip| {
            if let Some((store, stage)) = &ckpt {
                if let Some(saved) = store.lookup(stage, &chip.label()).and_then(R::decode) {
                    supervisor::record_resumed();
                    return saved;
                }
            }
            let result = f(chip_idx, chip);
            if let Some((store, stage)) = &ckpt {
                store.record(stage, &chip.label(), &result.encode());
            }
            result
        },
    );
    sweep.absorb(&report);
    // Sweep barrier: everything recorded above is now made durable against
    // power loss, not just process death (temp file + rename + dir fsync).
    if let Some((store, _)) = &ckpt {
        store.commit();
    }
    outcomes
        .into_iter()
        .filter_map(crate::fleet::sweep::SweepOutcome::ok)
        .collect()
}

/// Measures HC_first for every fleet victim under the kernel produced by
/// `make_kernel`, using `dp` as the aggressor pattern (or the per-class
/// default policy when `None`). Chips are swept in parallel per
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
    dp: Option<DataPattern>,
    sweep: &mut crate::fleet::sweep::SweepReport,
    ctx: Option<&RunCtx<'_>>,
) -> Vec<Record> {
    let per_chip = sweep_fleet(scale, fleet, sweep, ctx, |chip_idx, chip| {
        let _sweep = pud_observe::span(&format!("fleet.sweep.{}", chip.profile.key()));
        let bank = chip.bank();
        let mut records = Vec::new();
        for victim in chip.victim_rows() {
            let Some(kernel) = make_kernel(chip.exec().chip(), victim) else {
                continue;
            };
            let hc = match dp {
                Some(dp) => measure_with_dp(scale, chip.exec(), bank, &kernel, victim, dp),
                None => measure_with_policy(scale, chip.exec(), bank, &kernel, victim),
            };
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

/// Test/debug-only re-exports of internal helpers.
#[doc(hidden)]
pub fn measure_with_dp_pub(
    scale: &Scale,
    exec: &mut pud_bender::Executor,
    bank: pud_dram::BankId,
    kernel: &Kernel,
    victim: pud_dram::RowAddr,
    dp: DataPattern,
) -> Option<u64> {
    measure_with_dp(scale, exec, bank, kernel, victim, dp)
}

/// Test/debug-only re-export of the SiMRA target enumeration.
#[doc(hidden)]
pub fn simra_debug_targets(
    chip: &mut crate::fleet::ChipUnderTest,
    n: u8,
    cap: usize,
) -> Vec<(Kernel, pud_dram::RowAddr)> {
    simra::ds_targets(chip, n, cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pud_dram::{Picos, RowAddr};

    #[test]
    fn default_patterns_per_kernel_class() {
        let rh = Kernel::RowHammerSingle {
            a: RowAddr(1),
            t_aggon: Picos::from_ns(36.0),
        };
        assert_eq!(default_aggressor_dp(&rh), DataPattern::CHECKER_55);
        let si = Kernel::Simra {
            r1: RowAddr(0),
            r2: RowAddr(2),
            act_to_pre: Picos::from_ns(3.0),
            pre_to_act: Picos::from_ns(3.0),
            t_aggon: Picos::from_ns(36.0),
        };
        assert_eq!(default_aggressor_dp(&si), DataPattern::ZEROS);
    }

    #[test]
    fn scales_differ() {
        assert!(Scale::full().use_wcdp);
        assert!(!Scale::quick().use_wcdp);
        assert!(Scale::full().trr_hammers > Scale::quick().trr_hammers);
    }
}
