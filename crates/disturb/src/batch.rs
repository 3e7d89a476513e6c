//! Batching caches for the executor's compiled replay.
//!
//! [`crate::DisturbEngine::hammer`] recomputes four pure functions on
//! every event: the per-row vulnerability sample (log-normal resampling
//! through `ln`/`sqrt`/`cos`/`exp`), the per-event factor-curve product
//! (several `LogLogCurve` evaluations plus jitters, each an `ln` + `exp`),
//! the victim data summary (a bit-by-bit scan of up to 512 cells) and the
//! data-dependent eligibility (a `powf`). All four are deterministic in
//! their inputs, so a replayed command stream — which hammers the same few
//! victim rows with the same few `(pattern, temperature, timing)`
//! combinations millions of times — can compute each once and serve every
//! later event from a cache without changing a single output bit.
//!
//! [`BatchState`] holds two maps. The weight map is keyed by everything
//! the factor-curve product reads. The victim map holds one entry per
//! row: its vulnerability sample, its data summary (counted a word at a
//! time) and, per flip class, its eligibility. A batched hammer event
//! therefore makes one probe per map, and the engine's evaluation works
//! on the victim entry that probe found.
//!
//! The state belongs to the *caller* (the executor's compiled replay), not
//! to the engine: the uncached [`crate::DisturbEngine::hammer`] stays the
//! reference the executor's interpreter oracle runs on, per-bit summary
//! scan included, so differential tests and compiled-vs-interpreted
//! speedup numbers compare against code without the optimisation.
//! Correctness still never depends on the caches — every value is a pure
//! function of its key, and the data summary (the only value whose input
//! can mutate) is invalidated by the engine itself when it materializes
//! flips and by the executor at every other row-data write.

use pud_dram::{BankId, FastMap, Picos, RowAddr};

use crate::event::{AggressionKind, DataSummary, HammerEvent};
use crate::vuln::RowVuln;

/// Cache key capturing every input [`crate::DisturbEngine::event_weight`]
/// reads: the victim identity (which pins the vulnerability sample and the
/// spatial region), the full aggression kind (timings included), the
/// aggressor on-time, the exact temperature and aggressor-data bits, and
/// the victim distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct WeightKey {
    bank: BankId,
    victim: RowAddr,
    kind: AggressionKind,
    t_aggon: Picos,
    temperature_bits: u64,
    aggressor_ones_bits: u64,
    aggressor_checker_bits: u64,
    distance: u32,
}

impl WeightKey {
    /// The weight-cache key of one event (everything but `repeat`, which
    /// scales the accumulation, not the per-cycle weight).
    pub(crate) fn of(ev: &HammerEvent) -> WeightKey {
        WeightKey {
            bank: ev.bank,
            victim: ev.victim,
            kind: ev.kind,
            t_aggon: ev.t_aggon,
            temperature_bits: ev.temperature.0.to_bits(),
            aggressor_ones_bits: ev.aggressor_data.ones_fraction.to_bits(),
            aggressor_checker_bits: ev.aggressor_data.checker_fraction.to_bits(),
            distance: ev.distance,
        }
    }
}

/// Hit/miss counts of one [`BatchState`]'s caches (observability only —
/// the counters never influence results).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Vulnerability-sample cache hits.
    pub vuln_hits: u64,
    /// Vulnerability-sample cache misses (fresh log-normal resamples).
    pub vuln_misses: u64,
    /// Factor-curve product cache hits.
    pub weight_hits: u64,
    /// Factor-curve product cache misses (fresh curve evaluations).
    pub weight_misses: u64,
    /// Victim data-summary cache hits.
    pub summary_hits: u64,
    /// Victim data-summary cache misses (fresh 512-bit scans).
    pub summary_misses: u64,
}

impl BatchStats {
    /// Total cache hits across all three caches.
    pub fn hits(&self) -> u64 {
        self.vuln_hits + self.weight_hits + self.summary_hits
    }

    /// Total cache misses across all three caches.
    pub fn misses(&self) -> u64 {
        self.vuln_misses + self.weight_misses + self.summary_misses
    }
}

/// Everything the batched path caches about one row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VictimEntry {
    /// The row's vulnerability sample, from its first batched hammer on
    /// (aggressor summaries create entries without one).
    pub(crate) vuln: Option<RowVuln>,
    /// The summary of the row's current data; `None` after a write.
    pub(crate) summary: Option<DataSummary>,
    /// Per [`crate::FlipClass`] (by discriminant), the `ones_fraction`
    /// bits of the summary the eligibility `(p, factor)` was computed for,
    /// [`VictimEntry::NO_ELIG`] before the first. The other input,
    /// `beta`, is the row's own and never changes.
    pub(crate) eligs: [(u64, (f64, f64)); 2],
}

impl VictimEntry {
    /// The key of an eligibility slot not computed yet: a NaN pattern no
    /// ones fraction (a ratio of two counts) has. A sentinel instead of an
    /// `Option` keeps the entry, one per touched row, 16 bytes smaller.
    pub(crate) const NO_ELIG: u64 = u64::MAX;
}

impl Default for VictimEntry {
    fn default() -> VictimEntry {
        VictimEntry {
            vuln: None,
            summary: None,
            eligs: [(VictimEntry::NO_ELIG, (0.0, 0.0)); 2],
        }
    }
}

/// One row's [`VictimEntry`] and the statistics its lookups count into,
/// as the batched hammer path hands them down the engine's evaluation.
pub(crate) struct VictimCache<'a> {
    pub(crate) entry: &'a mut VictimEntry,
    pub(crate) stats: &'a mut BatchStats,
}

impl VictimCache<'_> {
    /// The cached summary of the row, computed through `compute` (a scan
    /// of the row's current data) on a miss.
    pub(crate) fn summary_or_else(&mut self, compute: impl FnOnce() -> DataSummary) -> DataSummary {
        if let Some(s) = self.entry.summary {
            self.stats.summary_hits += 1;
            return s;
        }
        self.stats.summary_misses += 1;
        let s = compute();
        self.entry.summary = Some(s);
        s
    }
}

/// Reusable batching state for [`crate::DisturbEngine::hammer_batched`]:
/// pure-function caches (per-row vulnerability samples, data summaries and
/// eligibilities; factor-curve products) plus hit statistics.
///
/// One `BatchState` pairs with one engine (the cached values embed the
/// engine's seed, profile, and calibration); sharing it across chips would
/// serve one chip's samples to another. Entries survive across runs —
/// vulnerability, weight and eligibility values are immutable facts of the
/// chip, and summaries are invalidated whenever the underlying row data
/// changes (see [`BatchState::invalidate_row`]).
#[derive(Debug, Default)]
pub struct BatchState {
    pub(crate) victims: FastMap<(BankId, RowAddr), VictimEntry>,
    pub(crate) weights: FastMap<WeightKey, f64>,
    pub(crate) stats: BatchStats,
}

impl BatchState {
    /// An empty batching state.
    pub fn new() -> BatchState {
        BatchState::default()
    }

    /// The cached data summary of `row`, computing and caching it through
    /// `compute` on a miss. `compute` must scan the row's *current* data;
    /// the entry is dropped by [`BatchState::invalidate_row`] (and by the
    /// engine on materialized flips) whenever that data changes. Rows the
    /// summaries of which can change without an invalidation call (e.g.
    /// rows that do not exist yet) must not go through this cache.
    pub fn summary_or_else(
        &mut self,
        bank: BankId,
        row: RowAddr,
        compute: impl FnOnce() -> DataSummary,
    ) -> DataSummary {
        VictimCache {
            entry: self.victims.entry((bank, row)).or_default(),
            stats: &mut self.stats,
        }
        .summary_or_else(compute)
    }

    /// Drops the cached data summary of one row. Must be called whenever
    /// the row's data changes outside the engine (writes, in-DRAM copies,
    /// charge-share deposits, fault-injected stuck bits); the engine
    /// invalidates on its own materialized flips.
    pub fn invalidate_row(&mut self, bank: BankId, row: RowAddr) {
        if let Some(entry) = self.victims.get_mut(&(bank, row)) {
            entry.summary = None;
        }
    }

    /// Drops every cached entry (per-row entries and weights) while
    /// keeping the allocated capacity and statistics.
    pub fn clear(&mut self) {
        self.victims.clear();
        self.weights.clear();
    }

    /// Cache hit/miss statistics accumulated so far.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pud_dram::{Celsius, DataPattern};

    fn event(kind: AggressionKind) -> HammerEvent {
        HammerEvent::reference(
            BankId(1),
            RowAddr(42),
            kind,
            DataSummary::from_pattern(DataPattern::CHECKER_55),
            100,
        )
    }

    #[test]
    fn weight_key_ignores_repeat_only() {
        let a = event(AggressionKind::RowHammerDouble);
        let mut b = a;
        b.repeat = 9999;
        assert_eq!(WeightKey::of(&a), WeightKey::of(&b));
        // Every other field participates.
        let mut c = a;
        c.temperature = Celsius(50.0);
        assert_ne!(WeightKey::of(&a), WeightKey::of(&c));
        let mut d = a;
        d.distance = 2;
        assert_ne!(WeightKey::of(&a), WeightKey::of(&d));
        let mut e = a;
        e.aggressor_data = DataSummary::from_pattern(DataPattern::ZEROS);
        assert_ne!(WeightKey::of(&a), WeightKey::of(&e));
        let mut f = a;
        f.kind = AggressionKind::RowHammerSingle;
        assert_ne!(WeightKey::of(&a), WeightKey::of(&f));
    }

    #[test]
    fn invalidate_row_touches_only_summaries() {
        let mut b = BatchState::new();
        let key = (BankId(0), RowAddr(7));
        let elig = (0.5f64.to_bits(), (0.5, 1.0));
        b.victims.insert(
            key,
            VictimEntry {
                vuln: Some(RowVuln {
                    key: 1,
                    t_rh: 10.0,
                    t_simra: f64::INFINITY,
                    comra_factor: 1.0,
                    beta: 1.5,
                    is_hero: false,
                }),
                summary: Some(DataSummary {
                    ones_fraction: 0.5,
                    checker_fraction: 1.0,
                }),
                eligs: [elig, (VictimEntry::NO_ELIG, (0.0, 0.0))],
            },
        );
        b.invalidate_row(key.0, key.1);
        assert!(b.victims[&key].summary.is_none());
        assert!(b.victims[&key].vuln.is_some() && b.victims[&key].eligs[0] == elig);
        b.clear();
        assert!(b.victims.is_empty());
    }
}
