//! Struct-of-arrays batching state for the executor's compiled replay.
//!
//! [`crate::DisturbEngine::hammer`] recomputes three pure functions on
//! every event: the per-row vulnerability sample (log-normal resampling
//! through `ln`/`sqrt`/`cos`/`exp`), the per-event factor-curve product
//! (several `LogLogCurve` evaluations plus jitters, each an `ln` + `exp`),
//! and the victim data summary (a bit-by-bit scan of up to 512 cells).
//! All three are deterministic in their inputs, so a replayed command
//! stream — which hammers the same few victim rows with the same few
//! `(pattern, temperature, timing)` combinations millions of times — can
//! compute each product once and serve every later event from a cache
//! without changing a single output bit.
//!
//! [`BatchState`] holds those caches. It belongs to the *caller* (the
//! executor's compiled replay), not to the engine: the uncached
//! [`crate::DisturbEngine::hammer`] stays the reference the executor's
//! interpreter oracle runs on, so differential tests and
//! compiled-vs-interpreted speedup numbers compare against code without
//! the optimisation. Correctness
//! still never depends on the caches — every entry is a pure function of
//! its key, and the data summary (the only entry whose input can mutate)
//! is invalidated by the engine itself when it materializes flips and by
//! the executor at every other row-data write.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use pud_dram::{BankId, Picos, RowAddr};

use crate::event::{AggressionKind, DataSummary, HammerEvent};
use crate::vuln::RowVuln;

/// Multiply-rotate hasher for simulation-internal maps. The keys are
/// small fixed-size structs probed several times per hammer event, where
/// SipHash's hash-flooding resistance buys nothing (keys come from the
/// simulation itself, not from untrusted input) and its per-probe cost
/// dominates a cache hit.
#[derive(Default)]
pub struct FastHasher(u64);

impl FastHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(FastHasher::SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// A `HashMap` using [`FastHasher`] — for hot-path maps keyed by
/// simulation-internal values.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

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

/// Reusable batching state for [`crate::DisturbEngine::hammer_batched`]:
/// pure-function caches (vulnerability samples, factor-curve products,
/// victim data summaries) plus hit statistics.
///
/// One `BatchState` pairs with one engine (the cached values embed the
/// engine's seed, profile, and calibration); sharing it across chips would
/// serve one chip's samples to another. Entries survive across runs —
/// vulnerability and weight entries are immutable facts of the chip, and
/// summary entries are invalidated whenever the underlying row data
/// changes (see [`BatchState::invalidate_row`]).
#[derive(Debug, Default)]
pub struct BatchState {
    pub(crate) vulns: FastMap<(BankId, RowAddr), RowVuln>,
    pub(crate) weights: FastMap<WeightKey, f64>,
    pub(crate) summaries: FastMap<(BankId, RowAddr), DataSummary>,
    /// Eligibility `(p, factor)` keyed by `(class, ones_fraction bits,
    /// beta bits)` — a pure function whose `powf` shows up per event.
    pub(crate) eligs: FastMap<(u8, u64, u64), (f64, f64)>,
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
        if let Some(s) = self.summaries.get(&(bank, row)) {
            self.stats.summary_hits += 1;
            return *s;
        }
        self.stats.summary_misses += 1;
        let s = compute();
        self.summaries.insert((bank, row), s);
        s
    }

    /// Drops the cached data summary of one row. Must be called whenever
    /// the row's data changes outside the engine (writes, in-DRAM copies,
    /// charge-share deposits, fault-injected stuck bits); the engine
    /// invalidates on its own materialized flips.
    pub fn invalidate_row(&mut self, bank: BankId, row: RowAddr) {
        self.summaries.remove(&(bank, row));
    }

    /// Drops every cached entry (summaries, vulnerability samples, and
    /// weights) while keeping the allocated capacity and statistics.
    pub fn clear(&mut self) {
        self.vulns.clear();
        self.weights.clear();
        self.summaries.clear();
        self.eligs.clear();
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
        b.summaries.insert(
            key,
            DataSummary {
                ones_fraction: 0.5,
                checker_fraction: 1.0,
            },
        );
        b.vulns.insert(
            key,
            RowVuln {
                key: 1,
                t_rh: 10.0,
                t_simra: f64::INFINITY,
                comra_factor: 1.0,
                beta: 1.5,
                is_hero: false,
            },
        );
        b.invalidate_row(key.0, key.1);
        assert!(b.summaries.is_empty());
        assert_eq!(b.vulns.len(), 1);
        b.clear();
        assert!(b.vulns.is_empty());
    }
}
