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
//! The per-row values live in the engine's one record per row (see
//! [`crate::DisturbEngine`]), beside the row's disturbance state and flip
//! history, so a batched hammer event makes one map probe into the
//! engine. The weight — the factor-curve product — depends on the victim
//! and on the event's *shape*: everything else
//! [`crate::DisturbEngine::event_weight`] reads (kind with its timings,
//! on-time, temperature, aggressor data bits, distance). This module holds
//! what the records share:
//!
//! - [`ShapeTable`] interns shapes to dense `u32` ids. A small
//!   direct-mapped memo in front of its map answers the repeating shapes
//!   of a replayed loop with one comparison instead of a hash.
//! - [`WeightSlots`], the inline weight cache of one record, maps shape
//!   ids to weights. Ids are assigned once per distinct shape and never
//!   reused, so a slot whose id matches holds exactly the weight of this
//!   victim under this shape: the cache is exact, not a hash fingerprint.
//! - The backing weight map, keyed by `(bank, row, shape id)`, catches
//!   the shapes a record's few slots evicted.
//!
//! The uncached [`crate::DisturbEngine::hammer`] stays the reference the
//! executor's interpreter oracle runs on, per-bit summary scan included,
//! so differential tests and compiled-vs-interpreted speedup numbers
//! compare against code without the optimisation. Correctness never
//! depends on the caches — every value is a pure function of its key, and
//! the data summary (the only value whose input can mutate) is invalidated
//! by the engine when it materializes flips or a row is rewritten, and by
//! the executor at every other row-data write.

use pud_dram::{BankId, FastMap, Picos, RowAddr};

use crate::event::{AggressionKind, HammerEvent};

/// Everything [`crate::DisturbEngine::event_weight`] reads of an event
/// besides the victim: the full aggression kind (timings included), the
/// aggressor on-time, the exact temperature and aggressor-data bits, and
/// the victim distance. `repeat` scales the accumulation, not the
/// per-cycle weight, so it is not part of the shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct WeightShape {
    kind: AggressionKind,
    t_aggon: Picos,
    temperature_bits: u64,
    aggressor_ones_bits: u64,
    aggressor_checker_bits: u64,
    distance: u32,
}

impl WeightShape {
    pub(crate) fn of(ev: &HammerEvent) -> WeightShape {
        WeightShape {
            kind: ev.kind,
            t_aggon: ev.t_aggon,
            temperature_bits: ev.temperature.0.to_bits(),
            aggressor_ones_bits: ev.aggressor_data.ones_fraction.to_bits(),
            aggressor_checker_bits: ev.aggressor_data.checker_fraction.to_bits(),
            distance: ev.distance,
        }
    }

    /// The memo slot of this shape: kind variant and distance, the fields
    /// that differ between the events one activation emits.
    fn memo_slot(&self) -> usize {
        let variant = match self.kind {
            AggressionKind::RowHammerSingle => 0,
            AggressionKind::RowHammerDouble => 1,
            AggressionKind::RowHammerFarDouble => 2,
            AggressionKind::ComraDouble { .. } => 3,
            AggressionKind::ComraSingle { .. } => 4,
            AggressionKind::SimraDouble { .. } => 5,
            AggressionKind::SimraSingle { .. } => 6,
        };
        variant * 2 + usize::from(self.distance >= 2)
    }
}

/// Memo slots of a [`ShapeTable`]: one per kind variant and distance
/// class.
const MEMO_SLOTS: usize = 14;

/// Interns [`WeightShape`]s to dense ids, first come first numbered.
#[derive(Debug, Default)]
pub(crate) struct ShapeTable {
    ids: FastMap<WeightShape, u32>,
    memo: [Option<(WeightShape, u32)>; MEMO_SLOTS],
}

impl ShapeTable {
    /// The id of `ev`'s shape, assigning the next one to a new shape.
    pub(crate) fn id_of(&mut self, ev: &HammerEvent) -> u32 {
        let shape = WeightShape::of(ev);
        let slot = &mut self.memo[shape.memo_slot()];
        if let Some((s, id)) = slot {
            if *s == shape {
                return *id;
            }
        }
        let next = self.ids.len() as u32;
        let id = *self.ids.entry(shape).or_insert(next);
        *slot = Some((shape, id));
        id
    }
}

/// Inline weight slots of one record.
const WEIGHT_SLOTS: usize = 4;

/// One record's inline weight cache: the weights of its row's most
/// recently inserted shapes, by shape id, newest first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WeightSlots {
    ids: [u32; WEIGHT_SLOTS],
    weights: [f64; WEIGHT_SLOTS],
}

impl WeightSlots {
    /// The id of an empty slot; [`ShapeTable`] never assigns it (it would
    /// need 2^32 distinct shapes).
    const EMPTY: u32 = u32::MAX;

    pub(crate) fn get(&self, id: u32) -> Option<f64> {
        self.ids
            .iter()
            .position(|&s| s == id)
            .map(|i| self.weights[i])
    }

    /// Inserts `id` as the newest slot, evicting the oldest.
    pub(crate) fn insert(&mut self, id: u32, w: f64) {
        self.ids.copy_within(..WEIGHT_SLOTS - 1, 1);
        self.weights.copy_within(..WEIGHT_SLOTS - 1, 1);
        self.ids[0] = id;
        self.weights[0] = w;
    }
}

impl Default for WeightSlots {
    fn default() -> WeightSlots {
        WeightSlots {
            ids: [WeightSlots::EMPTY; WEIGHT_SLOTS],
            weights: [0.0; WEIGHT_SLOTS],
        }
    }
}

/// The engine-wide half of the batched path: the shape table, the backing
/// weight map and the statistics.
#[derive(Debug, Default)]
pub(crate) struct SharedCaches {
    pub(crate) shapes: ShapeTable,
    pub(crate) weights: FastMap<(BankId, RowAddr, u32), f64>,
    pub(crate) stats: BatchStats,
}

/// Hit/miss counts of an engine's batched-path caches (observability only
/// — the counters never influence results).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Vulnerability-sample cache hits.
    pub vuln_hits: u64,
    /// Vulnerability-sample cache misses (fresh log-normal resamples).
    pub vuln_misses: u64,
    /// Factor-curve product cache hits (inline slot or backing map).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DataSummary;
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
    fn shape_ignores_victim_and_repeat_only() {
        let a = event(AggressionKind::RowHammerDouble);
        let mut b = a;
        b.repeat = 9999;
        b.victim = RowAddr(7);
        b.bank = BankId(0);
        assert_eq!(WeightShape::of(&a), WeightShape::of(&b));
        // Every other field participates.
        let mut c = a;
        c.temperature = Celsius(50.0);
        assert_ne!(WeightShape::of(&a), WeightShape::of(&c));
        let mut d = a;
        d.distance = 2;
        assert_ne!(WeightShape::of(&a), WeightShape::of(&d));
        let mut e = a;
        e.aggressor_data = DataSummary::from_pattern(DataPattern::ZEROS);
        assert_ne!(WeightShape::of(&a), WeightShape::of(&e));
        let mut f = a;
        f.kind = AggressionKind::RowHammerSingle;
        assert_ne!(WeightShape::of(&a), WeightShape::of(&f));
        let mut g = a;
        g.t_aggon = Picos::from_ns(70.0);
        assert_ne!(WeightShape::of(&a), WeightShape::of(&g));
    }

    #[test]
    fn shape_ids_are_stable_through_memo_collisions() {
        let mut t = ShapeTable::default();
        let a = event(AggressionKind::RowHammerDouble);
        let mut b = a;
        b.temperature = Celsius(50.0);
        // `a` and `b` share a memo slot and evict each other from it; the
        // map keeps their ids apart.
        let (ia, ib) = (t.id_of(&a), t.id_of(&b));
        assert_ne!(ia, ib);
        for _ in 0..3 {
            assert_eq!(t.id_of(&a), ia);
            assert_eq!(t.id_of(&b), ib);
        }
        assert_eq!(t.id_of(&event(AggressionKind::RowHammerSingle)), 2);
    }

    #[test]
    fn weight_slots_serve_only_their_ids() {
        let mut s = WeightSlots::default();
        assert_eq!(s.get(0), None);
        for id in 0..6u32 {
            s.insert(id, f64::from(id) + 0.5);
        }
        // Oldest first out: ids 0 and 1 were evicted by 4 and 5.
        assert_eq!(s.get(0), None);
        assert_eq!(s.get(1), None);
        for id in 2..6u32 {
            assert_eq!(s.get(id), Some(f64::from(id) + 0.5));
        }
        assert_eq!(s.get(WeightSlots::EMPTY - 1), None);
    }
}
