//! The disturbance engine: turns hammer events into accumulated disturbance
//! and materialized bitflips.

use std::collections::hash_map::Entry;
use std::collections::HashSet;
use std::hash::BuildHasherDefault;

use pud_dram::{
    BankId, ChipGeometry, FastHasher, FastMap, Manufacturer, ModuleProfile, Picos, RowAddr,
    RowData, RowSlot,
};

use crate::batch::{BatchStats, SharedCaches, WeightSlots};
use crate::calib;
use crate::curve::LogLogCurve;
use crate::event::{AggressionKind, DataSummary, FlipClass, HammerEvent};
use crate::rng;
use crate::vuln::{RowVuln, VulnModel};

/// Maximum bitflips materialized per `hammer` call (the analytic count can
/// exceed the row width; materialization is capped to keep calls bounded).
const MATERIALIZE_CAP: u64 = 4096;

/// A bitflip produced by read disturbance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bitflip {
    /// Column of the flipped cell.
    pub col: u32,
    /// The value the cell flipped *to*.
    pub to: bool,
    /// The flip class responsible.
    pub class: FlipClass,
}

#[derive(Debug, Clone, Copy, Default)]
struct RowState {
    /// Disturbance from pure RowHammer/RowPress aggression.
    a_rh: f64,
    /// Disturbance from CoMRA aggression (same flip class, lossy transfer).
    a_comra: f64,
    /// Disturbance from double-sided SiMRA aggression.
    a_simra: f64,
    emitted_rh: u64,
    emitted_simra: u64,
}

impl RowState {
    /// Adds `repeat` cycles of weight `w` to the accumulator `kind` feeds.
    fn accumulate(&mut self, kind: AggressionKind, w: f64, repeat: u64) {
        let add = w * repeat as f64;
        if kind.is_comra() {
            self.a_comra += add;
        } else {
            match kind.flip_class() {
                FlipClass::RowHammer => self.a_rh += add,
                FlipClass::Simra => self.a_simra += add,
            }
        }
    }

    /// Flips of `class` already materialized since the last restoration.
    fn emitted(&self, class: FlipClass) -> u64 {
        match class {
            FlipClass::RowHammer => self.emitted_rh,
            FlipClass::Simra => self.emitted_simra,
        }
    }
}

/// Columns of one row, hashed with the simulation's hasher (no
/// `RandomState` to seed).
type ColSet = HashSet<u32, BuildHasherDefault<FastHasher>>;

/// A per-[`FlipClass`] eligibility slot: the `ones_fraction` bits of the
/// summary the `(p, factor)` pair was computed for.
type EligSlot = (u64, (f64, f64));

/// The key of an eligibility slot not computed yet: a NaN pattern no ones
/// fraction (a ratio of two counts) has.
const NO_ELIG: u64 = u64::MAX;

/// A stable handle to one row's record in a [`DisturbEngine`], handed
/// out by [`DisturbEngine::record`]. Records are never removed, so a
/// handle stays valid for the engine's lifetime and reaches the record
/// without a map probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordId(u32);

/// The side of a victim row its last aggressor was on, and when that
/// aggressor closed: the executor's pattern detection (double- versus
/// single-sided, far double-sided), kept beside the victim's disturbance
/// state and cleared with it by [`DisturbEngine::restore_all`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SideHistory {
    /// -1: last aggressor physically below the victim; +1: above; 0: none.
    pub last_side: i8,
    /// When the last aggressor closed.
    pub last_end: Picos,
}

/// Everything the engine keeps about one row, in one record: its
/// disturbance state and side history, its flip history, the slot of its
/// data, and the batched path's caches.
#[derive(Debug, Clone)]
struct RowRecord {
    /// Accumulated disturbance and side history; both stand for zero
    /// unless `epoch` is the engine's (see [`DisturbEngine::restore_all`]).
    state: RowState,
    side: SideHistory,
    epoch: u64,
    /// Where the row's data lives in its bank, once the caller has
    /// reached it through the record.
    data: Option<RowSlot>,
    /// Columns already flipped — survives charge restoration (a refresh
    /// preserves the flipped data), cleared only when the row is
    /// rewritten. Boxed on the first flip: most rows never flip, and a
    /// pointer keeps their record small.
    history: Option<Box<ColSet>>,
    /// Batched path: the row's vulnerability sample, from its first
    /// batched hammer on (aggressor summaries create records without one).
    vuln: Option<RowVuln>,
    /// Batched path: the summary of the row's current data; `None` after
    /// a write.
    summary: Option<DataSummary>,
    /// Batched path: per [`FlipClass`] (by discriminant), the eligibility
    /// of the last summary it was computed for. The other input, `beta`,
    /// is the row's own and never changes.
    eligs: [EligSlot; 2],
    /// Batched path: the row's weights under recent event shapes.
    weights: WeightSlots,
}

impl Default for RowRecord {
    fn default() -> RowRecord {
        RowRecord {
            state: RowState::default(),
            side: SideHistory::default(),
            epoch: 0,
            data: None,
            history: None,
            vuln: None,
            summary: None,
            eligs: [(NO_ELIG, (0.0, 0.0)); 2],
            weights: WeightSlots::default(),
        }
    }
}

impl RowRecord {
    /// Cells already flipped.
    fn flipped(&self) -> u64 {
        self.history.as_ref().map_or(0, |h| h.len() as u64)
    }

    /// The row's state under restore epoch `epoch`.
    fn state_at(&self, epoch: u64) -> RowState {
        if self.epoch == epoch {
            self.state
        } else {
            RowState::default()
        }
    }

    /// Moves the record to `epoch`, zeroing its state and side history
    /// if they predate it.
    fn renew(&mut self, epoch: u64) {
        if self.epoch != epoch {
            self.state = RowState::default();
            self.side = SideHistory::default();
            self.epoch = epoch;
        }
    }

    /// The row's state under `epoch`, zeroed first if it predates it.
    fn live_state(&mut self, epoch: u64) -> &mut RowState {
        self.renew(epoch);
        &mut self.state
    }

    /// The cached vulnerability sample, drawn from `model` on a miss.
    fn vuln(&mut self, model: &VulnModel, ev: &HammerEvent, stats: &mut BatchStats) -> RowVuln {
        match self.vuln {
            Some(v) => {
                stats.vuln_hits += 1;
                v
            }
            None => {
                stats.vuln_misses += 1;
                let v = model.row_vuln(ev.bank, ev.victim);
                self.vuln = Some(v);
                v
            }
        }
    }

    /// The cached summary of the row, computed through `compute` (a scan
    /// of the row's current data) on a miss.
    fn summary_or_else(
        &mut self,
        stats: &mut BatchStats,
        compute: impl FnOnce() -> DataSummary,
    ) -> DataSummary {
        if let Some(s) = self.summary {
            stats.summary_hits += 1;
            return s;
        }
        stats.summary_misses += 1;
        let s = compute();
        self.summary = Some(s);
        s
    }
}

/// One event of a [`VictimForecast`]: its kind, per-cycle weight and
/// cycle count.
#[derive(Debug, Clone, Copy)]
struct Weighted {
    kind: AggressionKind,
    w: f64,
    repeat: u64,
}

/// A victim row's first flip under a bulk-replayed loop, as a function of
/// the loop's bulk multiplier.
///
/// A counted loop of more than three iterations is replayed as two
/// explicit iterations, then each event of the second (steady-state)
/// iteration applied once with `repeat × bulk`, then the tail the closing
/// flush emits. Only the bulk accumulation depends on `bulk`, so a
/// snapshot of the victim's state at the start of the bulk phase plus its
/// weighted steady-state and tail events answers "does the victim flip"
/// for every `bulk` with the engine's own float operations, in the
/// engine's order ([`DisturbEngine::hammer`]'s accumulate-then-evaluate),
/// without replaying. Built by [`DisturbEngine::forecast`].
#[derive(Debug, Clone)]
pub struct VictimForecast {
    vuln: RowVuln,
    summary: DataSummary,
    cols: u32,
    start: RowState,
    steady: Vec<Weighted>,
    tail: Vec<Weighted>,
}

impl VictimForecast {
    /// Whether the victim flips when the steady-state events are applied
    /// with `repeat × bulk` cycles and the tail events after them.
    pub fn flips_after(&self, bulk: u64) -> bool {
        let steady = self.steady.iter().map(|e| Weighted {
            repeat: e.repeat.saturating_mul(bulk),
            ..*e
        });
        let mut st = self.start;
        for e in steady.chain(self.tail.iter().copied()) {
            st.accumulate(e.kind, e.w, e.repeat);
            let flips = [FlipClass::RowHammer, FlipClass::Simra]
                .into_iter()
                .any(|class| {
                    let t_base = self.vuln.base_threshold(class);
                    t_base.is_finite()
                        && visible_flips(
                            t_base,
                            st,
                            &self.vuln,
                            class,
                            &self.summary,
                            self.cols,
                            None,
                        ) > st.emitted(class)
                });
            if flips {
                return true;
            }
        }
        false
    }
}

/// The calibrated model an event's weight is computed from: the
/// vulnerability sampler and the factor curves.
#[derive(Debug, Clone)]
struct Factors {
    model: VulnModel,
    press_rh: LogLogCurve,
    press_comra: LogLogCurve,
    comra_timing: LogLogCurve,
    simra_act_pre: LogLogCurve,
    simra_pre_act: LogLogCurve,
    temp_comra: LogLogCurve,
    spatial_rh: [f64; 5],
}

impl Factors {
    fn event_weight(&self, ev: &HammerEvent, vuln: &RowVuln) -> f64 {
        let mfr = self.model.manufacturer();
        let mut w = match ev.kind {
            AggressionKind::RowHammerSingle => calib::SS_ROWHAMMER_WEIGHT,
            AggressionKind::RowHammerDouble => 1.0,
            AggressionKind::RowHammerFarDouble => calib::FAR_DS_ROWHAMMER_WEIGHT,
            AggressionKind::ComraDouble {
                pre_to_act,
                reversed,
            } => {
                vuln.comra_factor
                    * vuln.comra_trend_jitter()
                    * self.comra_timing.eval(pre_to_act.as_ns().max(1e-3))
                    * vuln.direction_factor(reversed)
            }
            AggressionKind::ComraSingle { reversed, .. } => {
                calib::FAR_DS_ROWHAMMER_WEIGHT
                    * calib::SS_COMRA_BONUS
                    * vuln.direction_factor(reversed)
            }
            AggressionKind::SimraDouble {
                n_rows,
                act_to_pre,
                pre_to_act,
            } => {
                (1.0 / vuln.simra_n_factor(n_rows))
                    * self.simra_act_pre.eval(act_to_pre.as_ns().max(1e-3))
                    * self.simra_pre_act.eval(pre_to_act.as_ns().max(1e-3))
            }
            AggressionKind::SimraSingle { n_rows, .. } => {
                calib::SS_ROWHAMMER_WEIGHT * calib::ss_simra_n_trend(n_rows)
            }
        };
        // Aggressor on-time (RowPress response).
        let t_on = ev.t_aggon.as_ns().max(calib::T_RAS_NS);
        w *= match ev.kind {
            k if k.is_comra() => self.press_comra.eval(t_on),
            AggressionKind::SimraDouble { n_rows, .. } => {
                calib::press_curve_simra(n_rows).eval(t_on)
            }
            _ => self.press_rh.eval(t_on),
        };
        // Temperature.
        let t = ev.temperature.0;
        w *= match ev.kind {
            k if k.is_comra() => self.temp_comra.eval(t.max(1.0)),
            AggressionKind::SimraDouble { n_rows, .. } => {
                calib::temp_curve_simra(n_rows).eval(t.max(1.0))
            }
            // RowHammer has no clear systematic temperature trend
            // (Observation 4 discussion / prior work [145, 153]).
            _ => 1.0,
        };
        w *= vuln.temp_jitter(t);
        // Aggressor data pattern. RowHammer-class disturbance rewards
        // bitline toggling (checkerboard is the usual worst case,
        // Observation 3, normalized to 1.0); SiMRA's data dependence is
        // victim-side only (Observations 13-14), so sandwiched SiMRA
        // victims see no aggressor-pattern bonus.
        let mut dp = if matches!(ev.kind, AggressionKind::SimraDouble { .. }) {
            1.0
        } else {
            (1.0 + calib::CHECKER_BONUS * ev.aggressor_data.checker_fraction)
                / (1.0 + calib::CHECKER_BONUS)
        };
        if mfr == Manufacturer::Nanya && ev.aggressor_data.checker_fraction < 0.25 {
            dp *= calib::NANYA_SOLID_PENALTY;
        }
        dp *= vuln.dp_jitter(ev.aggressor_data.fingerprint());
        w *= dp;
        // Spatial variation across the subarray.
        let region = self.model.geometry().region_of(ev.victim);
        w *= match ev.kind {
            AggressionKind::SimraDouble { n_rows, .. } => {
                calib::spatial_weight(&calib::spatial_weights_simra(n_rows), region)
            }
            _ => calib::spatial_weight(&self.spatial_rh, region),
        };
        // Blast radius.
        if ev.distance >= 2 {
            w *= calib::DISTANCE2_WEIGHT;
        }
        w
    }
}

/// Per-chip read-disturbance engine.
///
/// The engine accumulates disturbance per victim row and materializes
/// bitflips into the caller-provided row data when thresholds are crossed.
/// Charge restoration (victim activation, refresh, or rewrite) must be
/// reported via [`DisturbEngine::restore`], which resets the row's
/// accumulators — this is the mechanism that makes Target Row Refresh
/// effective against RowHammer (§7).
///
/// Each row the engine has seen has one record: its disturbance state and
/// side history, its flip history, the slot of its data, and the batched
/// path's per-row caches (see [`crate::batch`]). [`DisturbEngine::record`]
/// finds it with one map probe and hands out a [`RecordId`] that reaches
/// it with none, so a caller that keeps the id pays one probe per event
/// at most.
#[derive(Debug)]
pub struct DisturbEngine {
    factors: Factors,
    records: Vec<RowRecord>,
    index: FastMap<(BankId, RowAddr), u32>,
    /// Bumped by [`DisturbEngine::restore_all`]: a record's state counts
    /// only under the epoch it was written in.
    epoch: u64,
    shared: SharedCaches,
}

impl DisturbEngine {
    /// Creates an engine for chip `chip_index` of `profile` under a fleet
    /// seed.
    pub fn new(
        profile: &ModuleProfile,
        geometry: ChipGeometry,
        chip_index: u32,
        seed: u64,
    ) -> DisturbEngine {
        let mfr = profile.chip_vendor;
        DisturbEngine {
            factors: Factors {
                model: VulnModel::new(profile, geometry, chip_index, seed),
                press_rh: calib::press_curve_rowhammer(),
                press_comra: calib::press_curve_comra(),
                comra_timing: calib::comra_timing_curve(mfr),
                simra_act_pre: calib::simra_act_pre_curve(),
                simra_pre_act: calib::simra_pre_act_curve(),
                temp_comra: calib::temp_curve_comra(mfr),
                spatial_rh: calib::spatial_weights_rh(mfr),
            },
            records: Vec::new(),
            index: FastMap::default(),
            epoch: 0,
            shared: SharedCaches::default(),
        }
    }

    /// The vulnerability sampler backing this engine.
    pub fn model(&self) -> &VulnModel {
        &self.factors.model
    }

    /// The record of `row` in `bank`, created (empty) on first use: the
    /// one map probe of a caller that keeps the returned id.
    pub fn record(&mut self, bank: BankId, row: RowAddr) -> RecordId {
        let next = self.records.len() as u32;
        let i = *self.index.entry((bank, row)).or_insert(next);
        if i == next {
            self.records.push(RowRecord::default());
        }
        RecordId(i)
    }

    fn existing(&self, bank: BankId, row: RowAddr) -> Option<&RowRecord> {
        self.index
            .get(&(bank, row))
            .map(|&i| &self.records[i as usize])
    }

    fn existing_mut(&mut self, bank: BankId, row: RowAddr) -> Option<&mut RowRecord> {
        let i = *self.index.get(&(bank, row))?;
        Some(&mut self.records[i as usize])
    }

    /// The side history of the record's row under the current restore
    /// epoch (zeroed if it predates it).
    pub fn side_mut(&mut self, id: RecordId) -> &mut SideHistory {
        let rec = &mut self.records[id.0 as usize];
        rec.renew(self.epoch);
        &mut rec.side
    }

    /// The slot of the record's row data, as last set by
    /// [`DisturbEngine::set_data_slot`].
    pub fn data_slot(&self, id: RecordId) -> Option<RowSlot> {
        self.records[id.0 as usize].data
    }

    /// Remembers where the record's row data lives in its bank.
    pub fn set_data_slot(&mut self, id: RecordId, slot: RowSlot) {
        self.records[id.0 as usize].data = Some(slot);
    }

    /// Applies a batch of hammer cycles to a victim row, materializing any
    /// resulting bitflips into `victim_data` and appending them to `out`.
    ///
    /// The uncached reference for [`DisturbEngine::hammer_batched`]: every
    /// per-event value is recomputed from the model.
    pub fn hammer(&mut self, ev: &HammerEvent, victim_data: &mut RowData, out: &mut Vec<Bitflip>) {
        let id = self.record(ev.bank, ev.victim);
        self.hammer_record(id, ev, victim_data, out);
    }

    /// [`DisturbEngine::hammer`] on the record `id`, which must be the
    /// record of the event's victim.
    pub fn hammer_record(
        &mut self,
        id: RecordId,
        ev: &HammerEvent,
        victim_data: &mut RowData,
        out: &mut Vec<Bitflip>,
    ) {
        // A batched event with repeat N stands for N applied disturbance
        // events; the profiler's work counter weights it accordingly.
        pud_observe::profile::work_events(ev.repeat);
        let vuln = self.factors.model.row_vuln(ev.bank, ev.victim);
        let w = self.factors.event_weight(ev, &vuln);
        let rec = &mut self.records[id.0 as usize];
        apply_weighted(rec, self.epoch, ev, &vuln, w, victim_data, out, None);
    }

    /// As [`DisturbEngine::hammer`], with the per-row vulnerability
    /// sample, data summary, eligibilities and weight served from the
    /// victim's record (one map probe) and the event's shape id from the
    /// shape table's memo. Every cached value is a pure function of its
    /// key, and the word-parallel summary counts exactly what the per-bit
    /// reference counts, so the accumulated disturbance and the
    /// materialized flips are bit-identical to the uncached path — the
    /// compiled executor replay leans on this.
    pub fn hammer_batched(
        &mut self,
        ev: &HammerEvent,
        victim_data: &mut RowData,
        out: &mut Vec<Bitflip>,
    ) {
        let id = self.record(ev.bank, ev.victim);
        self.hammer_batched_record(id, ev, victim_data, out);
    }

    /// [`DisturbEngine::hammer_batched`] on the record `id`, which must be
    /// the record of the event's victim: no map probe unless the weight
    /// misses the record's slots.
    pub fn hammer_batched_record(
        &mut self,
        id: RecordId,
        ev: &HammerEvent,
        victim_data: &mut RowData,
        out: &mut Vec<Bitflip>,
    ) {
        pud_observe::profile::work_events(ev.repeat);
        let DisturbEngine {
            factors,
            records,
            epoch,
            shared,
            ..
        } = self;
        let shape = shared.shapes.id_of(ev);
        let stats = &mut shared.stats;
        let rec = &mut records[id.0 as usize];
        let vuln = rec.vuln(&factors.model, ev, stats);
        let w = match rec.weights.get(shape) {
            Some(w) => {
                stats.weight_hits += 1;
                w
            }
            None => {
                let w = match shared.weights.entry((ev.bank, ev.victim, shape)) {
                    Entry::Occupied(e) => {
                        stats.weight_hits += 1;
                        *e.get()
                    }
                    Entry::Vacant(e) => {
                        stats.weight_misses += 1;
                        *e.insert(factors.event_weight(ev, &vuln))
                    }
                };
                rec.weights.insert(shape, w);
                w
            }
        };
        apply_weighted(rec, *epoch, ev, &vuln, w, victim_data, out, Some(stats));
    }

    /// The cached data summary of the record's row, computing and caching
    /// it through `compute` on a miss. `compute` must scan the row's
    /// *current* data; the cache is dropped by
    /// [`DisturbEngine::invalidate_summary`], by [`DisturbEngine::rewrite`]
    /// and by the engine's own materialized flips whenever that data
    /// changes. Rows whose data can change without one of those calls
    /// (e.g. rows that do not exist yet) must not go through this cache.
    pub fn summary_or_else(
        &mut self,
        id: RecordId,
        compute: impl FnOnce() -> DataSummary,
    ) -> DataSummary {
        self.records[id.0 as usize].summary_or_else(&mut self.shared.stats, compute)
    }

    /// Drops the cached data summary of one row. Must be called whenever
    /// the row's data changes outside the engine (in-DRAM copies,
    /// charge-share deposits, fault-injected stuck bits); the engine drops
    /// it on its own materialized flips and on [`DisturbEngine::rewrite`].
    pub fn invalidate_summary(&mut self, bank: BankId, row: RowAddr) {
        if let Some(rec) = self.existing_mut(bank, row) {
            rec.summary = None;
        }
    }

    /// [`DisturbEngine::invalidate_summary`] by record.
    pub fn invalidate_summary_record(&mut self, id: RecordId) {
        self.records[id.0 as usize].summary = None;
    }

    /// Hit/miss statistics of the batched path's caches.
    pub fn batch_stats(&self) -> BatchStats {
        self.shared.stats
    }

    /// Reports charge restoration of a victim row (activation or refresh):
    /// accumulated disturbance is cleared, but the record of already
    /// flipped cells survives — refresh preserves the (corrupted) data.
    pub fn restore(&mut self, bank: BankId, row: RowAddr) {
        if let Some(rec) = self.existing_mut(bank, row) {
            rec.state = RowState::default();
        }
    }

    /// [`DisturbEngine::restore`] by record.
    pub fn restore_record(&mut self, id: RecordId) {
        self.records[id.0 as usize].state = RowState::default();
    }

    /// Reports that a row's data was rewritten: disturbance, the
    /// flipped-cell history and the cached data summary are cleared.
    pub fn rewrite(&mut self, bank: BankId, row: RowAddr) {
        if let Some(rec) = self.existing_mut(bank, row) {
            rec.state = RowState::default();
            if let Some(h) = &mut rec.history {
                h.clear();
            }
            rec.summary = None;
        }
    }

    /// Clears all accumulated disturbance and side histories (e.g. a full
    /// refresh cycle) in constant time: records written before the new
    /// epoch read as zero.
    pub fn restore_all(&mut self) {
        self.epoch += 1;
    }

    /// Accumulated disturbance of a row, in effective hammers, as
    /// `(rowhammer_class, simra_class)`.
    pub fn accumulated(&self, bank: BankId, row: RowAddr) -> (f64, f64) {
        self.existing(bank, row).map_or((0.0, 0.0), |r| {
            let s = r.state_at(self.epoch);
            (s.a_rh, s.a_simra)
        })
    }

    /// Freezes `victim`'s disturbance state and data summary (`data` is
    /// its current content) as the start of a [`VictimForecast`], or
    /// `None` if the row has flipped cells on record: with a clean history
    /// the first crossing always materializes a flip, which is what makes
    /// the forecast's threshold test the whole answer.
    pub fn forecast(
        &self,
        bank: BankId,
        victim: RowAddr,
        data: &RowData,
    ) -> Option<VictimForecast> {
        let rec = self.existing(bank, victim);
        if rec.is_some_and(|r| r.flipped() > 0) {
            return None;
        }
        Some(VictimForecast {
            vuln: self.factors.model.row_vuln(bank, victim),
            summary: DataSummary::from_row(data),
            cols: data.cols(),
            start: rec.map_or_else(RowState::default, |r| r.state_at(self.epoch)),
            steady: Vec::new(),
            tail: Vec::new(),
        })
    }

    /// Appends `ev`, an event of the loop's steady-state iteration on the
    /// forecast's victim, with the weight [`DisturbEngine::hammer`] gives it.
    pub fn forecast_steady(&self, forecast: &mut VictimForecast, ev: &HammerEvent) {
        let e = self.weighted(forecast, ev);
        forecast.steady.push(e);
    }

    /// Appends `ev`, an event the loop's closing flush emits on the
    /// forecast's victim after the bulk phase.
    pub fn forecast_tail(&self, forecast: &mut VictimForecast, ev: &HammerEvent) {
        let e = self.weighted(forecast, ev);
        forecast.tail.push(e);
    }

    fn weighted(&self, forecast: &VictimForecast, ev: &HammerEvent) -> Weighted {
        Weighted {
            kind: ev.kind,
            w: self.event_weight(ev, &forecast.vuln),
            repeat: ev.repeat,
        }
    }

    /// The per-event weight (effective hammers per cycle) an event carries
    /// for its victim. Exposed for analysis and white-box testing.
    pub fn event_weight(&self, ev: &HammerEvent, vuln: &RowVuln) -> f64 {
        self.factors.event_weight(ev, vuln)
    }
}

/// Shared back half of the hammer paths: accumulates the weighted
/// disturbance into `rec` and evaluates both flip classes against the
/// (stale, as of before this event) state snapshot. `stats` is `Some` on
/// the batched path, which then serves the summary and eligibilities from
/// `rec`.
#[allow(clippy::too_many_arguments)]
fn apply_weighted(
    rec: &mut RowRecord,
    epoch: u64,
    ev: &HammerEvent,
    vuln: &RowVuln,
    w: f64,
    victim_data: &mut RowData,
    out: &mut Vec<Bitflip>,
    mut stats: Option<&mut BatchStats>,
) {
    let st = {
        let st = rec.live_state(epoch);
        st.accumulate(ev.kind, w, ev.repeat);
        *st
    };
    for c in [FlipClass::RowHammer, FlipClass::Simra] {
        evaluate_flips_into(rec, vuln, st, c, victim_data, out, stats.as_deref_mut());
    }
}

/// Data-dependent eligibility threshold multiplier of `class` for a
/// victim holding `summary`: the fraction of cells whose stored value can
/// flip under the class's direction mix, normalized to the worst-case
/// data pattern.
fn eligibility(class: FlipClass, summary: &DataSummary, beta: f64) -> (f64, f64) {
    let dom = class.dominant_fraction();
    let frac_src_dom = if class.dominant_source_bit() {
        summary.ones_fraction
    } else {
        1.0 - summary.ones_fraction
    };
    let p = (dom * frac_src_dom + (1.0 - dom) * (1.0 - frac_src_dom)).max(1e-3);
    let factor = (class.reference_eligibility() / p).powf(1.0 / beta);
    (p, factor)
}

/// [`eligibility`] through the victim record's slots when available: the
/// result is pure in `(class, ones_fraction, beta)`, `beta` is the
/// record's own row's, and the `powf` is a measurable slice of a
/// cache-hit hammer call.
fn eligibility_cached(
    class: FlipClass,
    summary: &DataSummary,
    beta: f64,
    eligs: Option<&mut [EligSlot; 2]>,
) -> (f64, f64) {
    let Some(eligs) = eligs else {
        return eligibility(class, summary, beta);
    };
    let ones = summary.ones_fraction.to_bits();
    let slot = &mut eligs[class as usize];
    if slot.0 != ones {
        *slot = (ones, eligibility(class, summary, beta));
    }
    slot.1
}

/// Effective progress (in absolute effective hammers) counted toward
/// `class` flips, with the §6 pattern couplings: same-class but
/// cross-pattern progress transfers at `κ = 0.25` (CoMRA → RowHammer),
/// cross-class progress at `γ = 0.2` (SiMRA → RowHammer).
///
/// Conditioning transfers only *into* the actively driven lineage — an
/// already pre-hammered lineage receives nothing, which is what makes the
/// §6 staged patterns reduce HC_first by 1.34×/1.22×/1.66× instead of
/// firing during their pre-hammer stages. Cross-class progress is
/// normalized by the *effective* (eligibility-adjusted) threshold of the
/// contributing class.
fn effective_progress(
    st: RowState,
    vuln: &RowVuln,
    class: FlipClass,
    summary: &DataSummary,
) -> f64 {
    let k = calib::SAME_CLASS_PATTERN_COUPLING;
    let g = calib::CROSS_CLASS_COUPLING;
    match class {
        FlipClass::RowHammer => {
            let cross = if vuln.t_simra.is_finite() && st.a_rh > 0.0 && st.a_simra > 0.0 {
                let (_, elig_simra) = eligibility(FlipClass::Simra, summary, vuln.beta);
                let (_, elig_rh) = eligibility(FlipClass::RowHammer, summary, vuln.beta);
                g * st.a_simra / (vuln.t_simra * elig_simra) * vuln.t_rh * elig_rh
            } else {
                0.0
            };
            (st.a_rh + k * st.a_comra + cross).max(st.a_comra)
        }
        FlipClass::Simra => {
            let cross = if st.a_simra > 0.0 && st.a_rh + st.a_comra > 0.0 {
                let (_, elig_simra) = eligibility(FlipClass::Simra, summary, vuln.beta);
                let (_, elig_rh) = eligibility(FlipClass::RowHammer, summary, vuln.beta);
                calib::CROSS_CLASS_COUPLING_TO_SIMRA * (st.a_rh + st.a_comra)
                    / (vuln.t_rh * elig_rh)
                    * vuln.t_simra
                    * elig_simra
            } else {
                0.0
            };
            st.a_simra + cross
        }
    }
}

/// The threshold test of [`evaluate_flips_into`]: how many cells of
/// `class` a victim in state `st` holding `summary` shows flipped (0 below
/// `t_first`), before subtracting the ones already materialized. Shared
/// with [`VictimForecast::flips_after`], so the forecast runs the live
/// path's float operations.
fn visible_flips(
    t_base: f64,
    st: RowState,
    vuln: &RowVuln,
    class: FlipClass,
    summary: &DataSummary,
    cols: u32,
    eligs: Option<&mut [EligSlot; 2]>,
) -> u64 {
    let progress = effective_progress(st, vuln, class, summary);
    if progress <= 0.0 {
        return 0;
    }
    let (p, elig_factor) = eligibility_cached(class, summary, vuln.beta, eligs);
    let t_first = t_base * elig_factor;
    if progress < t_first {
        return 0;
    }
    let crossed = (progress / t_first).powf(vuln.beta).floor() as u64;
    let eligible_cells = (p * f64::from(cols)).ceil() as u64;
    crossed.min(eligible_cells)
}

fn evaluate_flips_into(
    rec: &mut RowRecord,
    vuln: &RowVuln,
    st: RowState,
    class: FlipClass,
    victim_data: &mut RowData,
    out: &mut Vec<Bitflip>,
    stats: Option<&mut BatchStats>,
) {
    let t_base = vuln.base_threshold(class);
    if !t_base.is_finite() {
        return;
    }
    // Data-dependent eligibility: fraction of the victim's cells whose
    // stored value lets them flip under this class's direction mix. The
    // batched path serves the summary from the victim's record; it is
    // invalidated below whenever this call mutates the row, so the cached
    // value always equals a fresh scan. The uncached path scans one bit at
    // a time, the reference the word-parallel scan matches.
    let cached = stats.is_some();
    let summary = match stats {
        Some(stats) => rec.summary_or_else(stats, || DataSummary::from_row(victim_data)),
        None => DataSummary::from_row_per_bit(victim_data),
    };
    let visible = visible_flips(
        t_base,
        st,
        vuln,
        class,
        &summary,
        victim_data.cols(),
        cached.then_some(&mut rec.eligs),
    );
    if visible == 0 {
        return;
    }
    // Cells flipped before the last charge restoration stay flipped: the
    // weak-cell walk continues past them instead of re-counting them after
    // a refresh.
    let already = st.emitted(class).max(rec.flipped());
    if visible <= already {
        return;
    }
    let fresh = (visible - already).min(MATERIALIZE_CAP);
    let before = out.len();
    out.reserve(fresh as usize);
    let cols = victim_data.cols();
    let history = rec.history.get_or_insert_with(Box::default);
    let class_tag = match class {
        FlipClass::RowHammer => 0xA1u64,
        FlipClass::Simra => 0xA2u64,
    };
    for i in already + 1..=already + fresh {
        let dominant = rng::unit(&[vuln.key(), class_tag, i, 0x10]) < class.dominant_fraction();
        let preferred = if dominant {
            class.dominant_source_bit()
        } else {
            !class.dominant_source_bit()
        };
        // Probe pseudo-random columns for a cell currently storing the
        // source value; if the drawn direction has no eligible cells left
        // (e.g. a solid victim), the opposite-direction population carries
        // the flip — the eligibility factor already priced the direction
        // mix into the threshold.
        let mut found = None;
        'directions: for src in [preferred, !preferred] {
            for probe in 0..96u64 {
                let col = (rng::mix_all(&[vuln.key(), class_tag, i, 0x20 + probe])
                    % u64::from(cols)) as u32;
                if victim_data.bit(col) == src && !history.contains(&col) {
                    found = Some((col, src));
                    break 'directions;
                }
            }
        }
        if let Some((col, src)) = found {
            history.insert(col);
            victim_data.set_bit(col, !src);
            out.push(Bitflip {
                col,
                to: !src,
                class,
            });
        }
    }
    // The victim data changed: drop the cached summary so the next
    // evaluation (including the second class of this very event, and any
    // later batched event after an uncached one) rescans the mutated row.
    if out.len() > before {
        rec.summary = None;
    }
    match class {
        FlipClass::RowHammer => rec.state.emitted_rh = already + fresh,
        FlipClass::Simra => rec.state.emitted_simra = already + fresh,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::HammerEvent;
    use pud_dram::profiles::TESTED_MODULES;
    use pud_dram::{DataPattern, Picos};

    fn engine(profile_idx: usize) -> DisturbEngine {
        DisturbEngine::new(
            &TESTED_MODULES[profile_idx],
            ChipGeometry::scaled_for_tests(),
            0,
            7,
        )
    }

    fn checker_event(kind: AggressionKind, repeat: u64) -> HammerEvent {
        HammerEvent::reference(
            BankId(0),
            RowAddr(10),
            kind,
            DataSummary::from_pattern(DataPattern::CHECKER_55),
            repeat,
        )
    }

    /// The flips one uncached [`DisturbEngine::hammer`] call produces.
    fn hammer(e: &mut DisturbEngine, ev: &HammerEvent, v: &mut RowData) -> Vec<Bitflip> {
        let mut flips = Vec::new();
        e.hammer(ev, v, &mut flips);
        flips
    }

    fn victim_row() -> RowData {
        RowData::filled(1024, DataPattern::CHECKER_AA)
    }

    #[test]
    fn no_flips_below_threshold() {
        let mut e = engine(1);
        let mut v = victim_row();
        let ev = checker_event(AggressionKind::RowHammerDouble, 10);
        assert!(hammer(&mut e, &ev, &mut v).is_empty());
        assert!(v.matches_pattern(DataPattern::CHECKER_AA));
    }

    #[test]
    fn rowhammer_flips_after_threshold() {
        let mut e = engine(1);
        let vuln = e.model().row_vuln(BankId(0), RowAddr(10));
        let mut v = victim_row();
        // Hammer far past the threshold in one batch.
        let ev = checker_event(AggressionKind::RowHammerDouble, (vuln.t_rh * 60.0) as u64);
        let flips = hammer(&mut e, &ev, &mut v);
        assert!(flips.len() > 20, "expected many flips, got {}", flips.len());
        // The victim data actually changed.
        assert!(v.diff_count(&victim_row()) as usize >= flips.len().min(1));
        // RowHammer-class flips dominate 0→1 (55/45 direction mix).
        let up = flips.iter().filter(|f| f.to).count() as f64 / flips.len() as f64;
        assert!(up > 0.42, "dominant direction should be 0->1, up={up}");
    }

    #[test]
    fn batched_path_is_bit_identical_to_plain_hammer() {
        // Drive both paths through the full lifecycle — sub-threshold
        // accumulation, the first flips, massive over-hammering, restore,
        // and a temperature change — and require identical flips, identical
        // victim data, and identical f64 accumulator state at every step.
        let mut plain = engine(1);
        let mut batched = engine(1);
        let mut v_plain = victim_row();
        let mut v_batched = victim_row();
        let vuln = plain.model().row_vuln(BankId(0), RowAddr(10));
        let kinds = [
            AggressionKind::RowHammerDouble,
            AggressionKind::RowHammerSingle,
            AggressionKind::ComraDouble {
                pre_to_act: Picos::from_ns(7.5),
                reversed: false,
            },
            AggressionKind::SimraDouble {
                n_rows: 4,
                act_to_pre: Picos::from_ns(3.0),
                pre_to_act: Picos::from_ns(3.0),
            },
        ];
        let repeats = [10, 500, (vuln.t_rh * 20.0) as u64, 100, 100_000];
        for (step, &repeat) in repeats.iter().enumerate() {
            for kind in kinds {
                let mut ev = checker_event(kind, repeat);
                if step == 4 {
                    ev.temperature = pud_dram::Celsius(50.0);
                }
                let expected = hammer(&mut plain, &ev, &mut v_plain);
                let mut got = Vec::new();
                batched.hammer_batched(&ev, &mut v_batched, &mut got);
                assert_eq!(expected, got, "flips diverge at step {step} {kind:?}");
                assert_eq!(
                    v_plain, v_batched,
                    "victim data diverges at step {step} {kind:?}"
                );
                assert_eq!(
                    plain.accumulated(BankId(0), RowAddr(10)),
                    batched.accumulated(BankId(0), RowAddr(10)),
                    "accumulators diverge at step {step} {kind:?}"
                );
            }
            if step == 2 {
                plain.restore(BankId(0), RowAddr(10));
                batched.restore(BankId(0), RowAddr(10));
            }
        }
        let stats = batched.batch_stats();
        assert!(stats.hits() > stats.misses(), "caches must carry the load");
    }

    #[test]
    fn invalidation_drops_only_the_summary() {
        // Sub-threshold events flip nothing, so only the calls under test
        // touch the record's caches.
        let mut e = engine(1);
        let mut v = victim_row();
        let ev = checker_event(AggressionKind::RowHammerDouble, 10);
        let key = (BankId(0), RowAddr(10));
        let mut out = Vec::new();
        e.hammer_batched(&ev, &mut v, &mut out);
        let cold = e.existing(key.0, key.1).expect("hammered").clone();
        assert!(cold.vuln.is_some() && cold.summary.is_some());
        assert_ne!(cold.eligs[FlipClass::RowHammer as usize].0, NO_ELIG);
        // The cache deltas of one more batched event on the row.
        let mut next = |e: &mut DisturbEngine| {
            let before = e.batch_stats();
            e.hammer_batched(&ev, &mut v, &mut out);
            let after = e.batch_stats();
            (
                after.vuln_hits - before.vuln_hits,
                after.vuln_misses - before.vuln_misses,
                after.weight_hits - before.weight_hits,
                after.weight_misses - before.weight_misses,
                after.summary_misses - before.summary_misses,
            )
        };
        let kept_all = (1, 0, 1, 0, 0);
        let lost_summary = (1, 0, 1, 0, 1);
        assert_eq!(next(&mut e), kept_all);
        for drop_summary in [
            DisturbEngine::invalidate_summary as fn(&mut DisturbEngine, BankId, RowAddr),
            DisturbEngine::rewrite,
        ] {
            drop_summary(&mut e, key.0, key.1);
            let rec = e.existing(key.0, key.1).expect("hammered");
            assert!(rec.summary.is_none());
            assert_eq!(rec.vuln, cold.vuln);
            assert_eq!(rec.weights, cold.weights);
            assert_eq!(rec.eligs[0].0, cold.eligs[0].0);
            assert_eq!(rec.eligs[1].0, cold.eligs[1].0);
            assert_eq!(next(&mut e), lost_summary);
        }
        // Charge restoration, one row or all, zeroes the state and keeps
        // every cache.
        e.restore(key.0, key.1);
        assert_eq!(e.accumulated(key.0, key.1), (0.0, 0.0));
        assert_eq!(next(&mut e), kept_all);
        e.restore_all();
        assert_eq!(e.accumulated(key.0, key.1), (0.0, 0.0));
        assert_eq!(next(&mut e), kept_all);
        assert!(e.accumulated(key.0, key.1).0 > 0.0);
    }

    #[test]
    fn record_ids_are_stable_and_side_histories_follow_the_epoch() {
        let mut e = engine(1);
        let (bank, row) = (BankId(0), RowAddr(10));
        let id = e.record(bank, row);
        assert_eq!(e.record(bank, row), id);
        assert_ne!(e.record(bank, RowAddr(11)), id);
        assert_ne!(e.record(BankId(1), row), id);
        // Hammering by id and by key reach the same record.
        let mut keyed = engine(1);
        let ev = checker_event(AggressionKind::RowHammerDouble, 1000);
        let (mut v, mut w) = (victim_row(), victim_row());
        let mut out = Vec::new();
        e.hammer_batched_record(id, &ev, &mut v, &mut out);
        e.hammer_record(id, &ev, &mut v, &mut out);
        keyed.hammer_batched(&ev, &mut w, &mut out);
        keyed.hammer(&ev, &mut w, &mut out);
        assert_eq!(e.accumulated(bank, row), keyed.accumulated(bank, row));
        // A side history survives a charge restoration of the row and is
        // cleared, with the state, by a new epoch.
        let side = SideHistory {
            last_side: -1,
            last_end: Picos::from_ns(50.0),
        };
        *e.side_mut(id) = side;
        e.restore(bank, row);
        e.restore_record(id);
        assert_eq!(*e.side_mut(id), side);
        assert_eq!(e.accumulated(bank, row), (0.0, 0.0));
        e.hammer_batched_record(id, &ev, &mut v, &mut out);
        e.restore_all();
        assert_eq!(*e.side_mut(id), SideHistory::default());
        assert_eq!(e.accumulated(bank, row), (0.0, 0.0));
        // The engine never sets a data slot itself.
        assert!(e.data_slot(id).is_none());
    }

    #[test]
    fn accumulation_is_additive_across_batches() {
        let mut e1 = engine(1);
        let mut e2 = engine(1);
        let mut v = victim_row();
        let ev_half = checker_event(AggressionKind::RowHammerDouble, 500);
        let ev_full = checker_event(AggressionKind::RowHammerDouble, 1000);
        hammer(&mut e1, &ev_half, &mut v);
        hammer(&mut e1, &ev_half, &mut v);
        hammer(&mut e2, &ev_full, &mut v);
        assert!(
            (e1.accumulated(BankId(0), RowAddr(10)).0 - e2.accumulated(BankId(0), RowAddr(10)).0)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn restore_resets_disturbance() {
        let mut e = engine(1);
        let mut v = victim_row();
        hammer(
            &mut e,
            &checker_event(AggressionKind::RowHammerDouble, 1000),
            &mut v,
        );
        assert!(e.accumulated(BankId(0), RowAddr(10)).0 > 0.0);
        e.restore(BankId(0), RowAddr(10));
        assert_eq!(e.accumulated(BankId(0), RowAddr(10)), (0.0, 0.0));
    }

    #[test]
    fn comra_is_heavier_than_rowhammer() {
        let e = engine(1);
        let vuln = e.model().row_vuln(BankId(0), RowAddr(10));
        let rh = e.event_weight(&checker_event(AggressionKind::RowHammerDouble, 1), &vuln);
        let comra = e.event_weight(
            &checker_event(
                AggressionKind::ComraDouble {
                    pre_to_act: Picos::from_ns(7.5),
                    reversed: false,
                },
                1,
            ),
            &vuln,
        );
        assert!(comra > rh, "comra {comra} rh {rh}");
    }

    #[test]
    fn single_sided_is_weaker_than_double_sided() {
        let e = engine(1);
        let vuln = e.model().row_vuln(BankId(0), RowAddr(10));
        let ds = e.event_weight(&checker_event(AggressionKind::RowHammerDouble, 1), &vuln);
        let ss = e.event_weight(&checker_event(AggressionKind::RowHammerSingle, 1), &vuln);
        let far = e.event_weight(&checker_event(AggressionKind::RowHammerFarDouble, 1), &vuln);
        assert!(ss < far && far < ds);
    }

    #[test]
    fn rowpress_increases_weight() {
        let e = engine(1);
        let vuln = e.model().row_vuln(BankId(0), RowAddr(10));
        let mut ev = checker_event(AggressionKind::RowHammerDouble, 1);
        let base = e.event_weight(&ev, &vuln);
        ev.t_aggon = Picos::from_us(70.2);
        let pressed = e.event_weight(&ev, &vuln);
        assert!((pressed / base - 31.15).abs() < 0.1, "{}", pressed / base);
    }

    #[test]
    fn simra_uses_its_own_threshold_class() {
        let mut e = engine(1);
        // Victim all-ones: maximally eligible for SiMRA's 1→0 flips.
        let mut v = RowData::filled(1024, DataPattern::ONES);
        let vuln = e.model().row_vuln(BankId(0), RowAddr(10));
        let kind = AggressionKind::SimraDouble {
            n_rows: 4,
            act_to_pre: Picos::from_ns(3.0),
            pre_to_act: Picos::from_ns(3.0),
        };
        let mut ev = HammerEvent::reference(
            BankId(0),
            RowAddr(10),
            kind,
            DataSummary::from_pattern(DataPattern::ZEROS),
            0,
        );
        ev.repeat = (vuln.t_simra * vuln.simra_n_factor(4) * 16.0) as u64 + 16;
        let flips = hammer(&mut e, &ev, &mut v);
        assert!(!flips.is_empty());
        // Dominant SiMRA direction is 1→0.
        let down = flips.iter().filter(|f| !f.to).count();
        assert!(down * 2 > flips.len());
    }

    #[test]
    fn simra_has_no_effect_on_micron() {
        let mut e = engine(6); // Micron F
        let mut v = RowData::filled(1024, DataPattern::ONES);
        let kind = AggressionKind::SimraDouble {
            n_rows: 16,
            act_to_pre: Picos::from_ns(3.0),
            pre_to_act: Picos::from_ns(3.0),
        };
        let ev = HammerEvent::reference(
            BankId(0),
            RowAddr(10),
            kind,
            DataSummary::from_pattern(DataPattern::ZEROS),
            10_000_000,
        );
        assert!(hammer(&mut e, &ev, &mut v).is_empty());
    }

    #[test]
    fn victim_data_gates_simra_flips() {
        // Observation 13: a 0x00 victim (no 1s to discharge) needs far more
        // SiMRA hammers than a 0xFF victim.
        let mut e_ff = engine(1);
        let mut e_00 = engine(1);
        let kind = AggressionKind::SimraDouble {
            n_rows: 4,
            act_to_pre: Picos::from_ns(3.0),
            pre_to_act: Picos::from_ns(3.0),
        };
        let hc = |e: &mut DisturbEngine, victim_pattern: DataPattern| -> u64 {
            let mut lo = 1u64;
            let mut hi = 1u64 << 34;
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                let mut v = RowData::filled(1024, victim_pattern);
                let mut ev = HammerEvent::reference(
                    BankId(0),
                    RowAddr(10),
                    kind,
                    DataSummary::from_pattern(victim_pattern.negated()),
                    mid,
                );
                ev.repeat = mid;
                let flips = hammer(e, &ev, &mut v);
                e.rewrite(BankId(0), RowAddr(10));
                if flips.is_empty() {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        let hc_ff = hc(&mut e_ff, DataPattern::ONES);
        let hc_00 = hc(&mut e_00, DataPattern::ZEROS);
        assert!(
            hc_00 as f64 > hc_ff as f64 * 5.0,
            "0x00 victim should be much harder: {hc_00} vs {hc_ff}"
        );
    }

    #[test]
    fn cross_coupling_lets_simra_help_rowhammer() {
        // §6: pre-hammering with SiMRA reduces the RowHammer count needed.
        let profile = &TESTED_MODULES[1];
        let geometry = ChipGeometry::scaled_for_tests();
        let mut plain = DisturbEngine::new(profile, geometry, 0, 7);
        let mut combined = DisturbEngine::new(profile, geometry, 0, 7);
        let vuln = plain.model().row_vuln(BankId(0), RowAddr(10));
        let simra_kind = AggressionKind::SimraDouble {
            n_rows: 4,
            act_to_pre: Picos::from_ns(3.0),
            pre_to_act: Picos::from_ns(3.0),
        };
        // Charge the SiMRA accumulator close to (but below) its effective
        // threshold so no SiMRA-class flip fires during the pre-charge.
        let mut v = victim_row();
        let mut ev = checker_event(simra_kind, 1);
        let w = combined.event_weight(&ev, &vuln);
        ev.repeat = (vuln.t_simra * 0.9 / w) as u64;
        hammer(&mut combined, &ev, &mut v);
        // Now count RowHammer hammers to first flip in both engines.
        let hc = |e: &mut DisturbEngine| -> u64 {
            let mut v = victim_row();
            let mut total = 0u64;
            let step = (vuln.t_rh / 50.0).max(1.0) as u64;
            loop {
                let ev = checker_event(AggressionKind::RowHammerDouble, step);
                total += step;
                if !hammer(e, &ev, &mut v).is_empty() {
                    return total;
                }
                assert!(total < 1_000_000_000, "no flip reached");
            }
        };
        let hc_combined = hc(&mut combined);
        let hc_plain = hc(&mut plain);
        assert!(
            hc_combined < hc_plain,
            "combined {hc_combined} should undercut plain {hc_plain}"
        );
    }

    #[test]
    fn distance_two_victims_are_much_less_disturbed() {
        let e = engine(1);
        let vuln = e.model().row_vuln(BankId(0), RowAddr(10));
        let mut ev = checker_event(AggressionKind::RowHammerDouble, 1);
        let near = e.event_weight(&ev, &vuln);
        ev.distance = 2;
        let far = e.event_weight(&ev, &vuln);
        assert!((far / near - calib::DISTANCE2_WEIGHT).abs() < 1e-9);
    }

    #[test]
    fn solid_patterns_barely_flip_nanya() {
        let e = engine(13); // Nanya
        let vuln = e.model().row_vuln(BankId(0), RowAddr(10));
        let mut ev = checker_event(AggressionKind::RowHammerDouble, 1);
        let checker = e.event_weight(&ev, &vuln);
        ev.aggressor_data = DataSummary::from_pattern(DataPattern::ZEROS);
        let solid = e.event_weight(&ev, &vuln);
        assert!(solid < checker * 0.15, "solid {solid} checker {checker}");
    }
}
