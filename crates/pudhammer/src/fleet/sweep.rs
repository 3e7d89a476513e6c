//! Work-stealing parallel sweep over the fleet.
//!
//! Every [`ChipUnderTest`] owns an independent [`Executor`] with no shared
//! mutable state, so a fleet sweep is embarrassingly parallel across chips
//! — the same shape as a DRAM Bender campaign spread over boards. The
//! engine is [`pud_observe::par::sweep_items`] (re-exported here):
//! `std::thread::scope` workers pull chip indices from a shared atomic
//! queue (no channels), run a caller-supplied closure per chip, and results
//! are reassembled in chip order. This module adds what chips need on top:
//! trace rings, metric rebinding, retry and quarantine.
//!
//! Determinism is the load-bearing guarantee. Three mechanisms make the
//! output byte-identical to the serial path at any thread count:
//!
//! 1. **Ordered results.** Each closure result lands in a slot keyed by
//!    chip index; callers see `Vec<R>` in fleet order no matter which
//!    worker ran which chip.
//! 2. **Per-chip trace rings.** Before the sweep, each chip's attached
//!    trace sink is swapped for a private ring buffer; afterwards the rings
//!    are merged timestamp-ordered (ties by chip index) into the original
//!    sink via [`pud_observe::merge_ordered`]. The serial (`threads == 1`)
//!    path routes through the *same* ring-and-merge machinery, so the
//!    merged stream cannot depend on the thread count.
//! 3. **Metric shards.** Each worker installs a
//!    [`pud_observe::ShardGuard`] and rebinds its claimed chip's cached
//!    metric handles to the shard, so hot hammer loops never contend on
//!    the global registry; shards drain into the global registry at the
//!    sweep barrier, producing the same totals as serial recording.
//!
//! [`Executor`]: pud_bender::Executor

use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex, Once};

use pud_bender::ExecError;
pub use pud_observe::par::{resolve_threads, sweep_items, THREADS_ENV};
use pud_observe::{merge_ordered, RingBufferSink, SharedSink, TraceEvent};

use super::supervisor::{self, CancelReason, Cancelled};
use super::ChipUnderTest;

/// Capacity of each per-chip trace ring during a sweep. Batched hammer
/// loops elide per-command events, so even a full table2 run stays well
/// under this; overflow is reported via [`SweepTraces::dropped`].
pub(crate) const TRACE_RING_CAPACITY: usize = 1 << 20;

/// Trace state captured by [`sweep_traced`]: the per-chip event sequences
/// and the sink they are destined for.
pub struct SweepTraces {
    /// Events each chip emitted during the sweep, in emission order,
    /// indexed like the swept slice.
    pub per_chip: Vec<Vec<TraceEvent>>,
    /// The original sink the chips were attached to (already re-attached).
    pub sink: SharedSink,
    /// Events evicted from the per-chip rings (0 in any sane run).
    pub dropped: u64,
}

impl std::fmt::Debug for SweepTraces {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepTraces")
            .field("chips", &self.per_chip.len())
            .field("events", &self.per_chip.iter().map(Vec::len).sum::<usize>())
            .field("dropped", &self.dropped)
            .finish_non_exhaustive()
    }
}

impl SweepTraces {
    /// Merges the per-chip sequences into the destination sink,
    /// timestamp-ordered with ties broken by chip index.
    pub fn merge(&self) {
        merge_ordered(&self.per_chip, &self.sink);
    }
}

/// Parallel sweep over fleet chips with deterministic trace merging.
///
/// Equivalent to `for (i, chip) in chips.iter_mut().enumerate()` running
/// `f(i, chip)` and collecting the results — but spread over `threads`
/// work-stealing workers. Results come back in chip order, and trace
/// events are merged back into the chips' attached sink timestamp-ordered,
/// so the observable output is byte-identical to the serial path at any
/// thread count.
pub fn sweep<R, F>(threads: usize, chips: &mut [ChipUnderTest], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &mut ChipUnderTest) -> R + Sync,
{
    let (results, traces) = sweep_traced(threads, chips, f);
    if let Some(traces) = traces {
        traces.merge();
    }
    results
}

/// Like [`sweep`], but hands the captured per-chip trace sequences back to
/// the caller *unmerged* (together with the destination sink) instead of
/// merging them. Used by the determinism tests to compare per-chip event
/// sequences across thread counts; `None` when no chip had a sink
/// attached.
pub fn sweep_traced<R, F>(
    threads: usize,
    chips: &mut [ChipUnderTest],
    f: F,
) -> (Vec<R>, Option<SweepTraces>)
where
    R: Send,
    F: Fn(usize, &mut ChipUnderTest) -> R + Sync,
{
    let n = chips.len();
    let threads = threads.clamp(1, n.max(1));
    pud_observe::counter("sweep.runs").incr();
    pud_observe::histogram("sweep.threads").record(threads as u64);
    pud_observe::histogram("sweep.chips").record(n as u64);

    // Swap each chip's attached sink for a private ring so workers never
    // interleave writes. The serial path takes the same detour: byte
    // identity across thread counts requires identical machinery.
    let mut dest: Option<SharedSink> = None;
    let rings: Vec<Option<Arc<Mutex<RingBufferSink>>>> = chips
        .iter_mut()
        .map(|chip| {
            chip.take_trace_sink().map(|orig| {
                let ring = Arc::new(Mutex::new(RingBufferSink::new(TRACE_RING_CAPACITY)));
                chip.set_trace_sink(ring.clone());
                if dest.is_none() {
                    dest = Some(orig);
                }
                ring
            })
        })
        .collect();

    let results = sweep_items(threads, chips.iter_mut().collect(), |i, chip| {
        // Point the executor's cached metric handles at this worker's
        // shard (a no-op rebind to the global registry when serial, or
        // while the chip is paged out — materialization binds fresh).
        chip.rebind_metrics();
        let _span = pud_observe::span("sweep.chip_ns");
        f(i, chip)
    });

    // Barrier passed: re-attach the original sink, rebind metrics back to
    // the global registry, and collect the captured rings in chip order.
    let traces = dest.map(|sink| {
        let mut per_chip = Vec::with_capacity(n);
        let mut dropped = 0u64;
        for (chip, ring) in chips.iter_mut().zip(&rings) {
            match ring {
                Some(ring) => {
                    chip.set_trace_sink(sink.clone());
                    let ring = ring.lock().expect("sweep trace ring poisoned");
                    dropped += ring.dropped();
                    per_chip.push(ring.to_vec());
                }
                None => per_chip.push(Vec::new()),
            }
        }
        if dropped > 0 {
            pud_observe::counter("sweep.trace_dropped").add(dropped);
        }
        SweepTraces {
            per_chip,
            sink,
            dropped,
        }
    });
    for chip in chips.iter_mut() {
        chip.rebind_metrics();
    }
    (results, traces)
}

/// Retry policy for an isolating sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPolicy {
    /// Transient failures retried per chip before it is quarantined.
    pub max_retries: u32,
}

impl Default for SweepPolicy {
    fn default() -> SweepPolicy {
        SweepPolicy { max_retries: 3 }
    }
}

/// Why a chip failed its sweep closure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// Whether the *final* failure was transient (it exhausted the retry
    /// budget) rather than permanent (quarantined on first occurrence).
    pub transient: bool,
    /// Human-readable failure description.
    pub message: String,
    /// Closure attempts made (1 = failed on first try, no retries left).
    pub attempts: u32,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (after {} attempts)", self.message, self.attempts)
    }
}

/// Why a unit was skipped without running (sharded campaigns only — see
/// [`super::shard`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// The unit belongs to a different shard of a sharded campaign; its
    /// owning worker process measures it. Silent in reports — every unit
    /// of a sharded sweep is out-of-shard for all workers but one.
    OutOfShard {
        /// The shard that owns the unit.
        shard: u32,
    },
    /// The unit's shard worker exhausted its respawn budget: the unit was
    /// never measured and the merged campaign renders without it.
    FailedShard {
        /// The shard that lost the unit.
        shard: u32,
    },
}

/// Per-chip result of an isolating sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepOutcome<R> {
    /// The closure completed (possibly after retries).
    Done(R),
    /// The chip was quarantined; no result is available.
    Quarantined(SweepError),
    /// The campaign supervisor cancelled the unit before (or while) it
    /// ran; no result is available and nothing was recorded — a resumed
    /// run re-measures it.
    Cancelled(CancelReason),
    /// The unit was never attempted because of the process's shard role;
    /// no result is available and no supervisor bookkeeping happened.
    Skipped(SkipReason),
}

impl<R> SweepOutcome<R> {
    /// The result, if the chip completed.
    pub fn ok(self) -> Option<R> {
        match self {
            SweepOutcome::Done(r) => Some(r),
            _ => None,
        }
    }

    /// Borrow of the result, if the chip completed.
    pub fn as_ok(&self) -> Option<&R> {
        match self {
            SweepOutcome::Done(r) => Some(r),
            _ => None,
        }
    }

    /// The quarantine error, if the chip failed.
    pub fn quarantine(&self) -> Option<&SweepError> {
        match self {
            SweepOutcome::Quarantined(e) => Some(e),
            _ => None,
        }
    }

    /// The cancellation reason, if the unit was abandoned.
    pub fn cancelled(&self) -> Option<CancelReason> {
        match self {
            SweepOutcome::Cancelled(reason) => Some(*reason),
            _ => None,
        }
    }

    /// The skip reason, if the unit was out of this process's shard scope.
    pub fn skipped(&self) -> Option<SkipReason> {
        match self {
            SweepOutcome::Skipped(reason) => Some(*reason),
            _ => None,
        }
    }
}

/// One chip's row in a [`SweepReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChipStatus {
    /// Chip identity (`family-key#chip-index`).
    pub label: String,
    /// Transient failures retried.
    pub retries: u32,
    /// Quarantine reason, or `None` for a healthy chip.
    pub quarantined: Option<String>,
    /// Cancellation reason, or `None` when the unit ran to a verdict.
    pub cancelled: Option<CancelReason>,
    /// Skip reason, or `None` when the unit was within this process's
    /// shard scope (always `None` outside sharded campaigns).
    pub skipped: Option<SkipReason>,
}

/// What happened to each chip across one (or several merged) isolating
/// sweeps. Experiment drivers attach this to their figures so partial
/// fleets render with explicit `QUARANTINED` rows instead of aborting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Per-chip status, in fleet order.
    pub chips: Vec<ChipStatus>,
}

impl SweepReport {
    /// Total transient retries across the fleet.
    pub fn retries(&self) -> u64 {
        self.chips.iter().map(|c| u64::from(c.retries)).sum()
    }

    /// Number of quarantined chips.
    pub fn quarantined(&self) -> usize {
        self.chips
            .iter()
            .filter(|c| c.quarantined.is_some())
            .count()
    }

    /// Number of cancelled units.
    pub fn cancelled(&self) -> usize {
        self.chips.iter().filter(|c| c.cancelled.is_some()).count()
    }

    /// Number of units lost to shards whose worker exhausted its respawn
    /// budget (out-of-shard skips are not losses — another worker owns
    /// them).
    pub fn shard_lost(&self) -> usize {
        self.chips
            .iter()
            .filter(|c| matches!(c.skipped, Some(SkipReason::FailedShard { .. })))
            .count()
    }

    /// Whether the sweep saw no faults at all (no retries, no quarantine,
    /// no cancellation, no units lost to a failed shard).
    pub fn is_clean(&self) -> bool {
        self.retries() == 0
            && self.quarantined() == 0
            && self.cancelled() == 0
            && self.shard_lost() == 0
    }

    /// Merges another report (typically from a later sweep over the same
    /// fleet) into this one: retries accumulate per label, and
    /// the first quarantine reason wins.
    pub fn absorb(&mut self, other: &SweepReport) {
        for theirs in &other.chips {
            match self.chips.iter_mut().find(|c| c.label == theirs.label) {
                Some(ours) => {
                    ours.retries += theirs.retries;
                    if ours.quarantined.is_none() {
                        ours.quarantined.clone_from(&theirs.quarantined);
                    }
                    if ours.cancelled.is_none() {
                        ours.cancelled = theirs.cancelled;
                    }
                    if ours.skipped.is_none() {
                        ours.skipped = theirs.skipped;
                    }
                }
                None => self.chips.push(theirs.clone()),
            }
        }
    }

    /// Renders the fault-tolerance footer for figure output: one line per
    /// quarantined chip plus a retry summary. Empty for a clean sweep, so
    /// fault-free output stays byte-identical to the pre-fault-injection
    /// renderers.
    pub fn footer_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for c in &self.chips {
            if let Some(reason) = &c.quarantined {
                lines.push(format!("QUARANTINED {}: {reason}", c.label));
            }
        }
        for c in &self.chips {
            if let Some(reason) = c.cancelled {
                lines.push(format!("CANCELLED {}: {reason}", c.label));
            }
        }
        for c in &self.chips {
            if let Some(SkipReason::FailedShard { shard }) = c.skipped {
                lines.push(format!(
                    "FAILED SHARD {shard}: {} not measured (worker lost, respawns exhausted)",
                    c.label
                ));
            }
        }
        let retries = self.retries();
        if retries > 0 {
            lines.push(format!(
                "sweep: {retries} transient failure(s) retried ({} quarantined)",
                self.quarantined()
            ));
        }
        let cancelled = self.cancelled();
        if cancelled > 0 {
            lines.push(format!(
                "sweep: {cancelled} unit(s) cancelled before completion — partial results"
            ));
        }
        lines
    }

    /// Writes [`Self::footer_lines`] to a formatter, one line each — the
    /// shared tail of every figure's `Display`. A no-op for a clean sweep,
    /// so fault-free rendering stays byte-identical.
    pub fn fmt_footer(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for line in self.footer_lines() {
            writeln!(f, "{line}")?;
        }
        Ok(())
    }

    /// Records `sweep.retries` / `sweep.quarantined` counters. Counters are
    /// fetched lazily — a clean sweep creates neither, keeping `--metrics`
    /// output byte-identical to a build without fault injection. Call once
    /// per experiment on the final merged report.
    pub fn record_metrics(&self) {
        let retries = self.retries();
        if retries > 0 {
            pud_observe::counter("sweep.retries").add(retries);
        }
        let quarantined = self.quarantined();
        if quarantined > 0 {
            pud_observe::counter("sweep.quarantined").add(quarantined as u64);
        }
        let cancelled = self.cancelled();
        if cancelled > 0 {
            pud_observe::counter("sweep.cancelled").add(cancelled as u64);
        }
        let lost = self.shard_lost();
        if lost > 0 {
            pud_observe::counter("sweep.shard_lost").add(lost as u64);
        }
    }
}

thread_local! {
    /// Set while a sweep worker runs a chip closure under `catch_unwind`:
    /// the process panic hook swallows the default "thread panicked"
    /// report for these *expected* unwinds (they become typed
    /// [`SweepError`]s) instead of spraying stderr.
    static SUPPRESS_PANIC_REPORT: Cell<bool> = const { Cell::new(false) };
}

fn catch_quiet<R>(f: impl FnOnce() -> R) -> Result<R, Box<dyn std::any::Any + Send>> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_REPORT.with(Cell::get) {
                previous(info);
            }
        }));
    });
    SUPPRESS_PANIC_REPORT.with(|s| s.set(true));
    let result = std::panic::catch_unwind(AssertUnwindSafe(f));
    SUPPRESS_PANIC_REPORT.with(|s| s.set(false));
    result
}

/// Maps a caught panic payload to (is-transient, message). Typed
/// [`ExecError`] payloads (raised by `Executor::run`) carry their own
/// transience; anything else — a plain `assert!`, an index out of bounds —
/// is permanent: retrying deterministic code on unchanged state would fail
/// identically.
fn classify_payload(payload: Box<dyn std::any::Any + Send>) -> (bool, String) {
    match payload.downcast::<ExecError>() {
        Ok(err) => (err.is_transient(), err.to_string()),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            (false, format!("panic: {msg}"))
        }
    }
}

/// The capped exponential delay before retry `n` (0-based): `base << n`,
/// at most `cap`, without overflow at any `n`. Serve's transient-fault
/// retries and the shard respawns sleep it, each with its own constants.
pub(crate) fn capped_backoff_ms(base: u64, cap: u64, n: u32) -> u64 {
    base.saturating_mul(2u64.saturating_pow(n)).min(cap)
}

/// The isolation/retry core shared by sweeps and the query server: runs
/// `attempt` under `catch_unwind`, retries a typed transient [`ExecError`]
/// up to `max_retries` times (calling `on_retry` with the retry's 1-based
/// number before each), and returns the outcome with the retries spent.
/// A [`Cancelled`] unwind is checked *before* fault classification, so it
/// is never mistaken for a chip fault (and never retried). Never returns
/// [`SweepOutcome::Skipped`].
pub(crate) fn retry_isolated<R>(
    max_retries: u32,
    mut attempt: impl FnMut() -> R,
    mut on_retry: impl FnMut(u32),
) -> (SweepOutcome<R>, u32) {
    let mut retries = 0u32;
    loop {
        let payload = match catch_quiet(&mut attempt) {
            Ok(r) => return (SweepOutcome::Done(r), retries),
            Err(payload) => payload,
        };
        let payload = match payload.downcast::<Cancelled>() {
            Ok(cancelled) => return (SweepOutcome::Cancelled(cancelled.reason), retries),
            Err(payload) => payload,
        };
        let (transient, message) = classify_payload(payload);
        if transient && retries < max_retries {
            retries += 1;
            on_retry(retries);
            continue;
        }
        let error = SweepError {
            transient,
            message,
            attempts: retries + 1,
        };
        return (SweepOutcome::Quarantined(error), retries);
    }
}

/// The per-unit harness of every isolating sweep: the supervisor
/// pre-check, then [`retry_isolated`] with the supervisor and live
/// telemetry bookkeeping of each verdict.
fn run_supervised<R>(policy: SweepPolicy, attempt: impl FnMut() -> R) -> (SweepOutcome<R>, u32) {
    // Workers still claim every queued unit after a cancellation; the
    // pre-check turns the remainder into `Cancelled` outcomes without
    // starting any measurement, bounding the shutdown grace period.
    if let Some(reason) = supervisor::is_cancelled() {
        supervisor::record_cancelled();
        return (SweepOutcome::Cancelled(reason), 0);
    }
    let (outcome, retries) = retry_isolated(policy.max_retries, attempt, |_| {
        pud_observe::live::retry();
    });
    match outcome {
        SweepOutcome::Done(_) => supervisor::complete_unit(),
        SweepOutcome::Cancelled(_) => supervisor::record_cancelled(),
        SweepOutcome::Quarantined(_) => pud_observe::live::quarantine(),
        SweepOutcome::Skipped(_) => {}
    }
    (outcome, retries)
}

/// Panic- and error-isolating variant of [`sweep`].
///
/// Each chip closure runs under `catch_unwind`: a typed transient
/// [`ExecError`] (injected command timeout, bus glitch, ACT drop) is
/// retried up to `policy.max_retries` times; permanent errors (dead chip, invalid program, any other panic)
/// quarantine the chip immediately. The sweep always completes — failed
/// chips come back as [`SweepOutcome::Quarantined`] and the accompanying
/// [`SweepReport`] says what happened to every chip.
///
/// Trace merging and metric sharding behave exactly as in [`sweep`]; with
/// no faults configured the results (and all observable output) are
/// byte-identical to [`sweep`] at any thread count.
pub fn sweep_isolated<R, F>(
    threads: usize,
    policy: SweepPolicy,
    chips: &mut [ChipUnderTest],
    f: F,
) -> (Vec<SweepOutcome<R>>, SweepReport)
where
    R: Send,
    F: Fn(usize, &mut ChipUnderTest) -> R + Sync,
{
    let labels: Vec<String> = chips.iter().map(ChipUnderTest::label).collect();
    let n = chips.len();
    let raw = sweep(threads, chips, |i, chip| {
        match super::shard::skip_for(i, n) {
            Some(reason) => (SweepOutcome::Skipped(reason), 0),
            None => {
                let out = run_supervised(policy, || f(i, &mut *chip));
                // Unit boundary: with paging on, drop the materialized
                // executor now that the unit's result (and checkpoint row)
                // is out — peak RSS then tracks concurrent units, not the
                // fleet size.
                if chip.pages() {
                    chip.page_out();
                }
                out
            }
        }
    });
    collate_outcomes(labels, raw)
}

/// Zips raw `(outcome, retries)` rows with their labels into the
/// caller-facing `(outcomes, report)` pair.
fn collate_outcomes<R>(
    labels: Vec<String>,
    raw: Vec<(SweepOutcome<R>, u32)>,
) -> (Vec<SweepOutcome<R>>, SweepReport) {
    let mut outcomes = Vec::with_capacity(raw.len());
    let mut status = Vec::with_capacity(raw.len());
    for (label, (outcome, retries)) in labels.into_iter().zip(raw) {
        status.push(ChipStatus {
            label,
            retries,
            quarantined: outcome.quarantine().map(|e| e.to_string()),
            cancelled: outcome.cancelled(),
            skipped: outcome.skipped(),
        });
        outcomes.push(outcome);
    }
    (outcomes, SweepReport { chips: status })
}

/// Isolating work-stealing map over arbitrary owned items (the
/// [`sweep_items`] analog of [`sweep_isolated`], for sweeps that are not
/// keyed by [`ChipUnderTest`] — e.g. per-technique TRR evaluations).
/// Labels index the report rows.
pub fn sweep_items_isolated<T, R, F>(
    threads: usize,
    policy: SweepPolicy,
    labels: Vec<String>,
    items: Vec<T>,
    f: F,
) -> (Vec<SweepOutcome<R>>, SweepReport)
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    assert_eq!(labels.len(), items.len(), "one label per item");
    let n = items.len();
    let raw = sweep_items(threads, items, |i, item| {
        match super::shard::skip_for(i, n) {
            Some(reason) => (SweepOutcome::Skipped(reason), 0),
            None => run_supervised(policy, || f(i, &mut *item)),
        }
    });
    collate_outcomes(labels, raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{Fleet, FleetConfig};

    #[test]
    fn sweep_runs_every_chip_once_in_order() {
        let mut fleet = Fleet::build(FleetConfig::quick());
        let keys = sweep(4, &mut fleet.chips, |i, chip| {
            (i, chip.profile.key().to_string())
        });
        assert_eq!(keys.len(), 14);
        for (slot, (i, _)) in keys.iter().enumerate() {
            assert_eq!(slot, *i);
        }
        let serial = sweep(1, &mut fleet.chips, |i, chip| {
            (i, chip.profile.key().to_string())
        });
        assert_eq!(keys, serial);
    }

    #[test]
    fn sweep_restores_trace_sinks_and_merges() {
        let mut fleet = Fleet::build(FleetConfig::quick());
        let ring = Arc::new(Mutex::new(RingBufferSink::new(1 << 16)));
        let sink: SharedSink = ring.clone();
        for chip in &mut fleet.chips {
            chip.set_trace_sink(sink.clone());
        }
        let (_, traces) = sweep_traced(2, &mut fleet.chips, |_, chip| {
            // A tiny program per chip so each ring sees something.
            let program = tiny_program(chip);
            chip.exec().run(&program);
        });
        let traces = traces.expect("sinks were attached");
        assert_eq!(traces.dropped, 0);
        assert!(traces.per_chip.iter().all(|b| !b.is_empty()));
        assert!(
            ring.lock().unwrap().is_empty(),
            "unmerged sweep leaves the destination untouched"
        );
        traces.merge();
        let merged = ring.lock().unwrap().to_vec();
        assert_eq!(
            merged.len(),
            traces.per_chip.iter().map(Vec::len).sum::<usize>()
        );
        assert!(merged.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        // Sinks restored: post-sweep events land in the destination again.
        let chip = &mut fleet.chips[0];
        let program = tiny_program(chip);
        chip.exec().run(&program);
        assert!(ring.lock().unwrap().len() > merged.len());
    }

    fn tiny_program(chip: &mut ChipUnderTest) -> pud_bender::TestProgram {
        let aggressor = pud_dram::RowAddr(chip.victim_rows()[0].0.saturating_sub(1));
        pud_bender::ops::single_sided_rowhammer(chip.bank(), aggressor, pud_bender::ops::t_ras(), 3)
    }

    #[test]
    fn sweep_without_sinks_reports_no_traces() {
        let mut fleet = Fleet::build(FleetConfig::quick());
        let (results, traces) = sweep_traced(2, &mut fleet.chips, |i, _| i);
        assert_eq!(results.len(), 14);
        assert!(traces.is_none());
    }

    #[test]
    fn capped_backoff_doubles_to_its_cap_without_overflow() {
        assert_eq!(capped_backoff_ms(2, 50, 0), 2, "base at n=0");
        assert_eq!(capped_backoff_ms(2, 50, 1), 4);
        assert_eq!(capped_backoff_ms(2, 50, 4), 32);
        assert_eq!(capped_backoff_ms(2, 50, 5), 50, "64 is capped");
        assert_eq!(capped_backoff_ms(50, 2_000, 6), 2_000);
        for n in [63, 64, 65, u32::MAX] {
            assert_eq!(capped_backoff_ms(50, 2_000, n), 2_000, "n={n}");
        }
        assert_eq!(capped_backoff_ms(0, 50, u32::MAX), 0);
    }

    #[test]
    fn isolated_sweep_matches_plain_sweep_on_a_healthy_fleet() {
        let mut fleet = Fleet::build(FleetConfig::quick());
        let plain = sweep(4, &mut fleet.chips, |_, chip| chip.label());
        let (outcomes, report) =
            sweep_isolated(4, SweepPolicy::default(), &mut fleet.chips, |_, chip| {
                chip.label()
            });
        let isolated: Vec<String> = outcomes.into_iter().map(|o| o.ok().unwrap()).collect();
        assert_eq!(plain, isolated);
        assert!(report.is_clean());
        assert!(report.footer_lines().is_empty());
        assert_eq!(report.chips.len(), 14);
    }

    #[test]
    fn transient_errors_retry_then_succeed() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let failures: Vec<AtomicU32> = (0..8).map(|_| AtomicU32::new(0)).collect();
        let labels = (0..8).map(|i| format!("item#{i}")).collect();
        let (outcomes, report) = sweep_items_isolated(
            4,
            SweepPolicy::default(),
            labels,
            (0..8usize).collect(),
            |i, v: &mut usize| {
                // Items 2 and 5 fail transiently twice before succeeding.
                if (*v == 2 || *v == 5) && failures[i].fetch_add(1, Ordering::SeqCst) < 2 {
                    std::panic::panic_any(ExecError::Fault {
                        kind: pud_bender::fault::FaultKind::BusGlitch,
                        at_cmd: 1,
                    });
                }
                *v * 10
            },
        );
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.as_ok(), Some(&(i * 10)), "item {i} recovered");
        }
        assert_eq!(report.retries(), 4);
        assert_eq!(report.quarantined(), 0);
        assert_eq!(report.chips[2].retries, 2);
        assert_eq!(report.chips[0].retries, 0);
    }

    #[test]
    fn permanent_errors_quarantine_without_retry() {
        let labels = vec!["a".to_string(), "b".to_string()];
        let (outcomes, report) = sweep_items_isolated(
            2,
            SweepPolicy::default(),
            labels,
            vec![0usize, 1],
            |_, v: &mut usize| {
                if *v == 1 {
                    std::panic::panic_any(ExecError::Fault {
                        kind: pud_bender::fault::FaultKind::ChipDead,
                        at_cmd: 99,
                    });
                }
                *v
            },
        );
        assert_eq!(outcomes[0].as_ok(), Some(&0));
        let err = outcomes[1].quarantine().expect("dead item quarantined");
        assert!(!err.transient);
        assert_eq!(err.attempts, 1);
        assert!(err.message.contains("chip_dead"));
        assert_eq!(report.quarantined(), 1);
        assert_eq!(report.retries(), 0);
        let footer = report.footer_lines();
        assert_eq!(footer.len(), 1);
        assert!(footer[0].starts_with("QUARANTINED b:"), "{footer:?}");
    }

    #[test]
    fn exhausted_retries_quarantine_as_transient() {
        let (outcomes, report) = sweep_items_isolated(
            1,
            SweepPolicy { max_retries: 2 },
            vec!["x".to_string()],
            vec![0usize],
            |_, _: &mut usize| -> usize {
                std::panic::panic_any(ExecError::Fault {
                    kind: pud_bender::fault::FaultKind::CommandTimeout,
                    at_cmd: 1,
                });
            },
        );
        let err = outcomes[0].quarantine().expect("quarantined");
        assert!(err.transient);
        assert_eq!(err.attempts, 3);
        assert_eq!(report.chips[0].retries, 2);
    }

    #[test]
    fn plain_panics_are_quarantined_with_their_message() {
        let (outcomes, _) = sweep_items_isolated(
            1,
            SweepPolicy::default(),
            vec!["x".to_string()],
            vec![0usize],
            |_, _: &mut usize| -> usize { panic!("unexpected invariant breach {}", 42) },
        );
        let err = outcomes[0].quarantine().expect("quarantined");
        assert!(!err.transient);
        assert!(err.message.contains("unexpected invariant breach 42"));
    }

    #[test]
    fn reports_absorb_across_sweeps() {
        let mut total = SweepReport {
            chips: vec![ChipStatus {
                label: "a".to_string(),
                retries: 1,
                quarantined: None,
                cancelled: None,
                skipped: None,
            }],
        };
        total.absorb(&SweepReport {
            chips: vec![
                ChipStatus {
                    label: "a".to_string(),
                    retries: 2,
                    quarantined: Some("injected fault: chip_dead".to_string()),
                    cancelled: None,
                    skipped: None,
                },
                ChipStatus {
                    label: "b".to_string(),
                    retries: 0,
                    quarantined: None,
                    cancelled: Some(CancelReason::Interrupted),
                    skipped: None,
                },
            ],
        });
        assert_eq!(total.chips.len(), 2);
        assert_eq!(total.chips[0].retries, 3);
        assert!(total.chips[0].quarantined.is_some());
        assert_eq!(total.retries(), 3);
        assert_eq!(total.quarantined(), 1);
        assert_eq!(total.cancelled(), 1);
        assert!(!total.is_clean());
    }

    #[test]
    fn cancelled_unwinds_become_cancelled_outcomes_not_quarantines() {
        // No supervisor is installed here: the Cancelled payload is raised
        // directly by the closure, exercising the sweep engine's payload
        // handling without touching process-global supervisor state (which
        // would race with concurrently running tests).
        let labels = vec!["a".to_string(), "b".to_string()];
        let (outcomes, report) = sweep_items_isolated(
            1,
            SweepPolicy::default(),
            labels,
            vec![0usize, 1],
            |_, v: &mut usize| {
                if *v == 1 {
                    std::panic::panic_any(Cancelled {
                        reason: CancelReason::DeadlineExpired,
                    });
                }
                *v
            },
        );
        assert_eq!(outcomes[0].as_ok(), Some(&0));
        assert_eq!(
            outcomes[1].cancelled(),
            Some(CancelReason::DeadlineExpired),
            "cancellation is not a fault"
        );
        assert!(outcomes[1].quarantine().is_none());
        // Never retried: a cancelled unit costs no retry budget.
        assert_eq!(report.chips[1].retries, 0);
        assert_eq!(report.cancelled(), 1);
        let footer = report.footer_lines();
        assert!(
            footer.iter().any(|l| l == "CANCELLED b: deadline expired"),
            "{footer:?}"
        );
        assert!(
            footer
                .iter()
                .any(|l| l.contains("1 unit(s) cancelled before completion")),
            "{footer:?}"
        );
    }

    #[test]
    fn skipped_units_yield_no_result_and_only_failed_shards_foul_the_report() {
        let raw: Vec<(SweepOutcome<u32>, u32)> = vec![
            (SweepOutcome::Done(7), 0),
            (
                SweepOutcome::Skipped(SkipReason::OutOfShard { shard: 1 }),
                0,
            ),
            (
                SweepOutcome::Skipped(SkipReason::FailedShard { shard: 2 }),
                0,
            ),
        ];
        let labels = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        let (outcomes, report) = collate_outcomes(labels, raw);
        assert_eq!(outcomes[0].as_ok(), Some(&7));
        assert_eq!(outcomes[1].as_ok(), None);
        assert_eq!(
            outcomes[1].skipped(),
            Some(SkipReason::OutOfShard { shard: 1 })
        );
        assert!(outcomes[2].quarantine().is_none());
        assert_eq!(report.shard_lost(), 1, "out-of-shard is not a loss");
        assert!(!report.is_clean(), "a failed shard is never clean");
        let footer = report.footer_lines();
        assert_eq!(footer.len(), 1, "{footer:?}");
        assert_eq!(
            footer[0],
            "FAILED SHARD 2: c not measured (worker lost, respawns exhausted)"
        );
        // Out-of-shard skips are silent: a clean worker's footer is empty.
        let (_, worker_only) = collate_outcomes::<u32>(
            vec!["a".to_string()],
            vec![(
                SweepOutcome::Skipped(SkipReason::OutOfShard { shard: 0 }),
                0,
            )],
        );
        assert!(worker_only.footer_lines().is_empty());
        assert!(worker_only.is_clean());
    }
}
