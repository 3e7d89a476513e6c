//! Process-global live progress counters.
//!
//! The sharded metrics in [`metrics`](crate::metrics) are only drained
//! into the global registry at sweep barriers, so mid-sweep they are
//! invisible to an observer thread. Campaign telemetry (the `--progress`
//! reporter) instead reads these always-current relaxed atomics, which the
//! hot paths bump directly — gated on [`enabled`] so the cost when
//! telemetry is off is a single relaxed load.
//!
//! These counters are *advisory*: they feed human-facing progress lines on
//! stderr and never experiment output, so cross-thread ordering is
//! irrelevant and `Relaxed` everywhere is correct.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

static COMMANDS: AtomicU64 = AtomicU64::new(0);
static ITEMS_DONE: AtomicU64 = AtomicU64::new(0);
static ITEMS_TOTAL: AtomicU64 = AtomicU64::new(0);
static RETRIES: AtomicU64 = AtomicU64::new(0);
static QUARANTINED: AtomicU64 = AtomicU64::new(0);
static UNITS_DONE: AtomicU64 = AtomicU64::new(0);
static WORKERS_UP: AtomicU64 = AtomicU64::new(0);
static WORKERS_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Serializes this crate's tests that move the live counters: they are
/// process-global, and some tests assert their exact values.
#[cfg(test)]
pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Whether live telemetry is being collected (a single relaxed load — the
/// cost every hot path pays when telemetry is off).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns live counter collection on.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns live counter collection off (counter values are kept).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Zeroes every live counter (the enabled flag is untouched).
pub fn reset() {
    for c in [
        &COMMANDS,
        &ITEMS_DONE,
        &ITEMS_TOTAL,
        &RETRIES,
        &QUARANTINED,
        &UNITS_DONE,
        &WORKERS_UP,
        &WORKERS_TOTAL,
    ] {
        c.store(0, Ordering::Relaxed);
    }
}

/// Overwrites the six campaign counters with absolute values (the worker
/// gauges are untouched). The shard coordinator aggregates its workers'
/// progress frames into one fleet-wide view and publishes it here, so the
/// same `--progress` reporter renders local and sharded campaigns alike.
/// No-op unless [`enabled`].
pub fn overwrite(snap: &LiveSnapshot) {
    if !enabled() {
        return;
    }
    COMMANDS.store(snap.commands, Ordering::Relaxed);
    ITEMS_DONE.store(snap.items_done, Ordering::Relaxed);
    ITEMS_TOTAL.store(snap.items_total, Ordering::Relaxed);
    RETRIES.store(snap.retries, Ordering::Relaxed);
    QUARANTINED.store(snap.quarantined, Ordering::Relaxed);
    UNITS_DONE.store(snap.units_done, Ordering::Relaxed);
}

/// Publishes the worker-fleet gauge: `up` workers currently alive out of
/// `total` shards (0/0 = not a sharded campaign). Unlike the campaign
/// counters this is written even when collection is disabled — the gauge
/// describes coordinator state, not sweep hot-path events.
pub fn set_workers(up: u64, total: u64) {
    WORKERS_UP.store(up, Ordering::Relaxed);
    WORKERS_TOTAL.store(total, Ordering::Relaxed);
}

/// Records `n` executed DRAM commands. No-op unless [`enabled`].
#[inline]
pub fn add_commands(n: u64) {
    if enabled() {
        COMMANDS.fetch_add(n, Ordering::Relaxed);
    }
}

/// Records one completed sweep item (chip). No-op unless [`enabled`].
#[inline]
pub fn item_done() {
    if enabled() {
        ITEMS_DONE.fetch_add(1, Ordering::Relaxed);
    }
}

/// Announces `n` more sweep items entering execution. No-op unless
/// [`enabled`].
#[inline]
pub fn add_items_total(n: u64) {
    if enabled() {
        ITEMS_TOTAL.fetch_add(n, Ordering::Relaxed);
    }
}

/// Records one retried sweep item. No-op unless [`enabled`].
#[inline]
pub fn retry() {
    if enabled() {
        RETRIES.fetch_add(1, Ordering::Relaxed);
    }
}

/// Records one quarantined sweep item. No-op unless [`enabled`].
#[inline]
pub fn quarantine() {
    if enabled() {
        QUARANTINED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Records one completed supervisor unit. No-op unless [`enabled`].
#[inline]
pub fn unit_done() {
    if enabled() {
        UNITS_DONE.fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time reading of every live counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveSnapshot {
    /// DRAM commands executed so far.
    pub commands: u64,
    /// Sweep items (chips) completed so far.
    pub items_done: u64,
    /// Sweep items announced so far (across all sweeps of the run).
    pub items_total: u64,
    /// Sweep items retried after a transient fault.
    pub retries: u64,
    /// Sweep items quarantined after exhausting retries.
    pub quarantined: u64,
    /// Supervisor units completed.
    pub units_done: u64,
    /// Worker processes currently alive (sharded campaigns; else 0).
    pub workers_up: u64,
    /// Total worker shards of the campaign (sharded campaigns; else 0).
    pub workers_total: u64,
}

/// Reads every live counter (relaxed; values may be mid-update skewed,
/// which is fine for progress display).
pub fn live_snapshot() -> LiveSnapshot {
    LiveSnapshot {
        commands: COMMANDS.load(Ordering::Relaxed),
        items_done: ITEMS_DONE.load(Ordering::Relaxed),
        items_total: ITEMS_TOTAL.load(Ordering::Relaxed),
        retries: RETRIES.load(Ordering::Relaxed),
        quarantined: QUARANTINED.load(Ordering::Relaxed),
        units_done: UNITS_DONE.load(Ordering::Relaxed),
        workers_up: WORKERS_UP.load(Ordering::Relaxed),
        workers_total: WORKERS_TOTAL.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_only_move_while_enabled() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        disable();
        reset();
        add_commands(10);
        item_done();
        retry();
        assert_eq!(live_snapshot(), LiveSnapshot::default());
        enable();
        add_commands(10);
        add_items_total(4);
        item_done();
        retry();
        quarantine();
        unit_done();
        let snap = live_snapshot();
        assert_eq!(snap.commands, 10);
        assert_eq!(snap.items_total, 4);
        assert_eq!(snap.items_done, 1);
        assert_eq!(snap.retries, 1);
        assert_eq!(snap.quarantined, 1);
        assert_eq!(snap.units_done, 1);
        disable();
        reset();
    }

    #[test]
    fn overwrite_sets_absolute_values_and_spares_worker_gauges() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        enable();
        add_commands(5);
        set_workers(3, 4);
        overwrite(&LiveSnapshot {
            commands: 100,
            items_done: 7,
            items_total: 14,
            retries: 2,
            quarantined: 1,
            units_done: 9,
            ..Default::default()
        });
        let snap = live_snapshot();
        assert_eq!(snap.commands, 100, "absolute, not additive");
        assert_eq!(snap.items_done, 7);
        assert_eq!(snap.workers_up, 3, "gauge untouched by overwrite");
        assert_eq!(snap.workers_total, 4);
        disable();
        overwrite(&LiveSnapshot::default());
        assert_eq!(live_snapshot().commands, 100, "no-op while disabled");
        set_workers(0, 0);
        reset();
    }
}
