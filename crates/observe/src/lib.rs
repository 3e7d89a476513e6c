//! Zero-dependency observability substrate for the PuDHammer workspace.
//!
//! PuDHammer's methodology is command-level observability: the experiments
//! only mean something if every ACT/PRE/REF, every violated timing, and
//! every resulting flip can be accounted for. This crate provides the
//! instrumentation the rest of the workspace emits into, with no external
//! dependencies so the build stays hermetic:
//!
//! - [`metrics`] — atomic [`Counter`]s, [`Gauge`]s, and log-bucket
//!   [`Histogram`]s in a named [`Registry`] with a process-wide default.
//! - [`shard`] — per-thread registry shards ([`ShardGuard`]) so parallel
//!   sweep workers record without contending, drained into the global
//!   registry at sweep barriers.
//! - [`par`] — the work-stealing parallel map every sweep runs on, with
//!   its worker-count resolution (`PUD_THREADS`).
//! - [`trace`] — a [`TraceSink`] trait plus ring-buffer / JSON-lines writer
//!   sinks for structured command-stream events ([`TraceEvent`]), and
//!   [`merge_ordered`] for folding per-worker buffers back together.
//! - [`span`] — RAII wall-clock spans recording into histograms.
//! - [`profile`] — opt-in hierarchical profiler aggregating span stacks
//!   into a deterministic call tree with work counters, exported as
//!   collapsed-stack text.
//! - [`live`] — always-current process-global progress counters for the
//!   campaign telemetry reporter (shards only drain at barriers, so they
//!   cannot feed a live display).
//! - [`json`] — the minimal hand-rolled JSON writer everything above uses.
//! - [`export`] — snapshot rendering as an aligned text table or JSON.
//!
//! The cost model: fetching a handle takes a registry lock once (on the
//! thread's current registry — its shard while a [`ShardGuard`] is
//! installed, the global registry otherwise); updating it is a relaxed
//! atomic; an unattached trace sink is a single `Option` check at the emit
//! site.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod json;
pub mod live;
pub mod metrics;
pub mod par;
pub mod profile;
pub mod shard;
pub mod span;
pub mod trace;

pub use json::JsonValue;
pub use live::LiveSnapshot;
pub use metrics::{
    bucket_bounds, bucket_index, global, Counter, Gauge, Histogram, HistogramSnapshot, Registry,
    Snapshot, HISTOGRAM_BUCKETS,
};
pub use profile::{Anchor, AnchorGuard, ProfileNode};
pub use shard::{sharded, ShardGuard};
pub use span::{span_in, SpanGuard};
pub use trace::{
    clear_global_sink, flush_global, global_sink, merge_ordered, set_global_sink, shared, NullSink,
    RingBufferSink, SharedSink, TraceEvent, TraceKind, TraceSink, WriterSink,
};

use std::sync::Arc;

/// Fetches counter `name` from the calling thread's current registry (its
/// shard while a [`ShardGuard`] is installed, the global registry
/// otherwise).
pub fn counter(name: &str) -> Arc<Counter> {
    shard::with_current(|r| r.counter(name))
}

/// Fetches gauge `name` from the calling thread's current registry.
pub fn gauge(name: &str) -> Arc<Gauge> {
    shard::with_current(|r| r.gauge(name))
}

/// Fetches histogram `name` from the calling thread's current registry.
pub fn histogram(name: &str) -> Arc<Histogram> {
    shard::with_current(|r| r.histogram(name))
}

/// Starts a wall-clock span recording into histogram `name` of the calling
/// thread's current registry.
pub fn span(name: &str) -> SpanGuard {
    span::span(name)
}

/// Snapshots the global registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Zeroes every metric in the global registry.
pub fn reset() {
    global().reset();
}
