//! Crash-isolated sharded campaigns: chip-range partitioning, worker
//! supervision with bounded respawn, and deterministic shard-checkpoint
//! merging.
//!
//! A sharded campaign splits a fleet sweep across `N` worker *processes*
//! (the `repro` binary re-exec'd in a hidden `--shard-worker` mode). Each
//! worker owns a contiguous chip range, measures only its own units, and
//! records them into a private shard checkpoint whose header carries the
//! campaign fingerprint and the chip range (see
//! [`super::checkpoint::ShardSlot`]). The coordinator supervises the
//! workers over the [`super::wire`] protocol, respawns a crashed worker
//! (abort, OOM-kill, SIGKILL) from its last shard checkpoint with
//! exponential backoff, merges the shard files into one whole-campaign
//! checkpoint, and finally *replays* the driver in-process from the merged
//! file — so rendered output is byte-identical to a single-process run at
//! any worker count.
//!
//! Three process roles exist, expressed as an installable [`ShardMode`]:
//!
//! - **No mode** (the default): every sweep unit runs. Single-process
//!   campaigns never touch this module's global state.
//! - **Worker** ([`install_worker`]): units outside the worker's shard are
//!   skipped as [`SkipReason::OutOfShard`] — silently, another worker owns
//!   them. A worker may carry a seeded [`ProcessFaultPlan`] (the
//!   `--fault-worker-abort`/`--fault-worker-hang` drills) that aborts or
//!   wedges the process as it starts an owned unit.
//! - **Replay** ([`install_replay`]): units of shards whose worker
//!   exhausted its respawn budget are skipped as
//!   [`SkipReason::FailedShard`] and surface as `FAILED SHARD` report
//!   footers; everything else is served from the merged checkpoint.
//!
//! Ownership is a pure function of the unit index and the sweep's item
//! count ([`owner_of`]), so workers and the replay partition every sweep
//! identically without coordination.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;

use pud_disturb::rng::unit;

use super::checkpoint::{
    record_line, write_image, CheckpointError, CheckpointHeader, CheckpointStore, SalvageReport,
    ShardSlot,
};
use super::supervisor;
use super::sweep::SkipReason;
use super::wire::{Frame, FrameStream, Heartbeat, WireError};

/// The shard role of this process, installed via [`install_worker`] /
/// [`install_replay`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum ShardMode {
    /// This process is shard `index` of `count`: it runs only its own
    /// units.
    Worker {
        /// This worker's shard index.
        index: u32,
        /// Total shard count.
        count: u32,
        /// The process-fault drill this worker runs (inert by default).
        faults: ProcessFaultPlan,
    },
    /// This process replays a merged campaign of `count` shards; units
    /// owned by a shard in `failed` were never measured and are skipped.
    Replay {
        /// Total shard count the campaign ran with.
        count: u32,
        /// Shards whose worker exhausted its respawn budget (sorted).
        failed: Vec<u32>,
    },
}

/// Salt of the process-fault draws: uncorrelated with the chip and
/// storage faults drawn from the same campaign seed.
const PROCESS_FAULT_SALT: u64 = 0x9A0C_E55F_A017_0004;

/// A fault of the worker process itself, not of a chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcessFault {
    /// The process aborts, like an OOM-kill or a stray SIGKILL.
    Abort,
    /// The process wedges without exiting, like a driver deadlock or an
    /// NFS stall; only the coordinator's heartbeat watchdog clears it.
    Hang,
}

/// Seeded abort/hang drill of one shard worker: as the worker starts an
/// owned unit, it draws from `(seed, unit index, item count)` whether the
/// process aborts (probability `abort_permille`/1000) or wedges
/// (`hang_permille`/1000); abort wins when both fire. Respawned attempts
/// run with the plan zeroed, so a drilled campaign converges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProcessFaultPlan {
    seed: u64,
    abort_permille: u32,
    hang_permille: u32,
}

impl ProcessFaultPlan {
    /// The plan of spawn `attempt` (0 = first): the given rates on the
    /// first attempt, zero on every respawn.
    pub fn new(seed: u64, abort_permille: u32, hang_permille: u32, attempt: u32) -> Self {
        if attempt > 0 {
            return ProcessFaultPlan::default();
        }
        ProcessFaultPlan {
            seed,
            abort_permille,
            hang_permille,
        }
    }

    /// The fault that fires as the worker starts item `i` of a sweep over
    /// `n` items, if any.
    fn fault_at(&self, i: usize, n: usize) -> Option<ProcessFault> {
        let id = [self.seed ^ PROCESS_FAULT_SALT, i as u64, n as u64];
        let fires = |tag: u64, permille: u32| {
            unit(&[id[0], id[1], id[2], tag]) < f64::from(permille) / 1000.0
        };
        if fires(1, self.abort_permille) {
            Some(ProcessFault::Abort)
        } else if fires(2, self.hang_permille) {
            Some(ProcessFault::Hang)
        } else {
            None
        }
    }
}

/// Tears the process down (abort) or wedges the calling sweep thread
/// forever (hang): the other sweep threads drain, the live counters
/// freeze, and the progress sampler keeps sending the frozen counters
/// until the coordinator's watchdog kills the process.
fn inject(fault: ProcessFault, i: usize, n: usize) -> ! {
    match fault {
        ProcessFault::Abort => {
            eprintln!("worker-abort fault: aborting process at unit {i} of {n}");
            std::process::abort();
        }
        ProcessFault::Hang => {
            eprintln!("worker-hang fault: process wedged at unit {i} of {n}");
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static MODE: Mutex<Option<ShardMode>> = Mutex::new(None);

/// Restores the previously installed shard mode (if any) on drop, so
/// nested and test installations compose — the same discipline as
/// [`supervisor::install`].
#[derive(Debug)]
pub struct ShardModeGuard {
    previous: Option<ShardMode>,
}

impl Drop for ShardModeGuard {
    fn drop(&mut self) {
        let mut current = MODE.lock().unwrap_or_else(|e| e.into_inner());
        *current = self.previous.take();
        ACTIVE.store(current.is_some(), Ordering::SeqCst);
    }
}

fn install(mode: ShardMode) -> ShardModeGuard {
    let mut current = MODE.lock().unwrap_or_else(|e| e.into_inner());
    let previous = current.replace(mode);
    ACTIVE.store(true, Ordering::SeqCst);
    ShardModeGuard { previous }
}

/// Marks this process as shard `index` of `count` until the guard drops:
/// isolating sweeps skip every unit another shard owns, and start each
/// owned unit by drawing from `faults`.
pub fn install_worker(index: u32, count: u32, faults: ProcessFaultPlan) -> ShardModeGuard {
    assert!(count > 0 && index < count, "shard {index} of {count}");
    install(ShardMode::Worker {
        index,
        count,
        faults,
    })
}

/// Marks this process as the coordinator's in-process replay of a
/// `count`-shard campaign until the guard drops: units owned by a shard in
/// `failed` are skipped as [`SkipReason::FailedShard`].
pub fn install_replay(count: u32, mut failed: Vec<u32>) -> ShardModeGuard {
    assert!(count > 0, "replay of a zero-shard campaign");
    failed.sort_unstable();
    failed.dedup();
    install(ShardMode::Replay { count, failed })
}

/// The shard owning item `i` of a sweep over `n` items: the balanced
/// contiguous partition `owner = i * count / n`. Pure — workers and the
/// replay agree on ownership for every sweep without coordination, and
/// every sweep of a driver partitions its own item universe.
pub fn owner_of(i: usize, n: usize, count: u32) -> u32 {
    debug_assert!(i < n);
    ((i as u64) * u64::from(count) / (n as u64)) as u32
}

/// The contiguous item range `[lo, hi)` shard `index` owns in a sweep over
/// `n` items. Inverse of [`owner_of`]: `owner_of(i, n, count) == index`
/// exactly when `lo <= i < hi`.
pub fn shard_range(index: u32, n: usize, count: u32) -> (usize, usize) {
    let lo = (u64::from(index) * (n as u64)).div_ceil(u64::from(count));
    let hi = (u64::from(index + 1) * (n as u64)).div_ceil(u64::from(count));
    (lo as usize, hi as usize)
}

/// The [`ShardSlot`] a worker stamps into its shard checkpoint header: its
/// identity plus its chip range over a fleet of `fleet_len` chips.
pub fn slot(index: u32, count: u32, fleet_len: usize) -> ShardSlot {
    let (lo, hi) = shard_range(index, fleet_len, count);
    ShardSlot {
        index,
        count,
        chip_lo: lo as u32,
        chip_hi: hi as u32,
    }
}

fn decide(mode: &ShardMode, i: usize, n: usize) -> Option<SkipReason> {
    match mode {
        ShardMode::Worker { index, count, .. } => {
            let owner = owner_of(i, n, *count);
            (owner != *index).then_some(SkipReason::OutOfShard { shard: owner })
        }
        ShardMode::Replay { count, failed } => {
            let owner = owner_of(i, n, *count);
            failed
                .binary_search(&owner)
                .is_ok()
                .then_some(SkipReason::FailedShard { shard: owner })
        }
    }
}

/// The process fault a worker hits as it starts its own item `i` of a
/// sweep over `n` items. Never in the replay or for another shard's item.
fn fault_for(mode: &ShardMode, i: usize, n: usize) -> Option<ProcessFault> {
    match mode {
        ShardMode::Worker {
            index,
            count,
            faults,
        } if owner_of(i, n, *count) == *index => faults.fault_at(i, n),
        _ => None,
    }
}

/// Whether item `i` of a sweep over `n` items is out of this process's
/// shard scope. `None` (run the unit) unless a shard mode is installed —
/// the single relaxed load every un-sharded sweep pays. A worker whose
/// process-fault drill fires on the item aborts or wedges here instead.
pub fn skip_for(i: usize, n: usize) -> Option<SkipReason> {
    if !ACTIVE.load(Ordering::Relaxed) || n == 0 {
        return None;
    }
    let (skip, fault) = {
        let mode = MODE.lock().unwrap_or_else(|e| e.into_inner());
        let mode = mode.as_ref()?;
        (decide(mode, i, n), fault_for(mode, i, n))
    };
    // The lock is released first: a wedged thread must not block the
    // other sweep threads' ownership checks.
    if let Some(fault) = fault {
        inject(fault, i, n);
    }
    skip
}

/// The path of shard `index`'s checkpoint slice: `{base}.shard{i}of{n}`.
pub fn shard_path(base: &Path, index: u32, count: u32) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(format!(".shard{index}of{count}"));
    PathBuf::from(name)
}

/// Orderly-completion stats from a worker's `Done` frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Supervisor units the worker completed over its lifetime.
    pub units_done: u64,
    /// Transient-fault retries inside the worker.
    pub retries: u64,
    /// Chips the worker quarantined.
    pub quarantined: u64,
    /// Whether the worker wound down on a cancellation rather than
    /// completing its shard.
    pub cancelled: bool,
    /// The worker's peak resident set size, in KiB (0 if unknown).
    pub peak_rss_kb: u64,
    /// Whether the worker latched a checkpoint write error.
    pub write_error: bool,
}

/// What the coordinator observed of one shard across all its spawns.
#[derive(Debug)]
pub struct ShardRun {
    /// The shard index.
    pub index: u32,
    /// Spawn attempts performed (1 = completed without a respawn).
    pub attempts: u32,
    /// Stats from the final attempt's `Done` frame, if the shard
    /// completed in an orderly way.
    pub done: Option<WorkerStats>,
    /// True when the respawn budget was exhausted (or a fatal protocol
    /// mismatch occurred) without an orderly completion: the shard is
    /// quarantined and its units render as `FAILED SHARD` footers.
    pub failed: bool,
    /// Human-readable description of the last failure, for logs.
    pub last_error: Option<String>,
}

/// Base of the exponential respawn backoff:
/// `RESPAWN_BACKOFF_MS << (attempt - 1)`, capped at
/// [`RESPAWN_BACKOFF_CAP_MS`]. It really waits — a worker that died of a
/// transient resource spike deserves a breather, and coordinator
/// wall-clock never feeds experiment output.
pub const RESPAWN_BACKOFF_MS: u64 = 50;

/// Upper bound on one respawn backoff sleep.
pub const RESPAWN_BACKOFF_CAP_MS: u64 = 2_000;

/// Shared per-shard progress table: the coordinator folds worker
/// `Progress` frames into the process-global live counters so the
/// existing `--progress` reporter renders an aggregated campaign view.
struct ProgressTable {
    per_shard: Mutex<Vec<pud_observe::live::LiveSnapshot>>,
    up: AtomicU32,
    total: u32,
}

impl ProgressTable {
    fn new(count: u32) -> ProgressTable {
        ProgressTable {
            per_shard: Mutex::new(vec![
                pud_observe::live::LiveSnapshot::default();
                count as usize
            ]),
            up: AtomicU32::new(0),
            total: count,
        }
    }

    fn worker_started(&self) {
        self.up.fetch_add(1, Ordering::SeqCst);
        self.publish_workers();
    }

    fn worker_stopped(&self) {
        self.up.fetch_sub(1, Ordering::SeqCst);
        self.publish_workers();
    }

    fn publish_workers(&self) {
        pud_observe::live::set_workers(
            u64::from(self.up.load(Ordering::SeqCst)),
            u64::from(self.total),
        );
    }

    fn update(&self, index: u32, snap: pud_observe::live::LiveSnapshot) {
        let mut rows = self.per_shard.lock().unwrap_or_else(|e| e.into_inner());
        rows[index as usize] = snap;
        let mut sum = pud_observe::live::LiveSnapshot::default();
        for row in rows.iter() {
            sum.commands += row.commands;
            sum.items_done += row.items_done;
            sum.items_total += row.items_total;
            sum.retries += row.retries;
            sum.quarantined += row.quarantined;
            sum.units_done += row.units_done;
        }
        drop(rows);
        pud_observe::live::overwrite(&sum);
        self.publish_workers();
    }
}

/// Runs every shard's worker process to completion (or respawn
/// exhaustion), one supervising thread per shard.
///
/// `spawn(index, attempt)` starts the worker process for one attempt —
/// its stdout **must** be piped ([`std::process::Stdio::piped`]); the
/// supervisor owns the read side and drives the [`super::wire`] protocol.
/// A worker whose stream ends without a `Done` frame (crash, kill,
/// injected abort), whose frames are truncated, or whose exit status is a
/// failure is respawned after an exponential backoff, up to
/// `max_respawns` times; the respawned process resumes from its shard
/// checkpoint. A `Hello` frame carrying the wrong shard index or a
/// fingerprint other than `fingerprint` is a *fatal* mismatch — respawning
/// a misconfigured worker cannot fix it.
///
/// `heartbeat` is the liveness watchdog window: a worker that shows no
/// *evidence of progress* for that long is presumed hung, SIGKILLed, and
/// respawned through the same budget as a crashed one. Evidence means a
/// `Hello`, a `Done`, or a `Progress` frame whose counters *changed* —
/// workers sample their live counters on an independent thread, so a
/// wedged executor still emits frames; only moving counters prove the
/// worker is alive. Pass a very large duration to disable the watchdog.
///
/// `log(index, message)` receives one line per noteworthy supervision
/// event (worker lost, hung, respawning, quarantined).
pub fn run_workers(
    count: u32,
    max_respawns: u32,
    fingerprint: u64,
    heartbeat: std::time::Duration,
    spawn: impl Fn(u32, u32) -> std::io::Result<std::process::Child> + Sync,
    log: impl Fn(u32, &str) + Sync,
) -> Vec<ShardRun> {
    assert!(count > 0);
    let progress = ProgressTable::new(count);
    progress.publish_workers();
    let mut runs: Vec<Option<ShardRun>> = (0..count).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (index, out) in runs.iter_mut().enumerate() {
            let (spawn, log, progress) = (&spawn, &log, &progress);
            scope.spawn(move || {
                *out = Some(supervise_shard(
                    index as u32,
                    max_respawns,
                    fingerprint,
                    heartbeat,
                    spawn,
                    log,
                    progress,
                ));
            });
        }
    });
    pud_observe::live::set_workers(0, 0);
    runs.into_iter()
        .map(|r| r.expect("every shard supervised"))
        .collect()
}

/// One attempt's verdict, from the worker's frame stream and exit status.
enum AttemptEnd {
    /// Orderly completion: `Done` frame seen, clean EOF, zero exit.
    Done(WorkerStats),
    /// The worker died or misbehaved; retrying may help.
    Lost(String),
    /// The worker is misconfigured (wrong shard / fingerprint); retrying
    /// cannot help.
    Fatal(String),
}

fn watch_attempt(
    index: u32,
    fingerprint: u64,
    heartbeat: std::time::Duration,
    child: &mut std::process::Child,
    progress: &ProgressTable,
) -> AttemptEnd {
    let Some(stdout) = child.stdout.take() else {
        let _ = child.kill();
        let _ = child.wait();
        return AttemptEnd::Fatal("worker spawned without a piped stdout".to_string());
    };
    let stream = FrameStream::spawn(stdout);
    let mut done: Option<WorkerStats> = None;
    let mut hello_seen = false;
    // The watchdog resets only on *evidence of progress*: Hello, Done, or
    // a Progress frame whose counters moved. A wedged worker's sampler
    // thread keeps emitting identical Progress frames every 200 ms — mere
    // frame arrival proves the sampler is alive, not the executor.
    let mut last_counters: Option<(u64, u64, u64, u64, u64, u64)> = None;
    let mut last_evidence = std::time::Instant::now();
    let stream_failure: Option<AttemptEnd> = loop {
        let Some(window) = heartbeat.checked_sub(last_evidence.elapsed()) else {
            let _ = child.kill();
            break Some(AttemptEnd::Lost(format!(
                "no heartbeat for {:.1}s: worker presumed hung, killed",
                heartbeat.as_secs_f64()
            )));
        };
        match stream.next_within(window) {
            None => continue, // silence so far; the checked_sub decides
            Some(Heartbeat::Frame(Frame::Hello {
                shard,
                count: _,
                fingerprint: fp,
                target: _,
                attempt: _,
            })) => {
                if shard != index {
                    break Some(AttemptEnd::Fatal(format!(
                        "worker announced shard {shard}, expected {index}"
                    )));
                }
                if fp != fingerprint {
                    break Some(AttemptEnd::Fatal(format!(
                        "worker fingerprint {fp:#x} does not match campaign {fingerprint:#x}"
                    )));
                }
                hello_seen = true;
                last_evidence = std::time::Instant::now();
            }
            Some(Heartbeat::Frame(Frame::Progress {
                commands,
                items_done,
                items_total,
                retries,
                quarantined,
                units_done,
            })) => {
                let counters = (
                    commands,
                    items_done,
                    items_total,
                    retries,
                    quarantined,
                    units_done,
                );
                if last_counters != Some(counters) {
                    last_counters = Some(counters);
                    last_evidence = std::time::Instant::now();
                }
                progress.update(
                    index,
                    pud_observe::live::LiveSnapshot {
                        commands,
                        items_done,
                        items_total,
                        retries,
                        quarantined,
                        units_done,
                        ..Default::default()
                    },
                );
            }
            Some(Heartbeat::Frame(Frame::Done {
                units_done,
                retries,
                quarantined,
                cancelled,
                peak_rss_kb,
                write_error,
            })) => {
                done = Some(WorkerStats {
                    units_done,
                    retries,
                    quarantined,
                    cancelled,
                    peak_rss_kb,
                    write_error,
                });
                last_evidence = std::time::Instant::now();
            }
            // Serve-protocol frames have no business on a worker stream: a
            // peer that sends them has lost the plot, treat it as lost.
            Some(Heartbeat::Frame(f @ (Frame::Query { .. } | Frame::Response { .. }))) => {
                break Some(AttemptEnd::Lost(format!(
                    "unexpected {} frame on worker stream",
                    match f {
                        Frame::Query { .. } => "query",
                        _ => "response",
                    }
                )));
            }
            Some(Heartbeat::Eof) => break None,
            Some(Heartbeat::Err(WireError::Truncated)) => {
                break Some(AttemptEnd::Lost("stream truncated mid-frame".to_string()))
            }
            Some(Heartbeat::Err(e)) => break Some(AttemptEnd::Lost(e.to_string())),
        }
    };
    let status = child.wait();
    if let Some(end) = stream_failure {
        // Drain the corpse before reporting; its status is secondary to
        // the stream-level diagnosis.
        return end;
    }
    match status {
        Ok(s) if s.success() => match (hello_seen, done) {
            (true, Some(stats)) => AttemptEnd::Done(stats),
            (false, _) => AttemptEnd::Fatal("worker never sent Hello".to_string()),
            (true, None) => AttemptEnd::Lost("worker exited 0 without a Done frame".to_string()),
        },
        Ok(s) => AttemptEnd::Lost(format!("worker exited with {s}")),
        Err(e) => AttemptEnd::Lost(format!("wait failed: {e}")),
    }
}

fn supervise_shard(
    index: u32,
    max_respawns: u32,
    fingerprint: u64,
    heartbeat: std::time::Duration,
    spawn: &(impl Fn(u32, u32) -> std::io::Result<std::process::Child> + Sync),
    log: &(impl Fn(u32, &str) + Sync),
    progress: &ProgressTable,
) -> ShardRun {
    let mut last_error = None;
    let mut attempts = 0;
    for attempt in 0..=max_respawns {
        if supervisor::is_cancelled().is_some() {
            // A cancelled campaign must wind down, not respawn into the
            // cancellation; completed units are safe in the shard
            // checkpoint and the replay re-measures the rest next run.
            break;
        }
        if attempt > 0 {
            let backoff = super::sweep::capped_backoff_ms(
                RESPAWN_BACKOFF_MS,
                RESPAWN_BACKOFF_CAP_MS,
                attempt - 1,
            );
            std::thread::sleep(std::time::Duration::from_millis(backoff));
            log(
                index,
                &format!("respawning from shard checkpoint (attempt {attempt}, after {backoff}ms backoff)"),
            );
        }
        attempts = attempt + 1;
        let mut child = match spawn(index, attempt) {
            Ok(child) => child,
            Err(e) => {
                last_error = Some(format!("spawn failed: {e}"));
                log(index, last_error.as_deref().unwrap_or_default());
                continue;
            }
        };
        progress.worker_started();
        let end = watch_attempt(index, fingerprint, heartbeat, &mut child, progress);
        progress.worker_stopped();
        match end {
            AttemptEnd::Done(stats) => {
                return ShardRun {
                    index,
                    attempts,
                    done: Some(stats),
                    failed: false,
                    last_error,
                }
            }
            AttemptEnd::Lost(error) => {
                log(index, &format!("worker lost: {error}"));
                last_error = Some(error);
            }
            AttemptEnd::Fatal(error) => {
                log(index, &format!("fatal worker mismatch: {error}"));
                return ShardRun {
                    index,
                    attempts,
                    done: None,
                    failed: true,
                    last_error: Some(error),
                };
            }
        }
    }
    log(
        index,
        &format!("quarantined after {attempts} attempt(s): respawn budget exhausted"),
    );
    ShardRun {
        index,
        attempts,
        done: None,
        failed: true,
        last_error,
    }
}

/// Why a shard-checkpoint merge failed.
#[derive(Debug)]
pub enum MergeError {
    /// A shard file could not be opened or verified (wrong fingerprint,
    /// wrong chip range, foreign schema version, corruption).
    Checkpoint(CheckpointError),
    /// Two inputs carry *different* data for the same `(stage, chip)` row
    /// — a topology bug, never silently resolved.
    Conflict {
        /// The stage of the conflicting row.
        stage: String,
        /// The chip of the conflicting row.
        chip: String,
    },
    /// Filesystem failure writing the merged file.
    Io(std::io::Error),
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Checkpoint(e) => write!(f, "shard merge: {e}"),
            MergeError::Conflict { stage, chip } => write!(
                f,
                "shard merge: conflicting rows for stage {stage} chip {chip} — \
                 shard files disagree; delete the stale shard checkpoints"
            ),
            MergeError::Io(e) => write!(f, "shard merge i/o error: {e}"),
        }
    }
}

impl std::error::Error for MergeError {}

impl From<CheckpointError> for MergeError {
    fn from(e: CheckpointError) -> MergeError {
        MergeError::Checkpoint(e)
    }
}

impl From<std::io::Error> for MergeError {
    fn from(e: std::io::Error) -> MergeError {
        MergeError::Io(e)
    }
}

/// What a successful shard merge produced.
#[derive(Debug, Default)]
pub struct MergeReport {
    /// Distinct `(stage, chip)` rows in the merged file.
    pub rows: usize,
    /// Salvage performed while opening damaged input files (torn tails,
    /// CRC failures): every intact prefix was merged, the reports say what
    /// was dropped. Dropped units simply re-measure in the replay.
    pub salvaged: Vec<SalvageReport>,
}

/// Merges the shard checkpoint slices of `shards` (their indices) into the
/// whole-campaign checkpoint at `base`, deterministically.
///
/// Every shard file's header is verified against `header` extended with
/// that shard's [`ShardSlot`] (campaign fingerprint *and* chip range must
/// match; a foreign schema version is a typed error) before any row is
/// trusted; damaged record streams salvage their intact prefix (reported
/// in the [`MergeReport`]). Rows already present in `base` (an earlier
/// merge, or a single-process prefix of the campaign) are kept; a row
/// appearing twice with identical data collapses; differing data for the
/// same key is a [`MergeError::Conflict`]. The merged file is rewritten
/// from scratch in sorted `(stage, chip)` order through the checkpoint
/// image writer (staged in `<base>.commit-tmp`, `fsync`, rename, directory
/// `fsync`), so its bytes are a pure function of the row set —
/// independent of shard count, completion order, and respawn history, and
/// equal to a committed single-process checkpoint of the same rows — and
/// a kill or power cut mid-merge leaves either the old file or the new
/// one, never a torn hybrid.
pub fn merge_shards(
    base: &Path,
    header: &CheckpointHeader,
    shards: &[u32],
    count: u32,
    fleet_len: usize,
) -> Result<MergeReport, MergeError> {
    assert!(header.shard.is_none(), "base header must be unsharded");
    let mut rows: std::collections::BTreeMap<(String, String), String> =
        std::collections::BTreeMap::new();
    let mut salvaged: Vec<SalvageReport> = Vec::new();
    let mut fold = |store: &CheckpointStore| -> Result<(), MergeError> {
        if let Some(report) = store.salvage() {
            salvaged.push(report.clone());
        }
        for (stage, chip, data) in store.sorted_rows() {
            let rendered = data.render();
            match rows.entry((stage.to_string(), chip.to_string())) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(rendered);
                }
                std::collections::btree_map::Entry::Occupied(slot) => {
                    if *slot.get() != rendered {
                        return Err(MergeError::Conflict {
                            stage: stage.to_string(),
                            chip: chip.to_string(),
                        });
                    }
                }
            }
        }
        Ok(())
    };
    if base.exists() {
        fold(&CheckpointStore::open(base, header.clone())?)?;
    }
    for &index in shards {
        let mut shard_header = header.clone();
        shard_header.shard = Some(slot(index, count, fleet_len));
        let path = shard_path(base, index, count);
        fold(&CheckpointStore::open(&path, shard_header)?)?;
    }
    let lines: Vec<String> = rows
        .iter()
        .map(|((stage, chip), data)| record_line(stage, chip, data))
        .collect();
    write_image(base, header, lines.iter().map(String::as_str))?;
    Ok(MergeReport {
        rows: rows.len(),
        salvaged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_total_contiguous_and_consistent() {
        for &(n, count) in &[
            (14usize, 1u32),
            (14, 2),
            (14, 4),
            (14, 14),
            (316, 4),
            (5, 8),
            (1, 3),
        ] {
            let mut seen = 0usize;
            for w in 0..count {
                let (lo, hi) = shard_range(w, n, count);
                assert!(lo <= hi && hi <= n, "n={n} count={count} w={w}");
                for i in lo..hi {
                    assert_eq!(owner_of(i, n, count), w, "n={n} count={count} i={i}");
                }
                seen += hi - lo;
            }
            assert_eq!(seen, n, "partition covers all items: n={n} count={count}");
            // Balanced: widths differ by at most one.
            let widths: Vec<usize> = (0..count)
                .map(|w| {
                    let (lo, hi) = shard_range(w, n, count);
                    hi - lo
                })
                .collect();
            let (min, max) = (widths.iter().min().unwrap(), widths.iter().max().unwrap());
            assert!(max - min <= 1, "n={n} count={count} widths={widths:?}");
        }
    }

    #[test]
    fn decide_routes_by_owner() {
        let worker = ShardMode::Worker {
            index: 1,
            count: 2,
            faults: ProcessFaultPlan::default(),
        };
        assert_eq!(
            decide(&worker, 0, 14),
            Some(SkipReason::OutOfShard { shard: 0 })
        );
        assert_eq!(decide(&worker, 13, 14), None);
        let replay = ShardMode::Replay {
            count: 4,
            failed: vec![2],
        };
        assert_eq!(decide(&replay, 0, 14), None);
        let (lo, _) = shard_range(2, 14, 4);
        assert_eq!(
            decide(&replay, lo, 14),
            Some(SkipReason::FailedShard { shard: 2 })
        );
    }

    #[test]
    fn skip_for_is_inert_without_an_installed_mode() {
        for i in 0..14 {
            assert_eq!(skip_for(i, 14), None);
        }
        assert_eq!(skip_for(0, 0), None, "empty sweeps never skip");
    }

    #[test]
    fn install_guards_nest_and_restore() {
        // Only harmless single-shard modes are installed here: shard 0 of
        // 1 owns every unit, so concurrently running sweeps in this test
        // binary are unaffected (mirrors the supervisor's test policy).
        let outer = install_worker(0, 1, ProcessFaultPlan::default());
        assert_eq!(skip_for(3, 14), None, "sole shard owns everything");
        {
            let _inner = install_replay(1, vec![]);
            assert_eq!(skip_for(3, 14), None, "no failed shards, no skips");
        }
        assert_eq!(skip_for(5, 14), None);
        drop(outer);
        assert!(!ACTIVE.load(Ordering::SeqCst));
    }

    fn worker(index: u32, count: u32, faults: ProcessFaultPlan) -> ShardMode {
        ShardMode::Worker {
            index,
            count,
            faults,
        }
    }

    #[test]
    fn process_fault_plans_are_deterministic_per_seed() {
        let draws = |seed| {
            let plan = ProcessFaultPlan::new(seed, 300, 300, 0);
            (0..64).map(|i| plan.fault_at(i, 64)).collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8), "seeds decorrelate");
        let fired = draws(7).iter().flatten().count();
        assert!(
            (16..56).contains(&fired),
            "300+300 permille fired {fired}/64"
        );
    }

    #[test]
    fn zero_permille_never_fires_and_full_permille_fires_on_the_first_owned_unit() {
        let quiet = worker(1, 2, ProcessFaultPlan::new(7, 0, 0, 0));
        assert!((0..14).all(|i| fault_for(&quiet, i, 14).is_none()));
        for (abort, hang, want) in [
            (1000, 0, ProcessFault::Abort),
            (0, 1000, ProcessFault::Hang),
            // Both fire on every unit: abort wins.
            (1000, 1000, ProcessFault::Abort),
        ] {
            let mode = worker(1, 2, ProcessFaultPlan::new(7, abort, hang, 0));
            let (lo, _) = shard_range(1, 14, 2);
            let first = (0..14).find_map(|i| fault_for(&mode, i, 14).map(|f| (i, f)));
            assert_eq!(first, Some((lo, want)), "abort {abort} hang {hang}");
        }
    }

    #[test]
    fn respawns_and_the_replay_never_fire() {
        let respawn = ProcessFaultPlan::new(7, 1000, 1000, 1);
        assert_eq!(respawn, ProcessFaultPlan::default());
        let mode = worker(0, 1, respawn);
        assert!((0..14).all(|i| fault_for(&mode, i, 14).is_none()));
        let replay = ShardMode::Replay {
            count: 2,
            failed: vec![],
        };
        assert!((0..14).all(|i| fault_for(&replay, i, 14).is_none()));
    }

    #[test]
    fn shard_paths_name_the_slice() {
        let p = shard_path(Path::new("/tmp/ckpt.jsonl"), 2, 4);
        assert_eq!(p, PathBuf::from("/tmp/ckpt.jsonl.shard2of4"));
    }

    fn header(fingerprint: u64) -> CheckpointHeader {
        CheckpointHeader {
            target: "table2".to_string(),
            scale: "quick".to_string(),
            fingerprint,
            fault_seed: None,
            shard: None,
        }
    }

    fn temp_base(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pud-shard-{name}-{}", std::process::id()));
        p
    }

    fn clean(base: &Path, count: u32) {
        let _ = std::fs::remove_file(base);
        for w in 0..count {
            let _ = std::fs::remove_file(shard_path(base, w, count));
        }
    }

    fn write_shard(
        base: &Path,
        index: u32,
        count: u32,
        fleet_len: usize,
        rows: &[(&str, &str, &str)],
    ) {
        let mut h = header(7);
        h.shard = Some(slot(index, count, fleet_len));
        let store = CheckpointStore::open(&shard_path(base, index, count), h).expect("shard file");
        for (stage, chip, data) in rows {
            store.record(stage, chip, data);
        }
    }

    #[test]
    fn merge_is_deterministic_and_order_free() {
        let base = temp_base("merge");
        clean(&base, 2);
        write_shard(&base, 0, 2, 14, &[("s0", "A#0", "1"), ("s0", "B#0", "2")]);
        write_shard(&base, 1, 2, 14, &[("s0", "C#0", "3"), ("s1", "A#0", "4")]);
        let report = merge_shards(&base, &header(7), &[0, 1], 2, 14).expect("merge");
        assert_eq!(report.rows, 4);
        assert!(report.salvaged.is_empty());
        let bytes_ab = std::fs::read(&base).expect("merged");
        // Re-merging with the shard order reversed (and the merged base
        // already populated) is byte-identical.
        let report = merge_shards(&base, &header(7), &[1, 0], 2, 14).expect("re-merge");
        assert_eq!(report.rows, 4);
        assert_eq!(std::fs::read(&base).expect("merged"), bytes_ab);
        // The merged file reopens as a plain whole-campaign checkpoint.
        let store = CheckpointStore::open(&base, header(7)).expect("reopen");
        assert_eq!(store.recovered(), 4);
        assert!(store.lookup("s1", "A#0").is_some());
        clean(&base, 2);
    }

    #[test]
    fn merge_rejects_a_foreign_fingerprint_shard() {
        let base = temp_base("merge-fp");
        clean(&base, 2);
        write_shard(&base, 0, 2, 14, &[("s0", "A#0", "1")]);
        // Shard 1 written under a different campaign fingerprint.
        let mut alien = header(8);
        alien.shard = Some(slot(1, 2, 14));
        CheckpointStore::open(&shard_path(&base, 1, 2), alien).expect("alien shard");
        let err = merge_shards(&base, &header(7), &[0, 1], 2, 14).expect_err("must reject");
        assert!(
            matches!(
                err,
                MergeError::Checkpoint(CheckpointError::HeaderMismatch { .. })
            ),
            "{err}"
        );
        clean(&base, 2);
    }

    #[test]
    fn merge_rejects_a_wrong_chip_range_shard() {
        let base = temp_base("merge-range");
        clean(&base, 2);
        // The file on disk claims shard 0's range but sits at shard 1's
        // path — a topology change between runs.
        let mut h = header(7);
        h.shard = Some(slot(0, 2, 14));
        CheckpointStore::open(&shard_path(&base, 1, 2), h).expect("mislabeled shard");
        write_shard(&base, 0, 2, 14, &[("s0", "A#0", "1")]);
        let err = merge_shards(&base, &header(7), &[0, 1], 2, 14).expect_err("must reject");
        assert!(
            matches!(
                err,
                MergeError::Checkpoint(CheckpointError::HeaderMismatch { .. })
            ),
            "{err}"
        );
        clean(&base, 2);
    }

    #[test]
    fn merge_rejects_a_foreign_schema_version() {
        let base = temp_base("merge-ver");
        clean(&base, 1);
        let path = shard_path(&base, 0, 1);
        let mut h = header(7);
        h.shard = Some(slot(0, 1, 14));
        CheckpointStore::open(&path, h).expect("create");
        let content = std::fs::read_to_string(&path)
            .expect("read")
            .replace("\"version\":2", "\"version\":999");
        std::fs::write(&path, content).expect("rewrite");
        let err = merge_shards(&base, &header(7), &[0], 1, 14).expect_err("must reject");
        assert!(
            matches!(
                err,
                MergeError::Checkpoint(CheckpointError::Version { found: 999, .. })
            ),
            "{err}"
        );
        clean(&base, 1);
    }

    #[test]
    fn merge_conflicting_rows_is_a_typed_error() {
        let base = temp_base("merge-conflict");
        clean(&base, 2);
        write_shard(&base, 0, 2, 14, &[("s0", "A#0", "1")]);
        write_shard(&base, 1, 2, 14, &[("s0", "A#0", "2")]);
        let err = merge_shards(&base, &header(7), &[0, 1], 2, 14).expect_err("must reject");
        assert!(matches!(err, MergeError::Conflict { .. }), "{err}");
        clean(&base, 2);
    }

    #[test]
    fn merge_tolerates_duplicate_identical_rows() {
        let base = temp_base("merge-dup");
        clean(&base, 2);
        write_shard(&base, 0, 2, 14, &[("s0", "A#0", "1")]);
        write_shard(&base, 1, 2, 14, &[("s0", "A#0", "1"), ("s0", "B#0", "2")]);
        let report = merge_shards(&base, &header(7), &[0, 1], 2, 14).expect("merge");
        assert_eq!(report.rows, 2);
        clean(&base, 2);
    }

    #[test]
    fn merge_io_failure_is_a_typed_error() {
        // Point the base *inside* a regular file: creating the merge temp
        // file fails with ENOTDIR before any shard is read.
        let blocker = temp_base("merge-io-blocker");
        std::fs::write(&blocker, "not a directory").expect("blocker");
        let base = blocker.join("ckpt.jsonl");
        let err = merge_shards(&base, &header(7), &[], 1, 14).expect_err("must fail");
        assert!(matches!(err, MergeError::Io(_)), "{err}");
        assert!(err.to_string().contains("i/o"), "{err}");
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn merge_salvages_a_damaged_shard_and_reports_it() {
        let base = temp_base("merge-salvage");
        clean(&base, 2);
        write_shard(&base, 0, 2, 14, &[("s0", "A#0", "1"), ("s0", "B#0", "2")]);
        write_shard(&base, 1, 2, 14, &[("s0", "C#0", "3")]);
        // Tear shard 0's last record in half, as a kill -9 mid-write would.
        let path = shard_path(&base, 0, 2);
        let content = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, &content[..content.len() - 9]).expect("tear");
        let report = merge_shards(&base, &header(7), &[0, 1], 2, 14).expect("salvage, not fail");
        assert_eq!(report.rows, 2, "intact rows from both shards");
        assert_eq!(report.salvaged.len(), 1, "the torn shard is reported");
        assert_eq!(report.salvaged[0].path, path);
        // The merged base holds exactly the surviving rows.
        let store = CheckpointStore::open(&base, header(7)).expect("reopen merged");
        assert!(store.lookup("s0", "A#0").is_some());
        assert!(store.lookup("s0", "B#0").is_none(), "torn row not merged");
        assert!(store.lookup("s0", "C#0").is_some());
        clean(&base, 2);
    }

    #[test]
    fn supervising_a_hopeless_worker_exhausts_respawns() {
        // `false` exits nonzero without ever speaking the protocol: every
        // attempt is Lost (clean EOF, no Hello — but the nonzero exit is
        // diagnosed first), the budget runs out, the shard is quarantined.
        let mut logged = Vec::new();
        {
            let log = Mutex::new(&mut logged);
            let runs = run_workers(
                1,
                2,
                0xF00D,
                std::time::Duration::from_secs(60),
                |_, _| {
                    std::process::Command::new("false")
                        .stdout(std::process::Stdio::piped())
                        .spawn()
                },
                |shard, msg| log.lock().unwrap().push(format!("[{shard}] {msg}")),
            );
            assert_eq!(runs.len(), 1);
            assert!(runs[0].failed);
            assert_eq!(runs[0].attempts, 3, "initial spawn + 2 respawns");
            assert!(runs[0].done.is_none());
            assert!(runs[0].last_error.is_some());
        }
        assert!(
            logged.iter().any(|l| l.contains("respawning")),
            "{logged:?}"
        );
        assert!(
            logged
                .iter()
                .any(|l| l.contains("respawn budget exhausted")),
            "{logged:?}"
        );
    }

    #[test]
    fn supervising_a_frame_speaking_worker_succeeds() {
        // `cat <frames>` plays back a pre-recorded orderly session: Hello,
        // one Progress, Done — the coordinator must accept it first try.
        let frames = temp_base("frames");
        let mut buf = Vec::new();
        Frame::Hello {
            shard: 0,
            count: 1,
            fingerprint: 0xF00D,
            target: "table2".into(),
            attempt: 0,
        }
        .write_to(&mut buf)
        .unwrap();
        Frame::Progress {
            commands: 10,
            items_done: 1,
            items_total: 2,
            retries: 0,
            quarantined: 0,
            units_done: 1,
        }
        .write_to(&mut buf)
        .unwrap();
        Frame::Done {
            units_done: 2,
            retries: 1,
            quarantined: 0,
            cancelled: false,
            peak_rss_kb: 4096,
            write_error: false,
        }
        .write_to(&mut buf)
        .unwrap();
        std::fs::write(&frames, &buf).expect("record session");
        let runs = run_workers(
            1,
            0,
            0xF00D,
            std::time::Duration::from_secs(60),
            |_, _| {
                std::process::Command::new("cat")
                    .arg(&frames)
                    .stdout(std::process::Stdio::piped())
                    .spawn()
            },
            |_, _| {},
        );
        assert!(!runs[0].failed);
        assert_eq!(runs[0].attempts, 1);
        let stats = runs[0].done.expect("orderly completion");
        assert_eq!(stats.units_done, 2);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.peak_rss_kb, 4096);
        let _ = std::fs::remove_file(&frames);
    }

    #[test]
    fn a_hung_worker_is_killed_by_the_watchdog_and_quarantined() {
        // The worker says Hello, then wedges: no further frames, no exit.
        // With a short heartbeat the watchdog must SIGKILL it instead of
        // waiting out the full sleep, and the shard is quarantined once
        // the (zero) respawn budget is spent.
        let frames = temp_base("hang-hello");
        let mut buf = Vec::new();
        Frame::Hello {
            shard: 0,
            count: 1,
            fingerprint: 0xF00D,
            target: "table2".into(),
            attempt: 0,
        }
        .write_to(&mut buf)
        .unwrap();
        std::fs::write(&frames, &buf).expect("record hello");
        let mut logged = Vec::new();
        let started = std::time::Instant::now();
        {
            let log = Mutex::new(&mut logged);
            let runs = run_workers(
                1,
                0,
                0xF00D,
                std::time::Duration::from_millis(300),
                |_, _| {
                    std::process::Command::new("sh")
                        .arg("-c")
                        .arg(format!("cat {}; exec sleep 600", frames.display()))
                        .stdout(std::process::Stdio::piped())
                        .spawn()
                },
                |shard, msg| log.lock().unwrap().push(format!("[{shard}] {msg}")),
            );
            assert_eq!(runs.len(), 1);
            assert!(runs[0].failed, "hung shard must be quarantined");
            assert!(runs[0].done.is_none());
        }
        assert!(
            started.elapsed() < std::time::Duration::from_secs(30),
            "watchdog must not wait out the worker's sleep"
        );
        assert!(
            logged.iter().any(|l| l.contains("presumed hung")),
            "{logged:?}"
        );
        let _ = std::fs::remove_file(&frames);
    }

    #[test]
    fn a_fingerprint_mismatch_is_fatal_not_respawned() {
        let frames = temp_base("frames-fatal");
        let mut buf = Vec::new();
        Frame::Hello {
            shard: 0,
            count: 1,
            fingerprint: 0xBAD,
            target: "table2".into(),
            attempt: 0,
        }
        .write_to(&mut buf)
        .unwrap();
        std::fs::write(&frames, &buf).expect("record session");
        let runs = run_workers(
            1,
            5,
            0xF00D,
            std::time::Duration::from_secs(60),
            |_, _| {
                std::process::Command::new("cat")
                    .arg(&frames)
                    .stdout(std::process::Stdio::piped())
                    .spawn()
            },
            |_, _| {},
        );
        assert!(runs[0].failed);
        assert_eq!(runs[0].attempts, 1, "fatal mismatches never respawn");
        assert!(runs[0]
            .last_error
            .as_deref()
            .unwrap()
            .contains("fingerprint"));
        let _ = std::fs::remove_file(&frames);
    }
}
