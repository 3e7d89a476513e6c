//! `repro` — regenerates every table and figure of the PuDHammer paper.
//!
//! Usage:
//!
//! ```text
//! repro <target> [--full] [--threads <n>] [--metrics] [--trace-out <path>] [--quiet]
//!                [--fault-seed <u64>] [--max-retries <n>]
//!                [--checkpoint <path>] [--deadline <secs>] [--deadline-units <n>]
//!                [--strict]
//! repro all [...same flags...]
//! repro fsck <checkpoint> [--repair]
//! repro list
//! ```
//!
//! Targets: `table2`, `fig4` … `fig11`, `fig13` … `fig19`, `fig21` …
//! `fig25`. `--full` runs at paper density (slower).
//!
//! `--threads <n>` sets the fleet-sweep worker count (default: the
//! `PUD_THREADS` environment variable, else the machine's available
//! parallelism, capped at the fleet size). Results are byte-identical at
//! any thread count — see `pudhammer::fleet::sweep`.
//!
//! Observability flags (see the README "Observability" section):
//!
//! - `--metrics` prints the global metrics registry (command counters,
//!   HC_first search histograms, experiment spans) to stderr after the run;
//! - `--trace-out <path>` streams every DRAM command-stream event the
//!   executors emit as JSON lines to `path`;
//! - `--profile-out <path>` enables the hierarchical profiler
//!   (`pud_observe::profile`) and writes the aggregated call tree as
//!   collapsed-stack/folded text to `path` after the run — flamegraph
//!   input, with `# `-annotation lines carrying call and work counters;
//! - `--progress` (or `PUD_PROGRESS=1`) prints live campaign telemetry to
//!   stderr every 500 ms: chips done/total, cmds/s, retry/quarantine
//!   counts, and a deadline-aware ETA. Stderr-only, so result tables on
//!   stdout stay byte-identical with it on or off;
//! - `--quiet` suppresses the result tables (metrics/trace still emitted).
//!
//! Fault tolerance (see the README "Fault tolerance & resume" section):
//!
//! - `--fault-seed <u64>` enables deterministic fault injection (default:
//!   the `PUD_FAULT_SEED` environment variable, else off). Chips that fail
//!   transiently are retried; chips that fail permanently are quarantined
//!   and reported in a footer under the affected tables;
//! - `--max-retries <n>` sets the per-chip transient retry budget
//!   (default 3);
//! - `--checkpoint <path>` appends each completed unit (chip, family, or
//!   technique) to a JSONL checkpoint and, on a re-run against the same
//!   file, replays units already recorded instead of re-measuring them.
//!   Supported for every experiment target and `all`; `fig25` (the
//!   memory-system simulation, which has no per-chip units) rejects it.
//!   Records are CRC32-framed and the file is re-committed atomically
//!   (temp file + rename + directory fsync) at every sweep barrier, so a
//!   checkpoint survives both `kill -9` mid-append and power loss. Resume
//!   *salvages* a damaged tail — the longest intact record prefix is
//!   kept, the discarded tail is reported on stderr, and the dropped
//!   units are simply re-measured;
//! - `repro fsck <checkpoint> [--repair]` verifies a checkpoint (and any
//!   sibling shard files) offline: every record frame is CRC-checked.
//!   With `--repair`, tail damage is truncated away (fsynced) and stale
//!   `.commit-tmp` staging files are removed; header damage is never
//!   repairable (the file's campaign identity is lost). Exits `0` when
//!   every file is clean (or was repaired), `40` when damage remains,
//!   `1` on usage or I/O errors.
//!
//! Campaign supervision (see `pudhammer::fleet::supervisor`):
//!
//! - SIGINT/SIGTERM cancel the campaign cooperatively: in-flight chips are
//!   abandoned, completed units stay checkpointed, a partial report is
//!   printed, and a completeness footer goes to stderr;
//! - `--deadline <secs>` bounds the campaign by wall-clock time;
//!   `--deadline-units <n>` bounds it by completed units (a deterministic,
//!   virtual-time deadline useful in tests);
//! - `--strict` maps the campaign outcome to documented exit codes:
//!   `0` clean, `1` usage/I-O error, `10` at least one chip quarantined,
//!   `20` deadline expired, `30` interrupted (highest applicable wins).
//!   Without `--strict` those campaign outcomes still exit `0`;
//!   checkpoint write failures exit `1` regardless.
//!
//! `repro all` additionally prints one JSON run-metadata line summarizing
//! the run (targets, elapsed time, key counters; fault-injection counters
//! when faults are enabled).
//!
//! Sharded campaigns (see `pudhammer::fleet::shard` and the EXPERIMENTS.md
//! "Sharded campaigns" section):
//!
//! - `--shards <n>` splits the campaign by chip range across `n` worker
//!   *processes* (this binary re-exec'd with the hidden `--shard-worker`
//!   flag). Each worker owns one shard checkpoint (`{path}.shard{i}of{n}`);
//!   a crashed/killed worker is respawned from it with exponential backoff
//!   up to `--max-respawns <k>` times (default 2). When a shard's budget is
//!   exhausted it is quarantined: its chips appear as `FAILED SHARD`
//!   footers and `--strict` exits 25. The coordinator merges the shard
//!   checkpoints and replays the drivers in-process from the merged file,
//!   so stdout is byte-identical to a single-process run at any shard
//!   count. Requires `--checkpoint`; `fig25` and `--trace-out` are
//!   rejected;
//! - `--fleet <per-family|paper|synth:n>` selects the chip roster:
//!   the default per-family sample, the paper's full 316-chip Table 1/2
//!   fleet, or a synthetic n-chip fleet for scale testing;
//! - `--page-chips` drops each chip's materialized state (cell arrays,
//!   disturbance engine) after its sweep unit, bounding peak RSS by the
//!   number of concurrently active chips instead of the fleet size.
//!   Workers always page; results are byte-identical either way;
//! - `--fault-worker-abort <permille>` seeds the worker-abort fault class:
//!   affected chips deterministically abort the hosting process (measured
//!   values are never affected — the crash-isolation test knob);
//! - `--heartbeat-timeout <secs>` (default 30) arms the coordinator's
//!   watchdog: a worker that produces no *evidence of progress* (a Hello,
//!   a Done, or a Progress frame whose counters changed) for that long is
//!   presumed hung, SIGKILLed, and respawned from its shard checkpoint
//!   through the ordinary backoff machinery;
//! - `--fault-worker-hang <permille>` seeds the worker-hang fault class:
//!   affected chips deterministically wedge the hosting process mid-sweep
//!   (the watchdog drill knob — measured values are never affected);
//! - `--fault-storage <permille>` seeds the storage fault class: at most
//!   one appended checkpoint record per file is hit by a short write, a
//!   simulated full disk, or a flipped bit. Short writes are salvaged at
//!   the next resume, full disks surface as typed write failures, bit
//!   flips are caught by the CRC frames — in every case the campaign
//!   converges to byte-identical output or fails loudly;
//! - `--mem-stats` prints `mem: peak_rss_kb=<n>` to stderr after the run.

use std::env;
use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use pud_bender::fault::{ClientFaultKind, ClientFaultPlan, FaultConfig, StorageFaultPlan};
use pudhammer::experiments::{self, Scale};
use pudhammer::fleet::checkpoint::{CheckpointHeader, CheckpointStore, ShardSlot};
use pudhammer::fleet::progress::{self, ProgressReporter};
use pudhammer::fleet::supervisor::{self, CancelReason, CancelToken};
use pudhammer::fleet::wire::{Frame, FrameReader, QueryStatus};
use pudhammer::fleet::{fsck, shard, Roster};
use pudhammer::report;
use pudhammer::serve::{self, ProfileKey, Resolution, ServeConfig};

const TARGETS: [&str; 21] = [
    "table2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig13", "fig14",
    "fig15", "fig16", "fig17", "fig18", "fig19", "fig21", "fig22", "fig23", "fig24", "fig25",
];

/// Set by the SIGINT/SIGTERM handler; the supervisor token polls it at
/// every cancellation point.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod signals {
    //! Minimal libc-free signal hookup. The handler only flips an atomic
    //! (the only async-signal-safe thing it could do); everything else —
    //! abandoning in-flight chips, flushing the checkpoint, rendering the
    //! partial report — happens at the next cooperative poll.
    use std::sync::atomic::Ordering;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn handle(_sig: i32) {
        super::INTERRUPTED.store(true, Ordering::SeqCst);
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    pub fn install() {
        let handler = handle as extern "C" fn(i32);
        unsafe {
            signal(SIGINT, handler as usize);
            signal(SIGTERM, handler as usize);
        }
    }
}

#[cfg(not(unix))]
mod signals {
    pub fn install() {}
}

struct Options {
    full: bool,
    metrics: bool,
    quiet: bool,
    strict: bool,
    threads: usize,
    trace_out: Option<String>,
    profile_out: Option<String>,
    progress: bool,
    fault_seed: Option<u64>,
    max_retries: Option<u32>,
    checkpoint: Option<String>,
    deadline: Option<f64>,
    deadline_units: Option<u64>,
    fleet: Option<String>,
    page_chips: bool,
    mem_stats: bool,
    fault_worker_abort: Option<u32>,
    fault_worker_hang: Option<u32>,
    fault_storage: Option<u32>,
    shards: Option<u32>,
    max_respawns: u32,
    /// Watchdog window: a worker silent (no progress evidence) this long
    /// is presumed hung and killed.
    heartbeat_timeout: f64,
    /// Hidden: set when this process is one shard's worker (`index/count`).
    shard_worker: Option<(u32, u32)>,
    /// Hidden: the coordinator's respawn counter for this worker. Respawns
    /// (attempt > 0) run with worker aborts disabled so a respawned worker
    /// cannot re-draw the abort that killed its predecessor.
    worker_attempt: u32,
    target: Option<String>,
}

fn usage() {
    eprintln!(
        "usage: repro <target|all|list> [--full] [--threads <n>] [--metrics] \
         [--trace-out <path>] [--profile-out <path>] [--progress] [--quiet] \
         [--fault-seed <u64>] [--max-retries <n>] \
         [--checkpoint <path>] [--deadline <secs>] [--deadline-units <n>] \
         [--strict] [--fleet <per-family|paper|synth:n>] [--page-chips] \
         [--mem-stats] [--fault-worker-abort <permille>] \
         [--fault-worker-hang <permille>] [--fault-storage <permille>] \
         [--shards <n>] [--max-respawns <n>] [--heartbeat-timeout <secs>]"
    );
    eprintln!("       repro fsck <checkpoint> [--repair]");
    eprintln!(
        "       repro serve --store <path> [--listen <addr>] [--serve-workers <n>] \
         [--queue-depth <n>] [--drain-deadline <secs>] [--sim-budget <n>] \
         [--max-wait <secs>] [--idle-timeout <secs>] [campaign scale flags]"
    );
    eprintln!(
        "       repro query <key> (--connect <addr> | --local) [--deadline-ms <n>] \
         [--repeat <n>] [--timeout <secs>] [--fault-client <seed>] \
         [--fault-client-permille <n>] [--local scale flags]"
    );
    eprintln!("targets: {}", TARGETS.join(", "));
    eprintln!(
        "exit codes: 0 clean; 1 usage, I/O, or checkpoint write failure; \
         10 chip(s) quarantined; 20 deadline expired; 25 failed shard \
         (respawn budget exhausted); 30 interrupted; 40 fsck damage remains"
    );
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        full: false,
        metrics: false,
        quiet: false,
        strict: false,
        threads: 0,
        trace_out: None,
        profile_out: None,
        progress: false,
        fault_seed: None,
        max_retries: None,
        checkpoint: None,
        deadline: None,
        deadline_units: None,
        fleet: None,
        page_chips: false,
        mem_stats: false,
        fault_worker_abort: None,
        fault_worker_hang: None,
        fault_storage: None,
        shards: None,
        max_respawns: 2,
        heartbeat_timeout: 30.0,
        shard_worker: None,
        worker_attempt: 0,
        target: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => opts.full = true,
            "--metrics" => opts.metrics = true,
            "--quiet" => opts.quiet = true,
            "--strict" => opts.strict = true,
            "--threads" => {
                let n = it
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0);
                let Some(n) = n else {
                    return Err("--threads requires a positive integer".to_string());
                };
                opts.threads = n;
            }
            "--trace-out" => {
                let Some(path) = it.next() else {
                    return Err("--trace-out requires a path".to_string());
                };
                opts.trace_out = Some(path.clone());
            }
            "--profile-out" => {
                let Some(path) = it.next() else {
                    return Err("--profile-out requires a path".to_string());
                };
                opts.profile_out = Some(path.clone());
            }
            "--progress" => opts.progress = true,
            "--fault-seed" => {
                let Some(seed) = it.next().and_then(|v| v.parse::<u64>().ok()) else {
                    return Err("--fault-seed requires an unsigned integer".to_string());
                };
                opts.fault_seed = Some(seed);
            }
            "--max-retries" => {
                let Some(n) = it.next().and_then(|v| v.parse::<u32>().ok()) else {
                    return Err("--max-retries requires an unsigned integer".to_string());
                };
                opts.max_retries = Some(n);
            }
            "--checkpoint" => {
                let Some(path) = it.next() else {
                    return Err("--checkpoint requires a path".to_string());
                };
                opts.checkpoint = Some(path.clone());
            }
            "--deadline" => {
                let secs = it
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|s| s.is_finite() && *s > 0.0);
                let Some(secs) = secs else {
                    return Err("--deadline requires a positive number of seconds".to_string());
                };
                opts.deadline = Some(secs);
            }
            "--deadline-units" => {
                let units = it
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .filter(|&n| n > 0);
                let Some(units) = units else {
                    return Err("--deadline-units requires a positive integer".to_string());
                };
                opts.deadline_units = Some(units);
            }
            "--fleet" => {
                let spec = it.next().filter(|s| Roster::parse(s).is_some());
                let Some(spec) = spec else {
                    return Err("--fleet requires per-family, paper, or synth:<n>".to_string());
                };
                opts.fleet = Some(spec.clone());
            }
            "--page-chips" => opts.page_chips = true,
            "--mem-stats" => opts.mem_stats = true,
            "--fault-worker-abort" => {
                let p = it
                    .next()
                    .and_then(|v| v.parse::<u32>().ok())
                    .filter(|&p| p <= 1000);
                let Some(p) = p else {
                    return Err("--fault-worker-abort requires a permille in 0..=1000".to_string());
                };
                opts.fault_worker_abort = Some(p);
            }
            "--fault-worker-hang" => {
                let p = it
                    .next()
                    .and_then(|v| v.parse::<u32>().ok())
                    .filter(|&p| p <= 1000);
                let Some(p) = p else {
                    return Err("--fault-worker-hang requires a permille in 0..=1000".to_string());
                };
                opts.fault_worker_hang = Some(p);
            }
            "--fault-storage" => {
                let p = it
                    .next()
                    .and_then(|v| v.parse::<u32>().ok())
                    .filter(|&p| p <= 1000);
                let Some(p) = p else {
                    return Err("--fault-storage requires a permille in 0..=1000".to_string());
                };
                opts.fault_storage = Some(p);
            }
            "--heartbeat-timeout" => {
                let secs = it
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|s| s.is_finite() && *s > 0.0);
                let Some(secs) = secs else {
                    return Err(
                        "--heartbeat-timeout requires a positive number of seconds".to_string()
                    );
                };
                opts.heartbeat_timeout = secs;
            }
            "--shards" => {
                let n = it
                    .next()
                    .and_then(|v| v.parse::<u32>().ok())
                    .filter(|&n| n > 0);
                let Some(n) = n else {
                    return Err("--shards requires a positive integer".to_string());
                };
                opts.shards = Some(n);
            }
            "--max-respawns" => {
                let Some(n) = it.next().and_then(|v| v.parse::<u32>().ok()) else {
                    return Err("--max-respawns requires an unsigned integer".to_string());
                };
                opts.max_respawns = n;
            }
            "--shard-worker" => {
                let slot = it.next().and_then(|v| {
                    let (w, s) = v.split_once('/')?;
                    let (w, s) = (w.parse::<u32>().ok()?, s.parse::<u32>().ok()?);
                    (s > 0 && w < s).then_some((w, s))
                });
                let Some(slot) = slot else {
                    return Err("--shard-worker requires <index>/<count>".to_string());
                };
                opts.shard_worker = Some(slot);
            }
            "--worker-attempt" => {
                let Some(k) = it.next().and_then(|v| v.parse::<u32>().ok()) else {
                    return Err("--worker-attempt requires an unsigned integer".to_string());
                };
                opts.worker_attempt = k;
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag: {flag}"));
            }
            target => {
                if opts.target.is_some() {
                    return Err(format!("unexpected extra argument: {target}"));
                }
                opts.target = Some(target.to_string());
            }
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    // `fsck` has its own tiny grammar (a path positional the campaign
    // parser would reject), so it is dispatched before parse_args.
    if args.first().map(String::as_str) == Some("fsck") {
        return fsck_main(&args[1..]);
    }
    // `serve` and `query` likewise own their grammar (serve-specific flags
    // plus the ordinary campaign scale flags, which they forward to
    // parse_args), so they dispatch before it too.
    if args.first().map(String::as_str) == Some("serve") {
        return serve_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("query") {
        return query_main(&args[1..]);
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let Some(target) = opts.target.clone() else {
        usage();
        return ExitCode::FAILURE;
    };
    if let Some((index, count)) = opts.shard_worker {
        return worker_main(&opts, &target, index, count);
    }
    if opts.shards.is_some() {
        return coordinator_main(&opts, &target);
    }
    campaign_main(&opts, &target, None)
}

/// `repro fsck <checkpoint> [--repair]`: offline checkpoint verification
/// and repair (see [`fsck`]). Exit `0` when every discovered file is
/// usable as it stands (clean, or damage repaired), `40` when damage
/// remains on disk, `1` on usage or filesystem errors.
fn fsck_main(args: &[String]) -> ExitCode {
    let mut path: Option<&String> = None;
    let mut repair = false;
    for a in args {
        match a.as_str() {
            "--repair" => repair = true,
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown fsck flag: {flag}");
                usage();
                return ExitCode::FAILURE;
            }
            p => {
                if path.is_some() {
                    eprintln!("error: unexpected extra argument: {p}");
                    usage();
                    return ExitCode::FAILURE;
                }
                path = Some(a);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("error: fsck requires a checkpoint path");
        usage();
        return ExitCode::FAILURE;
    };
    let report = match fsck::fsck(std::path::Path::new(path), repair) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: fsck {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if report.files.is_empty() {
        eprintln!("error: no checkpoint found at {path}");
        return ExitCode::FAILURE;
    }
    for f in &report.files {
        println!("fsck: {}: {}", f.path.display(), f.status);
    }
    for tmp in &report.stale_tmp {
        println!(
            "fsck: {}: stale commit staging file{}",
            tmp.display(),
            if repair { " (removed)" } else { "" }
        );
    }
    if report.healthy() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(40)
    }
}

/// Splits `args` into (serve/query-specific flags handled by `take`,
/// leftovers forwarded to [`parse_args`] for the ordinary campaign scale
/// flags). `take` returns how many *value* tokens it consumed for a flag
/// it recognized, or `None` to forward the token.
fn split_args(
    args: &[String],
    mut take: impl FnMut(&str, Option<&String>) -> Result<Option<usize>, String>,
) -> Result<Options, String> {
    let mut rest: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match take(args[i].as_str(), args.get(i + 1))? {
            Some(values) => i += 1 + values,
            None => {
                rest.push(args[i].clone());
                i += 1;
            }
        }
    }
    let opts = parse_args(&rest)?;
    if let Some(extra) = &opts.target {
        return Err(format!("unexpected extra argument: {extra}"));
    }
    Ok(opts)
}

/// `repro serve`: the long-lived characterization query server (see
/// [`pudhammer::serve`]). Exit `0` on a clean drain, `30` when the drain
/// deadline forced abandoning in-flight work, `1` on startup or store
/// write failures.
fn serve_main(args: &[String]) -> ExitCode {
    let mut store: Option<String> = None;
    let mut listen = "127.0.0.1:0".to_string();
    let mut workers = 2usize;
    let mut queue_depth = 64usize;
    let mut drain_deadline = 5.0f64;
    let mut sim_budget: Option<u64> = None;
    let mut max_wait = 60.0f64;
    let mut idle_timeout = 30.0f64;
    let split = split_args(args, |flag, value| {
        let positive_secs =
            |v: Option<&String>| v.and_then(|v| v.parse::<f64>().ok()).filter(|s| *s > 0.0);
        match flag {
            "--store" => {
                store = Some(
                    value
                        .cloned()
                        .ok_or("--store requires a path".to_string())?,
                );
            }
            "--listen" => {
                listen = value
                    .cloned()
                    .ok_or("--listen requires a host:port address".to_string())?;
            }
            "--serve-workers" => {
                workers = value
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--serve-workers requires a positive integer".to_string())?;
            }
            "--queue-depth" => {
                queue_depth = value
                    .and_then(|v| v.parse::<usize>().ok())
                    .ok_or("--queue-depth requires an unsigned integer".to_string())?;
            }
            "--drain-deadline" => {
                drain_deadline = positive_secs(value)
                    .ok_or("--drain-deadline requires a positive number of seconds".to_string())?;
            }
            "--sim-budget" => {
                sim_budget = Some(
                    value
                        .and_then(|v| v.parse::<u64>().ok())
                        .ok_or("--sim-budget requires an unsigned integer".to_string())?,
                );
            }
            "--max-wait" => {
                max_wait = positive_secs(value)
                    .ok_or("--max-wait requires a positive number of seconds".to_string())?;
            }
            "--idle-timeout" => {
                idle_timeout = positive_secs(value)
                    .ok_or("--idle-timeout requires a positive number of seconds".to_string())?;
            }
            _ => return Ok(None),
        }
        Ok(Some(1))
    });
    let opts = match split {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let Some(store) = store else {
        eprintln!("error: serve requires --store <path>");
        usage();
        return ExitCode::FAILURE;
    };
    signals::install();
    let mut config = ServeConfig::new(
        build_scale(&opts, false),
        std::path::PathBuf::from(store),
        &INTERRUPTED,
    );
    config.scale_label = if opts.full { "full" } else { "quick" }.to_string();
    config.listen = listen;
    config.workers = workers;
    config.queue_depth = queue_depth;
    config.drain_deadline = Duration::from_secs_f64(drain_deadline);
    config.sim_budget = sim_budget;
    config.max_wait = Duration::from_secs_f64(max_wait);
    config.idle_timeout = Duration::from_secs_f64(idle_timeout);
    let summary = match serve::run(config) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.metrics {
        eprint!("{}", report::metrics_table(&pud_observe::snapshot()));
    }
    if let Some(e) = summary.write_error {
        eprintln!("error: profile store write failed: {e}");
        return ExitCode::FAILURE;
    }
    if summary.forced_abandon {
        ExitCode::from(30)
    } else {
        ExitCode::SUCCESS
    }
}

/// Maps a query verdict to the client's exit code: `0` ok, `1` bad
/// request, `11` overloaded, `12` degraded, `13` unavailable, `20`
/// expired — disjoint from the campaign codes so CI scripts can assert on
/// them without ambiguity.
fn query_exit(status: QueryStatus) -> ExitCode {
    match status {
        QueryStatus::Ok => ExitCode::SUCCESS,
        QueryStatus::BadRequest => ExitCode::FAILURE,
        QueryStatus::Overloaded => ExitCode::from(11),
        QueryStatus::Degraded => ExitCode::from(12),
        QueryStatus::Unavailable => ExitCode::from(13),
        QueryStatus::Expired => ExitCode::from(20),
    }
}

/// Prints a resolution the way CI byte-compares it: the value alone on
/// stdout for `Ok` (identical whether served, cached, or computed
/// locally), the typed verdict on stderr otherwise.
fn print_resolution(r: &Resolution) {
    eprintln!(
        "query: status={} cached={} retries={}",
        r.status, r.cached, r.retries
    );
    if r.status == QueryStatus::Ok {
        println!("{}", r.value);
    } else {
        eprintln!("query: {}", r.detail);
    }
}

/// One served round trip: connect, send the query, await the typed
/// response under `timeout`.
fn query_once(
    addr: &str,
    key: &str,
    id: u64,
    deadline_ms: u64,
    timeout: Duration,
) -> Result<Resolution, String> {
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| format!("set timeout: {e}"))?;
    Frame::Query {
        id,
        key: key.to_string(),
        deadline_ms,
    }
    .write_to(&mut stream)
    .map_err(|e| format!("send query: {e}"))?;
    let frame = FrameReader::new(&mut stream)
        .next_frame()
        .map_err(|e| format!("read response: {e}"))?;
    match frame {
        Some(Frame::Response {
            id: got,
            status,
            cached,
            value,
            detail,
        }) => {
            if got != id && got != 0 {
                return Err(format!("response for query {got}, expected {id}"));
            }
            Ok(Resolution {
                status,
                cached,
                value,
                detail,
                retries: 0,
            })
        }
        Some(other) => Err(format!("unexpected {:?} frame", other)),
        None => Err("server closed the connection without a response".to_string()),
    }
}

/// `repro query`: the point-query client (and, with `--fault-client`, the
/// seeded chaos client). `--connect` asks a running server; `--local`
/// computes the same key in-process through the identical resolve path —
/// the two print byte-identical values.
fn query_main(args: &[String]) -> ExitCode {
    let Some((key, args)) = args.split_first() else {
        eprintln!("error: query requires a profile key as its first argument");
        usage();
        return ExitCode::FAILURE;
    };
    if key.starts_with("--") {
        eprintln!("error: query requires the profile key before any flags");
        usage();
        return ExitCode::FAILURE;
    }
    let mut connect: Option<String> = None;
    let mut local = false;
    let mut deadline_ms = 0u64;
    let mut timeout = 30.0f64;
    let mut repeat = 1u64;
    let mut fault_client: Option<u64> = None;
    let mut fault_permille = 700u32;
    let split = split_args(args, |flag, value| {
        match flag {
            "--connect" => {
                connect = Some(
                    value
                        .cloned()
                        .ok_or("--connect requires a host:port address".to_string())?,
                );
            }
            "--local" => {
                local = true;
                return Ok(Some(0));
            }
            "--deadline-ms" => {
                deadline_ms = value
                    .and_then(|v| v.parse::<u64>().ok())
                    .ok_or("--deadline-ms requires an unsigned integer".to_string())?;
            }
            "--timeout" => {
                timeout = value
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|s| *s > 0.0)
                    .ok_or("--timeout requires a positive number of seconds".to_string())?;
            }
            "--repeat" => {
                repeat = value
                    .and_then(|v| v.parse::<u64>().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--repeat requires a positive integer".to_string())?;
            }
            "--fault-client" => {
                fault_client = Some(
                    value
                        .and_then(|v| v.parse::<u64>().ok())
                        .ok_or("--fault-client requires an unsigned integer seed".to_string())?,
                );
            }
            "--fault-client-permille" => {
                fault_permille = value
                    .and_then(|v| v.parse::<u32>().ok())
                    .filter(|&p| p <= 1000)
                    .ok_or("--fault-client-permille requires a permille in 0..=1000".to_string())?;
            }
            _ => return Ok(None),
        }
        Ok(Some(1))
    });
    let opts = match split {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    if local {
        // The in-process reference path: same resolve, same bytes.
        let scale = build_scale(&opts, false);
        let parsed = match ProfileKey::parse(key) {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!("error: bad profile key: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut last = ExitCode::SUCCESS;
        for _ in 0..repeat {
            let r = serve::resolve_with_retry(&scale, &parsed);
            print_resolution(&r);
            last = query_exit(r.status);
        }
        return last;
    }
    let Some(addr) = connect else {
        eprintln!("error: query requires --connect <addr> or --local");
        usage();
        return ExitCode::FAILURE;
    };
    let timeout = Duration::from_secs_f64(timeout);
    if let Some(seed) = fault_client {
        return chaos_main(&addr, key, seed, fault_permille, repeat, timeout);
    }
    let mut last = ExitCode::SUCCESS;
    for i in 0..repeat {
        match query_once(&addr, key, i + 1, deadline_ms, timeout) {
            Ok(r) => {
                print_resolution(&r);
                last = query_exit(r.status);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    last
}

/// The seeded chaos client: `repeat` connections each behave per the
/// [`ClientFaultPlan`] — a well-formed query, a slow-loris trickle, a
/// mid-frame disconnect, or a malformed frame — then one final healthy
/// probe proves the server still answers. Exit `0` when it does.
fn chaos_main(
    addr: &str,
    key: &str,
    seed: u64,
    permille: u32,
    conns: u64,
    timeout: Duration,
) -> ExitCode {
    use std::io::Write as _;
    let plan = ClientFaultPlan::new(seed, permille);
    let mut counts = [0u64; 4]; // healthy, slow_loris, mid_frame_cut, malformed
    let mut typed_responses = 0u64;
    for conn in 0..conns {
        let kind = plan.classify(conn);
        let outcome: Result<bool, String> = (|| {
            let mut frame = Vec::new();
            Frame::Query {
                id: conn + 1,
                key: key.to_string(),
                deadline_ms: 0,
            }
            .write_to(&mut frame)
            .map_err(|e| e.to_string())?;
            let mut stream =
                std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
            let _ = stream.set_nodelay(true);
            stream
                .set_read_timeout(Some(timeout))
                .map_err(|e| e.to_string())?;
            match kind {
                None => {
                    stream.write_all(&frame).map_err(|e| e.to_string())?;
                    let got = FrameReader::new(&mut stream).next_frame();
                    Ok(matches!(got, Ok(Some(Frame::Response { .. }))))
                }
                Some(ClientFaultKind::SlowLoris) => {
                    // Trickle the header and the first payload bytes with
                    // seeded pauses, then finish; a robust server either
                    // answers or cuts the idle connection — never wedges.
                    let trickle = frame.len().min(12);
                    for (i, byte) in frame[..trickle].iter().enumerate() {
                        stream.write_all(&[*byte]).map_err(|e| e.to_string())?;
                        std::thread::sleep(Duration::from_millis(
                            3 + plan.draw(conn, 16 + i as u64) % 8,
                        ));
                    }
                    stream
                        .write_all(&frame[trickle..])
                        .map_err(|e| e.to_string())?;
                    let got = FrameReader::new(&mut stream).next_frame();
                    Ok(matches!(got, Ok(Some(Frame::Response { .. }))))
                }
                Some(ClientFaultKind::MidFrameCut) => {
                    // The length prefix promises bytes that never come.
                    let cut = 5 + (plan.draw(conn, 5) as usize) % (frame.len() - 5);
                    stream.write_all(&frame[..cut]).map_err(|e| e.to_string())?;
                    stream
                        .shutdown(std::net::Shutdown::Write)
                        .map_err(|e| e.to_string())?;
                    Ok(false)
                }
                Some(ClientFaultKind::MalformedFrame) => {
                    let garbage: Vec<u8> = match plan.draw(conn, 6) % 3 {
                        0 => vec![0, 0, 0, 0],             // zero-length frame
                        1 => vec![0xff, 0xff, 0xff, 0xff], // absurd length word
                        _ => {
                            // Plausible length, junk tag and payload.
                            let mut g = vec![4, 0, 0, 0, 0x99];
                            g.extend_from_slice(&plan.draw(conn, 7).to_le_bytes()[..4]);
                            g
                        }
                    };
                    stream.write_all(&garbage).map_err(|e| e.to_string())?;
                    // A typed BadRequest reply or a clean close both pass.
                    let _ = FrameReader::new(&mut stream).next_frame();
                    Ok(false)
                }
            }
        })();
        let slot = match kind {
            None => 0,
            Some(ClientFaultKind::SlowLoris) => 1,
            Some(ClientFaultKind::MidFrameCut) => 2,
            Some(ClientFaultKind::MalformedFrame) => 3,
        };
        counts[slot] += 1;
        match outcome {
            Ok(true) => typed_responses += 1,
            Ok(false) => {}
            Err(e) => eprintln!(
                "chaos: conn {conn} ({}): {e}",
                kind.map_or("healthy", ClientFaultKind::name)
            ),
        }
    }
    eprintln!(
        "chaos: {conns} connection(s): {} healthy, {} slow_loris, {} mid_frame_cut, \
         {} malformed_frame; {typed_responses} typed response(s)",
        counts[0], counts[1], counts[2], counts[3],
    );
    // The verdict: after all that abuse, a well-formed probe still works.
    match query_once(addr, key, u64::from(u32::MAX), 0, timeout) {
        Ok(r) => {
            eprintln!("chaos: post-chaos probe answered: status={}", r.status);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: post-chaos probe failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The coordinator's in-process replay of a sharded campaign: which shards
/// existed and which were quarantined after exhausting their respawns.
struct ReplayMode {
    count: u32,
    failed: Vec<u32>,
}

/// Builds the effective [`Scale`] from the CLI options.
/// `zero_process_faults` disables the worker-abort and worker-hang fault
/// classes while keeping the configuration shape (and thus the checkpoint
/// header) intact — used by respawned workers and the coordinator's
/// replay, none of which may crash or wedge.
fn build_scale(opts: &Options, zero_process_faults: bool) -> Scale {
    let mut scale = if opts.full {
        Scale::full()
    } else {
        Scale::quick()
    };
    scale.threads = opts.threads;
    scale.fleet.fault = opts
        .fault_seed
        .map(FaultConfig::from_seed)
        .or_else(FaultConfig::from_env);
    let process_fault = |permille: u32| {
        if zero_process_faults || opts.worker_attempt > 0 {
            0
        } else {
            permille
        }
    };
    if let Some(permille) = opts.fault_worker_abort {
        let eff = process_fault(permille);
        scale.fleet.fault = Some(match scale.fleet.fault {
            Some(f) => f.with_worker_abort(eff),
            None => FaultConfig::worker_abort_only(0, eff),
        });
    }
    if let Some(permille) = opts.fault_worker_hang {
        let eff = process_fault(permille);
        scale.fleet.fault = Some(match scale.fleet.fault {
            Some(f) => f.with_worker_hang(eff),
            None => FaultConfig::worker_abort_only(0, 0).with_worker_hang(eff),
        });
    }
    if let Some(n) = opts.max_retries {
        scale.max_retries = n;
    }
    if let Some(spec) = &opts.fleet {
        scale.fleet.roster = Roster::parse(spec).expect("validated at parse");
    }
    // Workers always page: their peak RSS is what bounds the campaign's
    // memory, and paging is results-neutral.
    scale.fleet.page_chips = opts.page_chips || opts.shard_worker.is_some();
    scale
}

fn campaign_main(opts: &Options, target: &str, replay: Option<ReplayMode>) -> ExitCode {
    // Install the trace sink before any experiment constructs an executor:
    // executors attach the global sink at construction time.
    if let Some(path) = &opts.trace_out {
        match File::create(path) {
            Ok(f) => {
                pud_observe::set_global_sink(pud_observe::shared(pud_observe::WriterSink::new(
                    BufWriter::new(f),
                )));
            }
            Err(e) => {
                eprintln!("error: cannot create trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let scale = build_scale(opts, replay.is_some());
    // In replay mode, units owned by a quarantined shard are skipped and
    // surface as FAILED SHARD report footers instead of being re-measured.
    let _shard_guard = replay
        .as_ref()
        .map(|r| shard::install_replay(r.count, r.failed.clone()));
    let ckpt = match open_checkpoint(opts, target, &scale, None) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    // Storage faults drill the single-process durability path too; the
    // coordinator's replay must stay clean (its merged file is the one
    // source of truth).
    if replay.is_none() {
        if let Some(store) = &ckpt {
            arm_storage_faults(opts, &scale, store);
        }
    }
    // The supervisor is always on: SIGINT/SIGTERM cancel cooperatively
    // even without a deadline, and the `supervisor.*` counters feed the
    // campaign footer. The kept clone answers "was this run cut short?"
    // after the guard drops.
    signals::install();
    let mut token = CancelToken::new().with_interrupt_flag(&INTERRUPTED);
    if let Some(secs) = opts.deadline {
        token = token.with_deadline(Duration::from_secs_f64(secs));
    }
    if let Some(units) = opts.deadline_units {
        token = token.with_unit_budget(units);
    }
    let supervisor_guard = supervisor::install(token.clone());
    // Profiling and progress are observer-only: the profiler writes to its
    // own file and the reporter to stderr, so primary stdout stays
    // byte-identical with either on or off.
    if opts.profile_out.is_some() {
        pud_observe::profile::reset();
        pud_observe::profile::enable();
    }
    let reporter = (opts.progress || progress::env_enabled()).then(ProgressReporter::start);
    let started = Instant::now();
    let mut ran: Vec<&str> = Vec::new();
    let mut phases: Vec<(&str, u64)> = Vec::new();
    let mut timed_run = |t, scale: &Scale, ckpt: Option<&CheckpointStore>| {
        let phase_start = Instant::now();
        run_target(t, scale, opts, ckpt);
        phases.push((
            t,
            phase_start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        ));
    };
    match target {
        "list" => {
            for t in TARGETS {
                println!("{t}");
            }
        }
        "all" => {
            for t in TARGETS {
                if supervisor::is_cancelled().is_some() {
                    break;
                }
                timed_run(t, &scale, ckpt.as_ref());
                ran.push(t);
            }
        }
        t if TARGETS.contains(&t) => {
            timed_run(t, &scale, ckpt.as_ref());
            ran.push(t);
        }
        other => {
            eprintln!("unknown target: {other}");
            eprintln!("targets: {}", TARGETS.join(", "));
            return ExitCode::FAILURE;
        }
    }
    drop(reporter);
    drop(supervisor_guard);
    pud_observe::flush_global();
    if let Some(path) = &opts.profile_out {
        pud_observe::profile::disable();
        let nodes = pud_observe::profile::snapshot();
        let folded = pud_observe::profile::render_folded(&nodes);
        if let Err(e) = std::fs::write(path, folded) {
            eprintln!("error: cannot write profile file {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if target == "all" {
        println!(
            "{}",
            run_metadata(&ran, &scale, opts.full, started.elapsed(), &phases)
        );
    }
    let snap = pud_observe::snapshot();
    campaign_footer(&snap, &token);
    if opts.metrics {
        eprint!("{}", report::metrics_table(&snap));
    }
    if opts.mem_stats {
        if let Some(kb) = peak_rss_kb() {
            eprintln!("mem: peak_rss_kb={kb}");
        }
    }
    // A checkpoint that could not be written means a "resumable" run that
    // silently would not resume — a hard failure even without --strict.
    // The final commit makes the campaign's full record set durable
    // against power loss before the verdict is read.
    if let Some(store) = &ckpt {
        store.commit();
        if let Some(e) = store.take_write_error() {
            eprintln!("error: checkpoint write failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    exit_code(opts, &snap, &token)
}

/// The campaign completeness footer (stderr, so result tables on stdout
/// stay byte-identical): how many supervised units completed, how many of
/// those were replayed from a checkpoint, how many were abandoned by a
/// cancellation, and why the campaign was cut short (if it was). Clean
/// uncheckpointed runs print nothing — the footer appears only when a
/// resume or a cancellation made the campaign's history non-trivial.
fn campaign_footer(snap: &pud_observe::Snapshot, token: &CancelToken) {
    let completed = snap.counter("supervisor.completed").unwrap_or(0);
    let resumed = snap.counter("supervisor.resumed").unwrap_or(0);
    let cancelled = snap.counter("supervisor.cancelled").unwrap_or(0);
    if resumed + cancelled == 0 && token.latched().is_none() {
        return;
    }
    let mut line = format!(
        "campaign: {completed} unit(s) completed ({resumed} resumed from checkpoint), \
         {cancelled} cancelled"
    );
    if let Some(reason) = token.latched() {
        line.push_str(&format!(" — {reason}"));
    }
    eprintln!("{line}");
}

/// Maps the campaign outcome to the documented `--strict` exit codes
/// (interrupted=30 > failed shard=25 > deadline=20 > quarantined=10 >
/// clean=0). Without `--strict` every completed campaign exits 0.
fn exit_code(opts: &Options, snap: &pud_observe::Snapshot, token: &CancelToken) -> ExitCode {
    if !opts.strict {
        return ExitCode::SUCCESS;
    }
    let latched = token.latched();
    if INTERRUPTED.load(Ordering::SeqCst) || latched == Some(CancelReason::Interrupted) {
        return ExitCode::from(30);
    }
    if snap.counter("sweep.shard_lost").unwrap_or(0) > 0 {
        return ExitCode::from(25);
    }
    if latched == Some(CancelReason::DeadlineExpired) {
        return ExitCode::from(20);
    }
    if snap.counter("sweep.quarantined").unwrap_or(0) > 0 {
        return ExitCode::from(10);
    }
    ExitCode::SUCCESS
}

/// Peak resident-set size of this process in kilobytes, read from
/// `/proc/self/status` (`VmHWM`). Best-effort: `None` on platforms without
/// procfs, in which case the metadata key is simply omitted.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        line.strip_prefix("VmHWM:")?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse::<u64>()
            .ok()
    })
}

/// One JSON line summarizing a `repro all` run: what ran, how long it took
/// (overall and per phase), peak memory, the effective sweep thread count,
/// and the headline command-stream counters.
fn run_metadata(
    targets: &[&str],
    scale: &Scale,
    full: bool,
    elapsed: std::time::Duration,
    phases: &[(&str, u64)],
) -> String {
    let snap = pud_observe::snapshot();
    let mut list = pud_observe::json::JsonArray::new();
    for t in targets {
        list = list.str(t);
    }
    let mut phase_list = pud_observe::json::JsonArray::new();
    for (name, ns) in phases {
        phase_list = phase_list.raw(
            &pud_observe::json::JsonObject::new()
                .str("target", name)
                .u64("elapsed_ns", *ns)
                .finish(),
        );
    }
    let mut obj = pud_observe::json::JsonObject::new()
        .str("run", "repro-all")
        .str("scale", if full { "full" } else { "quick" })
        .u64(
            "threads",
            scale.sweep_threads(scale.fleet.fleet_size()) as u64,
        )
        .u64("targets", targets.len() as u64)
        .raw("target_list", &list.finish())
        .f64("elapsed_s", elapsed.as_secs_f64())
        .raw("phases", &phase_list.finish());
    if let Some(kb) = peak_rss_kb() {
        obj = obj.u64("peak_rss_kb", kb);
    }
    obj = obj
        .u64("acts", snap.counter("bender.acts").unwrap_or(0))
        .u64("bitflips", snap.counter("bender.flips").unwrap_or(0))
        .u64(
            "timing_violations",
            snap.counter("bender.timing_violations").unwrap_or(0),
        )
        .u64(
            "comra_copies",
            snap.counter("bender.comra_copies").unwrap_or(0),
        )
        .u64(
            "simra_groups",
            snap.counter("bender.simra_groups").unwrap_or(0),
        )
        .u64(
            "hcfirst_searches",
            snap.counter("hcfirst.searches").unwrap_or(0),
        );
    // Fault-injection keys appear only when faults are enabled, so a
    // fault-free run's metadata is byte-identical to a pre-fault build.
    if scale.fleet.fault.is_some() {
        let injected: u64 = snap
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("faults.injected."))
            .map(|(_, v)| v)
            .sum();
        obj = obj
            .u64("faults_injected", injected)
            .u64("sweep_retries", snap.counter("sweep.retries").unwrap_or(0))
            .u64(
                "sweep_quarantined",
                snap.counter("sweep.quarantined").unwrap_or(0),
            );
    }
    obj.finish()
}

fn run_target(target: &str, scale: &Scale, opts: &Options, ckpt: Option<&CheckpointStore>) {
    let rendered = render_target(target, scale, opts.full, ckpt);
    if !opts.quiet {
        println!("{rendered}");
    }
}

/// The campaign identity header for a run: target, scale, fleet
/// fingerprint, fault seed, and (for worker processes) the shard slot.
fn checkpoint_header(
    opts: &Options,
    target: &str,
    scale: &Scale,
    slot: Option<ShardSlot>,
) -> CheckpointHeader {
    CheckpointHeader {
        target: target.to_string(),
        scale: if opts.full { "full" } else { "quick" }.to_string(),
        fingerprint: scale.fleet.fingerprint(),
        fault_seed: scale.fleet.fault.map(|f| f.seed),
        shard: slot,
    }
}

/// Opens the `--checkpoint` store. Every experiment target (and `all`)
/// supports one; `fig25` and `list` are hard usage errors.
fn open_checkpoint(
    opts: &Options,
    target: &str,
    scale: &Scale,
    slot: Option<ShardSlot>,
) -> Result<Option<CheckpointStore>, String> {
    let Some(path) = &opts.checkpoint else {
        return Ok(None);
    };
    let supported = target == "all" || (TARGETS.contains(&target) && target != "fig25");
    if !supported {
        return Err(format!(
            "--checkpoint is not supported for {target} \
             (supported: all and every experiment target except fig25)"
        ));
    }
    let header = checkpoint_header(opts, target, scale, slot);
    let store =
        CheckpointStore::open(std::path::Path::new(path), header).map_err(|e| e.to_string())?;
    // A damaged tail was salvaged, not fatal: say what was dropped (those
    // units simply re-measure) so a shrunken resume is never a mystery.
    if let Some(salvage) = store.salvage() {
        eprintln!("{salvage}");
    }
    if store.recovered() > 0 {
        eprintln!(
            "checkpoint: resuming {} completed unit(s) from {path}",
            store.recovered()
        );
    }
    Ok(Some(store))
}

/// Arms the seeded storage-fault schedule on an open checkpoint, keyed on
/// the checkpoint's own file name so every shard (and the merged base)
/// draws independently. Respawned workers (`--worker-attempt > 0`) run
/// with storage faults at zero, exactly like the process fault classes,
/// so faulted campaigns converge.
fn arm_storage_faults(opts: &Options, scale: &Scale, store: &CheckpointStore) {
    let Some(permille) = opts.fault_storage else {
        return;
    };
    let eff = if opts.worker_attempt > 0 { 0 } else { permille };
    let seed = scale
        .fleet
        .fault
        .map(|f| f.seed)
        .or(opts.fault_seed)
        .unwrap_or(0);
    let scope = store.path().file_name().map_or_else(
        || store.path().to_string_lossy().into_owned(),
        |n| n.to_string_lossy().into_owned(),
    );
    store.arm_storage_faults(StorageFaultPlan::derive(seed, eff, &scope));
}

/// Writes one wire frame to stdout, atomically with respect to the other
/// frame emitters in this process (the whole frame is buffered first, and
/// `StdoutLock` serializes the single `write_all`).
fn emit_frame(frame: &Frame) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut buf = Vec::new();
    frame
        .write_to(&mut buf)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    lock.write_all(&buf)?;
    lock.flush()
}

/// Hidden `--shard-worker` mode: this process measures one shard's chip
/// range into its own shard checkpoint, speaking the wire protocol on
/// stdout (stdout carries frames ONLY — result rendering is suppressed;
/// human-facing notes go to stderr, which the coordinator passes through).
fn worker_main(opts: &Options, target: &str, index: u32, count: u32) -> ExitCode {
    if opts.checkpoint.is_none() {
        eprintln!("error: --shard-worker requires --checkpoint");
        return ExitCode::FAILURE;
    }
    if !(target == "all" || (TARGETS.contains(&target) && target != "fig25")) {
        eprintln!("error: --shard-worker does not support target {target}");
        return ExitCode::FAILURE;
    }
    let scale = build_scale(opts, false);
    let fingerprint = scale.fleet.fingerprint();
    let slot = shard::slot(index, count, scale.fleet.fleet_size());
    let ckpt = match open_checkpoint(opts, target, &scale, Some(slot)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(store) = &ckpt {
        arm_storage_faults(opts, &scale, store);
    }
    let _mode = shard::install_worker(index, count);
    signals::install();
    let mut token = CancelToken::new().with_interrupt_flag(&INTERRUPTED);
    if let Some(secs) = opts.deadline {
        token = token.with_deadline(Duration::from_secs_f64(secs));
    }
    let supervisor_guard = supervisor::install(token.clone());
    pud_observe::live::reset();
    pud_observe::live::enable();
    if emit_frame(&Frame::Hello {
        shard: index,
        count,
        fingerprint,
        target: target.to_string(),
        attempt: opts.worker_attempt,
    })
    .is_err()
    {
        // A dead stdout means a dead coordinator; nothing to work for.
        return ExitCode::FAILURE;
    }
    // Progress sampler: a frame every 200 ms from the live counters. The
    // channel disconnect on drop doubles as the stop signal.
    let (stop, stopped) = std::sync::mpsc::channel::<()>();
    let sampler = std::thread::spawn(move || {
        while let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
            stopped.recv_timeout(Duration::from_millis(200))
        {
            let s = pud_observe::live::live_snapshot();
            let frame = Frame::Progress {
                commands: s.commands,
                items_done: s.items_done,
                items_total: s.items_total,
                retries: s.retries,
                quarantined: s.quarantined,
                units_done: s.units_done,
            };
            if emit_frame(&frame).is_err() {
                break;
            }
        }
    });
    match target {
        "all" => {
            for t in TARGETS {
                // fig25 has no per-chip units to shard; the coordinator's
                // replay runs it once, in-process.
                if t == "fig25" {
                    continue;
                }
                if supervisor::is_cancelled().is_some() {
                    break;
                }
                let _ = render_target(t, &scale, opts.full, ckpt.as_ref());
            }
        }
        t => {
            let _ = render_target(t, &scale, opts.full, ckpt.as_ref());
        }
    }
    drop(stop);
    let _ = sampler.join();
    drop(supervisor_guard);
    // Shard barrier: commit before Done, so everything the coordinator is
    // about to merge is durable (commit failures latch the write error).
    if let Some(store) = &ckpt {
        store.commit();
    }
    let write_error = ckpt.as_ref().and_then(|store| store.take_write_error());
    if let Some(e) = &write_error {
        eprintln!("error: shard {index} checkpoint write failed: {e}");
    }
    let s = pud_observe::live::live_snapshot();
    let done = Frame::Done {
        units_done: s.units_done,
        retries: s.retries,
        quarantined: s.quarantined,
        cancelled: token.latched().is_some(),
        peak_rss_kb: peak_rss_kb().unwrap_or(0),
        write_error: write_error.is_some(),
    };
    if emit_frame(&done).is_err() || write_error.is_some() {
        return ExitCode::FAILURE;
    }
    if opts.mem_stats {
        if let Some(kb) = peak_rss_kb() {
            eprintln!("mem: shard {index} peak_rss_kb={kb}");
        }
    }
    ExitCode::SUCCESS
}

/// `--shards <n>` coordinator: spawns one worker process per shard,
/// supervises them (respawning crashed workers from their shard
/// checkpoints), merges the shard checkpoints, and replays the campaign
/// in-process from the merged file — producing stdout byte-identical to a
/// single-process run.
fn coordinator_main(opts: &Options, target: &str) -> ExitCode {
    let count = opts.shards.expect("dispatched on Some");
    if !(target == "all" || (TARGETS.contains(&target) && target != "fig25")) {
        eprintln!("error: --shards does not support target {target} (no per-chip units to shard)");
        usage();
        return ExitCode::FAILURE;
    }
    let Some(base) = opts.checkpoint.clone() else {
        eprintln!("error: --shards requires --checkpoint (shard results travel through it)");
        usage();
        return ExitCode::FAILURE;
    };
    if opts.trace_out.is_some() {
        eprintln!("error: --trace-out is not supported with --shards (traces happen in workers)");
        usage();
        return ExitCode::FAILURE;
    }
    let exe = match env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate own executable for worker re-exec: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scale = build_scale(opts, false);
    let fingerprint = scale.fleet.fingerprint();
    let fleet_len = scale.fleet.fleet_size();
    let base_path = std::path::PathBuf::from(&base);
    // The coordinator's own supervisor token: SIGINT latched here stops
    // respawns, and the replay below inherits the interrupt flag.
    signals::install();
    let supervision_token = CancelToken::new().with_interrupt_flag(&INTERRUPTED);
    let supervision_guard = supervisor::install(supervision_token);
    let reporter = (opts.progress || progress::env_enabled()).then(ProgressReporter::start);
    let spawn = |index: u32, attempt: u32| {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg(target)
            .arg("--shard-worker")
            .arg(format!("{index}/{count}"))
            .arg("--worker-attempt")
            .arg(attempt.to_string())
            .arg("--checkpoint")
            .arg(shard::shard_path(&base_path, index, count));
        if opts.full {
            cmd.arg("--full");
        }
        if opts.threads > 0 {
            cmd.arg("--threads").arg(opts.threads.to_string());
        }
        if let Some(seed) = opts.fault_seed {
            cmd.arg("--fault-seed").arg(seed.to_string());
        }
        if let Some(n) = opts.max_retries {
            cmd.arg("--max-retries").arg(n.to_string());
        }
        if let Some(spec) = &opts.fleet {
            cmd.arg("--fleet").arg(spec);
        }
        if let Some(p) = opts.fault_worker_abort {
            cmd.arg("--fault-worker-abort").arg(p.to_string());
        }
        if let Some(p) = opts.fault_worker_hang {
            cmd.arg("--fault-worker-hang").arg(p.to_string());
        }
        if let Some(p) = opts.fault_storage {
            cmd.arg("--fault-storage").arg(p.to_string());
        }
        if let Some(secs) = opts.deadline {
            cmd.arg("--deadline").arg(secs.to_string());
        }
        if opts.mem_stats {
            cmd.arg("--mem-stats");
        }
        cmd.stdout(std::process::Stdio::piped());
        cmd.spawn()
    };
    let runs = shard::run_workers(
        count,
        opts.max_respawns,
        fingerprint,
        Duration::from_secs_f64(opts.heartbeat_timeout),
        spawn,
        |index, msg| {
            eprintln!("shard {index}: {msg}");
        },
    );
    drop(reporter);
    drop(supervision_guard);
    let failed: Vec<u32> = runs.iter().filter(|r| r.failed).map(|r| r.index).collect();
    let succeeded: Vec<u32> = runs.iter().filter(|r| !r.failed).map(|r| r.index).collect();
    if opts.mem_stats {
        let worker_peak = runs
            .iter()
            .filter_map(|r| r.done.as_ref())
            .map(|d| d.peak_rss_kb)
            .max()
            .unwrap_or(0);
        eprintln!("mem: worker_peak_rss_kb_max={worker_peak}");
    }
    let header = checkpoint_header(opts, target, &scale, None);
    match shard::merge_shards(&base_path, &header, &succeeded, count, fleet_len) {
        Ok(report) => {
            // A salvaged shard file is survivable — its dropped rows were
            // never merged, so the replay re-measures them — but it must
            // never be silent.
            for salvage in &report.salvaged {
                eprintln!("shards: {salvage}");
            }
            eprintln!(
                "shards: merged {} row(s) from {}/{count} shard(s) into {base}",
                report.rows,
                succeeded.len()
            );
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    // In-process replay from the merged checkpoint: rendered output is
    // byte-identical to a single-process run; chips of failed shards skip
    // as FAILED SHARD footers.
    campaign_main(opts, target, Some(ReplayMode { count, failed }))
}

fn render_target(
    target: &str,
    scale: &Scale,
    full: bool,
    ckpt: Option<&CheckpointStore>,
) -> String {
    match target {
        "table2" => experiments::table2::table2_ckpt(scale, ckpt).to_string(),
        "fig4" => experiments::comra::fig4_ckpt(scale, ckpt).to_string(),
        "fig5" => experiments::comra::fig5_ckpt(scale, ckpt).to_string(),
        "fig6" => experiments::comra::fig6_ckpt(scale, ckpt).to_string(),
        "fig7" => experiments::comra::fig7_ckpt(scale, ckpt).to_string(),
        "fig8" => experiments::comra::fig8_ckpt(scale, ckpt).to_string(),
        "fig9" => experiments::comra::fig9_ckpt(scale, ckpt).to_string(),
        "fig10" => experiments::comra::fig10_ckpt(scale, ckpt).to_string(),
        "fig11" => experiments::comra::fig11_ckpt(scale, ckpt).to_string(),
        "fig13" => experiments::simra::fig13_ckpt(scale, ckpt).to_string(),
        "fig14" => experiments::simra::fig14_ckpt(scale, ckpt).to_string(),
        "fig15" => experiments::simra::fig15_ckpt(scale, ckpt).to_string(),
        "fig16" => experiments::simra::fig16_ckpt(scale, ckpt).to_string(),
        "fig17" => experiments::simra::fig17_ckpt(scale, ckpt).to_string(),
        "fig18" => experiments::simra::fig18_ckpt(scale, ckpt).to_string(),
        "fig19" => experiments::simra::fig19_ckpt(scale, ckpt).to_string(),
        "fig21" => experiments::combined::fig21_ckpt(scale, ckpt).to_string(),
        "fig22" => experiments::combined::fig22_ckpt(scale, ckpt).to_string(),
        "fig23" => experiments::combined::fig23_ckpt(scale, ckpt).to_string(),
        "fig24" => experiments::trr_eval::fig24_ckpt(scale, ckpt).to_string(),
        "fig25" => {
            let cfg = if full {
                pud_memsim::Fig25Config::full()
            } else {
                pud_memsim::Fig25Config::quick()
            };
            pud_memsim::fig25::fig25(&cfg).to_string()
        }
        _ => unreachable!("validated by caller"),
    }
}
