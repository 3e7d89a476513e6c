//! Sharded campaigns: the `--shards <n>` coordinator and the hidden
//! `--shard-worker` process it spawns once per shard (see
//! `pudhammer::fleet::shard`).

use std::ffi::OsString;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use pudhammer::fleet::progress::{self, ProgressReporter};
use pudhammer::fleet::shard::{self, ProcessFaultPlan};
use pudhammer::fleet::supervisor::{self, CancelToken};
use pudhammer::fleet::wire::Frame;

use crate::campaign::{self, ReplayMode, TARGETS};
use crate::cli::{self, Args};
use crate::INTERRUPTED;

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
pub fn worker_main(args: &Args, target: &str, index: u32, count: u32) -> ExitCode {
    if args.text(&cli::CHECKPOINT).is_none() {
        eprintln!(
            "error: {} requires {}",
            cli::SHARD_WORKER.name,
            cli::CHECKPOINT.name
        );
        return ExitCode::FAILURE;
    }
    if !campaign::per_chip(target) {
        eprintln!(
            "error: {} does not support target {target}",
            cli::SHARD_WORKER.name
        );
        return ExitCode::FAILURE;
    }
    let full = args.on(&cli::FULL);
    let scale = campaign::build_scale(args);
    let fingerprint = scale.fleet.fingerprint();
    let slot = shard::slot(index, count, scale.fleet.fleet_size());
    let ckpt = match campaign::open_checkpoint(args, target, &scale, Some(slot)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(store) = &ckpt {
        campaign::arm_storage_faults(args, &scale, store);
    }
    let attempt = args.uint(&cli::WORKER_ATTEMPT).unwrap_or(0);
    let faults = ProcessFaultPlan::new(
        campaign::drill_seed(&scale),
        args.uint(&cli::FAULT_WORKER_ABORT).unwrap_or(0),
        args.uint(&cli::FAULT_WORKER_HANG).unwrap_or(0),
        attempt,
    );
    let _mode = shard::install_worker(index, count, faults);
    let token = campaign::cancel_token(args);
    let supervisor_guard = supervisor::install(token.clone());
    pud_observe::live::reset();
    pud_observe::live::enable();
    if emit_frame(&Frame::Hello {
        shard: index,
        count,
        fingerprint,
        target: target.to_string(),
        attempt,
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
    // Targets without per-chip units have nothing to shard; the
    // coordinator's replay runs them once, in-process.
    for t in TARGETS
        .iter()
        .filter(|t| t.per_chip() && (target == "all" || t.name() == target))
    {
        if supervisor::is_cancelled().is_some() {
            break;
        }
        let _ = t.render(&scale, full, ckpt.as_ref());
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
        peak_rss_kb: campaign::peak_rss_kb().unwrap_or(0),
        write_error: write_error.is_some(),
    };
    if emit_frame(&done).is_err() || write_error.is_some() {
        return ExitCode::FAILURE;
    }
    if args.on(&cli::MEM_STATS) {
        if let Some(kb) = campaign::peak_rss_kb() {
            eprintln!("mem: shard {index} peak_rss_kb={kb}");
        }
    }
    ExitCode::SUCCESS
}

/// The arguments shard worker `index` of `count` is spawned with: its
/// slot, its respawn attempt and its shard checkpoint, then every
/// inherited flag the coordinator was given.
fn worker_argv(
    args: &Args,
    target: &str,
    index: u32,
    count: u32,
    attempt: u32,
    checkpoint: &Path,
) -> Vec<OsString> {
    let mut argv: Vec<OsString> = vec![
        target.into(),
        cli::SHARD_WORKER.name.into(),
        format!("{index}/{count}").into(),
        cli::WORKER_ATTEMPT.name.into(),
        attempt.to_string().into(),
        cli::CHECKPOINT.name.into(),
        checkpoint.into(),
    ];
    argv.extend(args.inherited().into_iter().map(OsString::from));
    argv
}

/// `--shards <n>` coordinator: spawns one worker process per shard,
/// supervises them (respawning crashed workers from their shard
/// checkpoints), merges the shard checkpoints, and replays the campaign
/// in-process from the merged file — producing stdout byte-identical to a
/// single-process run.
pub fn coordinator_main(args: &Args, target: &str, count: u32) -> ExitCode {
    if !campaign::per_chip(target) {
        return cli::usage_error(&format!(
            "{} does not support target {target} (no per-chip units to shard)",
            cli::SHARDS.name
        ));
    }
    let Some(base) = args.text(&cli::CHECKPOINT) else {
        return cli::usage_error(&format!(
            "{} requires {} (shard results travel through it)",
            cli::SHARDS.name,
            cli::CHECKPOINT.name
        ));
    };
    if args.text(&cli::TRACE_OUT).is_some() {
        return cli::usage_error(&format!(
            "{} is not supported with {} (traces happen in workers)",
            cli::TRACE_OUT.name,
            cli::SHARDS.name
        ));
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate own executable for worker re-exec: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scale = campaign::build_scale(args);
    let fingerprint = scale.fleet.fingerprint();
    let fleet_len = scale.fleet.fleet_size();
    let base_path = std::path::PathBuf::from(base);
    // The coordinator's own supervisor token: SIGINT latched here stops
    // respawns, and the replay below inherits the interrupt flag.
    crate::signals::install();
    let supervision_token = CancelToken::new().with_interrupt_flag(&INTERRUPTED);
    let supervision_guard = supervisor::install(supervision_token);
    let reporter =
        (args.on(&cli::PROGRESS) || progress::env_enabled()).then(ProgressReporter::start);
    let spawn = |index: u32, attempt: u32| {
        let checkpoint = shard::shard_path(&base_path, index, count);
        std::process::Command::new(&exe)
            .args(worker_argv(
                args,
                target,
                index,
                count,
                attempt,
                &checkpoint,
            ))
            .stdout(std::process::Stdio::piped())
            .spawn()
    };
    let runs = shard::run_workers(
        count,
        args.uint(&cli::MAX_RESPAWNS).unwrap_or(2),
        fingerprint,
        args.seconds(&cli::HEARTBEAT_TIMEOUT)
            .unwrap_or(Duration::from_secs(30)),
        spawn,
        |index, msg| {
            eprintln!("shard {index}: {msg}");
        },
    );
    drop(reporter);
    drop(supervision_guard);
    let failed: Vec<u32> = runs.iter().filter(|r| r.failed).map(|r| r.index).collect();
    let succeeded: Vec<u32> = runs.iter().filter(|r| !r.failed).map(|r| r.index).collect();
    if args.on(&cli::MEM_STATS) {
        let worker_peak = runs
            .iter()
            .filter_map(|r| r.done.as_ref())
            .map(|d| d.peak_rss_kb)
            .max()
            .unwrap_or(0);
        eprintln!("mem: worker_peak_rss_kb_max={worker_peak}");
    }
    let header = campaign::checkpoint_header(args, target, &scale, None);
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
    campaign::run(args, target, Some(ReplayMode { count, failed }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_inherit_exactly_the_inherited_flags_in_table_order() {
        let args: Vec<String> = [
            "table2",
            "--mem-stats",
            "--deadline",
            "2.5",
            "--deadline-units",
            "5",
            "--strict",
            "--progress",
            "--fault-storage",
            "30",
            "--fault-worker-hang",
            "20",
            "--fault-worker-abort",
            "10",
            "--page-chips",
            "--fleet",
            "synth:20",
            "--max-retries",
            "4",
            "--fault-seed",
            "7",
            "--threads",
            "3",
            "--full",
            "--metrics",
            "--quiet",
            "--shards",
            "2",
            "--max-respawns",
            "1",
            "--heartbeat-timeout",
            "9",
            "--profile-out",
            "p.folded",
            "--checkpoint",
            "base.jsonl",
        ]
        .iter()
        .map(|a| a.to_string())
        .collect();
        let args = Args::parse(cli::Sub::Campaign, &args).expect("valid invocation");
        let argv = worker_argv(&args, "table2", 1, 2, 3, Path::new("base.jsonl.shard1of2"));
        // Slot, attempt and shard checkpoint first, then the inherited
        // flags in table order. The campaign-level flags (--page-chips,
        // --deadline-units, --strict, --progress, --metrics, --quiet,
        // --shards, --max-respawns, --heartbeat-timeout, --profile-out)
        // stay with the coordinator.
        let expected = [
            "table2",
            "--shard-worker",
            "1/2",
            "--worker-attempt",
            "3",
            "--checkpoint",
            "base.jsonl.shard1of2",
            "--full",
            "--threads",
            "3",
            "--fault-seed",
            "7",
            "--max-retries",
            "4",
            "--fleet",
            "synth:20",
            "--fault-worker-abort",
            "10",
            "--fault-worker-hang",
            "20",
            "--fault-storage",
            "30",
            "--deadline",
            "2.5",
            "--mem-stats",
        ];
        assert_eq!(argv, expected.map(OsString::from));
    }

    #[test]
    fn a_plain_campaign_forwards_nothing() {
        let args = Args::parse(cli::Sub::Campaign, &["fig4".to_string()]).expect("valid");
        assert!(args.inherited().is_empty());
    }
}
