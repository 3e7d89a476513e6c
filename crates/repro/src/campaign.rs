//! `repro <target|all|list>`: runs experiment drivers in this process, and
//! replays a sharded campaign from its merged checkpoint.

use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Instant;

use pud_bender::fault::FaultConfig;
use pudhammer::experiments::{self, Scale};
use pudhammer::fleet::checkpoint::{CheckpointHeader, CheckpointStore, ShardSlot};
use pudhammer::fleet::progress::{self, ProgressReporter};
use pudhammer::fleet::shard;
use pudhammer::fleet::supervisor::{self, CancelReason, CancelToken};
use pudhammer::report;

use crate::cli::{self, Args};
use crate::INTERRUPTED;

/// One table or figure `repro` regenerates: its name and its renderer.
pub enum Target {
    /// Measures per-chip units through the fleet sweep: it can resume
    /// from a checkpoint and be split across shard workers.
    Units(&'static str, fn(&Scale, Option<&CheckpointStore>) -> String),
    /// One run with no per-chip units, at paper density when `true`; it
    /// takes the scale's worker count.
    Whole(&'static str, fn(&Scale, bool) -> String),
}

/// Every target, in `repro all` order.
pub static TARGETS: [Target; 21] = {
    use experiments::{combined, comra, simra, table2, trr_eval};
    use Target::{Units, Whole};
    [
        Units("table2", |s, c| table2::table2_ckpt(s, c).to_string()),
        Units("fig4", |s, c| comra::fig4_ckpt(s, c).to_string()),
        Units("fig5", |s, c| comra::fig5_ckpt(s, c).to_string()),
        Units("fig6", |s, c| comra::fig6_ckpt(s, c).to_string()),
        Units("fig7", |s, c| comra::fig7_ckpt(s, c).to_string()),
        Units("fig8", |s, c| comra::fig8_ckpt(s, c).to_string()),
        Units("fig9", |s, c| comra::fig9_ckpt(s, c).to_string()),
        Units("fig10", |s, c| comra::fig10_ckpt(s, c).to_string()),
        Units("fig11", |s, c| comra::fig11_ckpt(s, c).to_string()),
        Units("fig13", |s, c| simra::fig13_ckpt(s, c).to_string()),
        Units("fig14", |s, c| simra::fig14_ckpt(s, c).to_string()),
        Units("fig15", |s, c| simra::fig15_ckpt(s, c).to_string()),
        Units("fig16", |s, c| simra::fig16_ckpt(s, c).to_string()),
        Units("fig17", |s, c| simra::fig17_ckpt(s, c).to_string()),
        Units("fig18", |s, c| simra::fig18_ckpt(s, c).to_string()),
        Units("fig19", |s, c| simra::fig19_ckpt(s, c).to_string()),
        Units("fig21", |s, c| combined::fig21_ckpt(s, c).to_string()),
        Units("fig22", |s, c| combined::fig22_ckpt(s, c).to_string()),
        Units("fig23", |s, c| combined::fig23_ckpt(s, c).to_string()),
        Units("fig24", |s, c| trr_eval::fig24_ckpt(s, c).to_string()),
        Whole("fig25", |s, full| {
            let mut cfg = if full {
                pud_memsim::Fig25Config::full()
            } else {
                pud_memsim::Fig25Config::quick()
            };
            cfg.threads = s.threads;
            pud_memsim::fig25::fig25(&cfg).to_string()
        }),
    ]
};

impl Target {
    pub fn name(&self) -> &'static str {
        match self {
            Target::Units(name, _) | Target::Whole(name, _) => name,
        }
    }

    pub fn per_chip(&self) -> bool {
        matches!(self, Target::Units(..))
    }

    pub fn render(&self, scale: &Scale, full: bool, ckpt: Option<&CheckpointStore>) -> String {
        match self {
            Target::Units(_, f) => f(scale, ckpt),
            Target::Whole(_, f) => f(scale, full),
        }
    }
}

/// Whether `target` (a target name or `all`) measures per-chip units, so
/// it can take a checkpoint and be sharded.
pub fn per_chip(target: &str) -> bool {
    target == "all" || TARGETS.iter().any(|t| t.name() == target && t.per_chip())
}

/// The coordinator's in-process replay of a sharded campaign: which shards
/// existed and which were quarantined after exhausting their respawns.
pub struct ReplayMode {
    pub count: u32,
    pub failed: Vec<u32>,
}

/// Builds the effective [`Scale`] from the command line.
pub fn build_scale(args: &Args) -> Scale {
    let mut scale = if args.on(&cli::FULL) {
        Scale::full()
    } else {
        Scale::quick()
    };
    scale.threads = args.uint(&cli::THREADS).unwrap_or(0);
    scale.fleet.fault = args
        .uint(&cli::FAULT_SEED)
        .map(FaultConfig::from_seed)
        .or_else(FaultConfig::from_env);
    if let Some(n) = args.uint(&cli::MAX_RETRIES) {
        scale.max_retries = n;
    }
    if let Some(roster) = args.roster() {
        scale.fleet.roster = roster;
    }
    // Workers always page: their peak RSS is what bounds the campaign's
    // memory, and paging is results-neutral.
    scale.fleet.page_chips = args.on(&cli::PAGE_CHIPS) || args.shard_worker().is_some();
    scale
}

/// Runs `target` in this process; with `replay`, from the merged
/// checkpoint of a sharded campaign.
pub fn run(args: &Args, target: &str, replay: Option<ReplayMode>) -> ExitCode {
    // Install the trace sink before any experiment constructs an executor:
    // executors attach the global sink at construction time.
    if let Some(path) = args.text(&cli::TRACE_OUT) {
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
    let full = args.on(&cli::FULL);
    let scale = build_scale(args);
    // In replay mode, units owned by a quarantined shard are skipped and
    // surface as FAILED SHARD report footers instead of being re-measured.
    let _shard_guard = replay
        .as_ref()
        .map(|r| shard::install_replay(r.count, r.failed.clone()));
    let ckpt = match open_checkpoint(args, target, &scale, None) {
        Ok(c) => c,
        Err(e) => return cli::usage_error(&e),
    };
    // Storage faults drill the single-process durability path too; the
    // coordinator's replay must stay clean (its merged file is the one
    // source of truth).
    if replay.is_none() {
        if let Some(store) = &ckpt {
            arm_storage_faults(args, &scale, store);
        }
    }
    // The supervisor is always on: SIGINT/SIGTERM cancel cooperatively
    // even without a deadline, and the `supervisor.*` counters feed the
    // campaign footer. The kept clone answers "was this run cut short?"
    // after the guard drops.
    let token = cancel_token(args);
    let supervisor_guard = supervisor::install(token.clone());
    // Profiling and progress are observer-only: the profiler writes to its
    // own file and the reporter to stderr, so primary stdout stays
    // byte-identical with either on or off.
    let profile_out = args.text(&cli::PROFILE_OUT);
    if profile_out.is_some() {
        pud_observe::profile::reset();
        pud_observe::profile::enable();
    }
    let reporter =
        (args.on(&cli::PROGRESS) || progress::env_enabled()).then(ProgressReporter::start);
    let started = Instant::now();
    let mut phases: Vec<(&str, u64)> = Vec::new();
    let mut timed_run = |t: &'static Target| {
        let phase_start = Instant::now();
        let rendered = t.render(&scale, full, ckpt.as_ref());
        if !args.on(&cli::QUIET) {
            println!("{rendered}");
        }
        phases.push((
            t.name(),
            phase_start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        ));
    };
    match target {
        "list" => {
            for t in &TARGETS {
                println!("{}", t.name());
            }
        }
        "all" => {
            for t in &TARGETS {
                if supervisor::is_cancelled().is_some() {
                    break;
                }
                timed_run(t);
            }
        }
        name => match TARGETS.iter().find(|t| t.name() == name) {
            Some(t) => timed_run(t),
            None => {
                eprintln!("unknown target: {name}");
                let names: Vec<&str> = TARGETS.iter().map(|t| t.name()).collect();
                eprintln!("targets: {}", names.join(", "));
                return ExitCode::FAILURE;
            }
        },
    }
    drop(reporter);
    drop(supervisor_guard);
    pud_observe::flush_global();
    if let Some(path) = profile_out {
        pud_observe::profile::disable();
        let nodes = pud_observe::profile::snapshot();
        let folded = pud_observe::profile::render_folded(&nodes);
        if let Err(e) = std::fs::write(path, folded) {
            eprintln!("error: cannot write profile file {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if target == "all" {
        println!("{}", run_metadata(&scale, full, started.elapsed(), &phases));
    }
    let snap = pud_observe::snapshot();
    campaign_footer(&snap, &token);
    if args.on(&cli::METRICS) {
        eprint!("{}", report::metrics_table(&snap));
    }
    if args.on(&cli::MEM_STATS) {
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
    exit_code(args.on(&cli::STRICT), &snap, &token)
}

/// Hooks SIGINT/SIGTERM up to a new supervisor token, bounded by
/// `--deadline` and `--deadline-units` when given.
pub fn cancel_token(args: &Args) -> CancelToken {
    crate::signals::install();
    let mut token = CancelToken::new().with_interrupt_flag(&INTERRUPTED);
    if let Some(deadline) = args.seconds(&cli::DEADLINE) {
        token = token.with_deadline(deadline);
    }
    if let Some(units) = args.uint(&cli::DEADLINE_UNITS) {
        token = token.with_unit_budget(units);
    }
    token
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
fn exit_code(strict: bool, snap: &pud_observe::Snapshot, token: &CancelToken) -> ExitCode {
    if !strict {
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
pub fn peak_rss_kb() -> Option<u64> {
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
    scale: &Scale,
    full: bool,
    elapsed: std::time::Duration,
    phases: &[(&str, u64)],
) -> String {
    let snap = pud_observe::snapshot();
    let mut list = pud_observe::json::JsonArray::new();
    for (t, _) in phases {
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
        .u64("targets", phases.len() as u64)
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

/// The campaign identity header for a run: target, scale, fleet
/// fingerprint, fault seed, and (for worker processes) the shard slot.
pub fn checkpoint_header(
    args: &Args,
    target: &str,
    scale: &Scale,
    slot: Option<ShardSlot>,
) -> CheckpointHeader {
    CheckpointHeader {
        target: target.to_string(),
        scale: if args.on(&cli::FULL) { "full" } else { "quick" }.to_string(),
        fingerprint: scale.fleet.fingerprint(),
        fault_seed: scale.fleet.fault.map(|f| f.seed),
        shard: slot,
    }
}

/// Opens the `--checkpoint` store. Only targets with per-chip units (and
/// `all`) take one; any other target is a usage error.
pub fn open_checkpoint(
    args: &Args,
    target: &str,
    scale: &Scale,
    slot: Option<ShardSlot>,
) -> Result<Option<CheckpointStore>, String> {
    let Some(path) = args.text(&cli::CHECKPOINT) else {
        return Ok(None);
    };
    if !per_chip(target) {
        let whole: Vec<&str> = TARGETS
            .iter()
            .filter(|t| !t.per_chip())
            .map(|t| t.name())
            .collect();
        return Err(format!(
            "{} is not supported for {target} \
             (supported: all and every experiment target except {})",
            cli::CHECKPOINT.name,
            whole.join(", ")
        ));
    }
    let header = checkpoint_header(args, target, scale, slot);
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

/// The seed of the storage and worker-process drills: `--fault-seed`,
/// else `PUD_FAULT_SEED`, else 0.
pub fn drill_seed(scale: &Scale) -> u64 {
    scale.fleet.fault.map_or(0, |f| f.seed)
}

/// Arms the seeded storage-fault schedule on an open checkpoint (see
/// [`CheckpointStore::arm_storage_faults`]). Respawned workers
/// (`--worker-attempt > 0`) run without storage faults, so faulted
/// campaigns converge.
pub fn arm_storage_faults(args: &Args, scale: &Scale, store: &CheckpointStore) {
    let respawned = args.uint::<u32>(&cli::WORKER_ATTEMPT).unwrap_or(0) > 0;
    if let Some(permille) = args.uint(&cli::FAULT_STORAGE).filter(|_| !respawned) {
        store.arm_storage_faults(drill_seed(scale), permille);
    }
}
