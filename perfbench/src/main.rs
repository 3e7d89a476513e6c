//! One workload instance per process.
//!
//! ```text
//! perfbench run <campaign_quick|table2_full|serve_zipf> --seed <n> --work <dir>
//!               [--trace <spans.jsonl>] [--setup-only]
//! perfbench calibrate
//! perfbench percentile-ms <p>
//! perfbench record-refs
//! ```
//!
//! `run` prints one JSON line: the set-up time (from the start of `main`
//! to the first timed call), the timed phase, the correctness verdict and,
//! with `--trace`, the per-layer metrics. `calibrate` prints the wall time
//! of the reference computation ([`perfbench::calib`]). `percentile-ms`
//! reads nanosecond samples from stdin and prints their percentile `p` in
//! milliseconds under the rules of [`perfbench::stats`], or `n/a`.
//! `record-refs` prints the reference digest table
//! (`reference_digests.txt`).
//! `run.py` drives `run`; see the README next to it.

mod campaign;
mod serve_load;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::procfs;
use perfbench::spans::Recorder;
use pud_observe::json::{self, JsonObject};
use pud_observe::profile::ProfileNode;
use pud_observe::Snapshot;

/// What one workload instance measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// From the start of `main` to the first timed call, seconds.
    pub setup_s: f64,
    /// Wall clock of the timed phase.
    pub wall_s: f64,
    /// Process CPU time (all threads) of the timed phase.
    pub cpu_s: f64,
    /// Units attempted (chips swept, or requests sent).
    pub attempted: u64,
    /// Units failed (quarantined/cancelled chips, or non-`Ok` responses).
    pub failed: u64,
    /// Outputs that differ from their reference.
    pub mismatches: Vec<String>,
    /// Workload-specific end-to-end values (`None` = not reportable).
    pub e2e: Vec<(&'static str, Option<f64>)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(String, f64)>,
    /// Sample counts and run parameters, for provenance.
    pub info: Vec<(&'static str, String)>,
    /// How late each generator wake-up was (`serve_zipf` only).
    pub late_ns: Vec<u64>,
    /// Self time per span name in seconds (traced runs only).
    pub span_self_s: Vec<(String, f64)>,
}

/// Arguments of `perfbench run`.
pub struct RunArgs {
    /// When `main` started: the start of set-up.
    pub started: Instant,
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Scratch directory for stores and checkpoints.
    pub work: PathBuf,
    /// Where to write spans; `Some` enables tracing.
    pub trace: Option<PathBuf>,
    /// Stop after set-up.
    pub setup_only: bool,
}

fn parse_run(started: Instant, args: &[String]) -> Result<RunArgs, String> {
    let workload = args.first().ok_or("missing workload")?.clone();
    let mut seed = None;
    let mut work = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed must be an integer")?),
            "--work" => work = Some(PathBuf::from(value()?)),
            "--trace" => trace = Some(PathBuf::from(value()?)),
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(RunArgs {
        started,
        workload,
        seed: seed.ok_or("missing --seed")?,
        work: work.ok_or("missing --work")?,
        trace,
        setup_only,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("calibrate") => {
            println!("{}", perfbench::calib::reference_s(procfs::nproc()));
            ExitCode::SUCCESS
        }
        Some("percentile-ms") => percentile_ms(args.get(1)),
        Some("record-refs") => {
            print!("{}", campaign::record_refs());
            ExitCode::SUCCESS
        }
        Some("run") => match parse_run(started, &args[1..]) {
            Ok(run) => run_workload(&run),
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("usage: perfbench run <workload> --seed <n> --work <dir> [--trace <file>] [--setup-only] | calibrate | percentile-ms <p> | record-refs");
            ExitCode::from(2)
        }
    }
}

/// `percentile-ms <p>`: nanosecond samples on stdin, percentile `p` in
/// milliseconds (or `n/a`) on stdout.
fn percentile_ms(p: Option<&String>) -> ExitCode {
    let Some(Ok(p)) = p.map(|p| p.parse::<f64>()) else {
        eprintln!("perfbench: percentile-ms needs a percentile in 0..1");
        return ExitCode::from(2);
    };
    let mut text = String::new();
    if let Err(e) = std::io::Read::read_to_string(&mut std::io::stdin(), &mut text) {
        eprintln!("perfbench: stdin: {e}");
        return ExitCode::from(2);
    }
    let samples: Result<Vec<Option<f64>>, _> = text
        .split_whitespace()
        .map(|ns| ns.parse::<u64>().map(|ns| Some(ns as f64 / 1e6)))
        .collect();
    let Ok(samples) = samples else {
        eprintln!("perfbench: percentile-ms reads whole nanoseconds");
        return ExitCode::from(2);
    };
    match perfbench::stats::percentile(&samples, p).value() {
        Some(ms) => println!("{ms}"),
        None => println!("n/a"),
    }
    ExitCode::SUCCESS
}

fn run_workload(args: &RunArgs) -> ExitCode {
    let rec = Recorder::new(args.trace.is_some());
    if rec.enabled() {
        pud_observe::profile::reset();
        pud_observe::profile::enable();
    }
    let outcome = match args.workload.as_str() {
        "campaign_quick" => campaign::campaign_quick(args, &rec),
        "table2_full" => campaign::table2_full(args, &rec),
        "serve_zipf" => serve_load::serve_zipf(args, &rec),
        other => Err(format!("unknown workload {other:?}")),
    };
    let mut out = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.trace {
        pud_observe::profile::disable();
        let spans = rec.spans();
        if let Err(e) = std::fs::write(path, perfbench::spans::to_jsonl(&spans)) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        out.span_self_s = perfbench::spans::self_ns_by_name(&spans)
            .into_iter()
            .map(|(name, ns)| (name, ns as f64 / 1e9))
            .collect();
        out.info.push(("spans", spans.len().to_string()));
    }
    println!("{}", render(&out));
    ExitCode::SUCCESS
}

fn render(o: &Outcome) -> String {
    let mut e2e = JsonObject::new();
    for (k, v) in &o.e2e {
        e2e = e2e.raw(k, &json::number(v.unwrap_or(f64::NAN)));
    }
    let mut layers = JsonObject::new();
    for (k, v) in &o.layers {
        layers = layers.raw(k, &json::number(*v));
    }
    let mut info = JsonObject::new();
    for (k, v) in &o.info {
        info = info.str(k, v);
    }
    let mut span_self_s = JsonObject::new();
    for (k, v) in &o.span_self_s {
        span_self_s = span_self_s.f64(k, *v);
    }
    let mut late_ns = json::JsonArray::new();
    for &ns in &o.late_ns {
        late_ns = late_ns.u64(ns);
    }
    let mut mismatches = json::JsonArray::new();
    for m in &o.mismatches {
        mismatches = mismatches.str(m);
    }
    JsonObject::new()
        .f64("setup_s", o.setup_s)
        .f64("wall_s", o.wall_s)
        .f64("cpu_s", o.cpu_s)
        .f64(
            "peak_rss_mb",
            procfs::peak_rss_kb().unwrap_or(0) as f64 / 1024.0,
        )
        .u64("attempted", o.attempted)
        .u64("failed", o.failed)
        .raw("mismatches", &mismatches.finish())
        .raw("e2e", &e2e.finish())
        .raw("layers", &layers.finish())
        .raw("info", &info.finish())
        .raw("span_self_s", &span_self_s.finish())
        .raw("late_ns", &late_ns.finish())
        .finish()
}

/// Ends set-up: returns its duration, then zeroes the registry and clears
/// the profile tree, so that the per-layer readings cover the timed phase
/// alone.
pub fn end_setup(args: &RunArgs) -> f64 {
    let setup_s = args.started.elapsed().as_secs_f64();
    pud_observe::reset();
    pud_observe::profile::reset();
    setup_s
}

/// Histogram sum (`mean × count`) of a registry histogram, 0 if absent.
fn hist_sum(snap: &Snapshot, name: &str) -> f64 {
    snap.histogram(name)
        .map_or(0.0, |h| h.mean * h.count as f64)
}

/// Per-layer metrics read from the crates' own counters and profile tree:
/// sweep, HC_first search, executor, disturbance engine, TRR, memsim.
/// `sweep_wall_s` is the summed wall time of the calls that ran sweeps.
pub fn published_layers(
    snap: &Snapshot,
    nodes: &[ProfileNode],
    sweep_wall_s: f64,
) -> Vec<(String, f64)> {
    let c = |n: &str| snap.counter(n).unwrap_or(0) as f64;
    let threads = procfs::nproc() as f64;
    let unit_s_sum = hist_sum(snap, "sweep.chip_ns") / 1e9;
    let hc_self_s = nodes
        .iter()
        .filter(|n| n.path.ends_with("hcfirst.search_ns"))
        .map(|n| n.self_ns)
        .sum::<u64>() as f64
        / 1e9;
    let cmds: u64 = nodes.iter().map(|n| n.commands).sum();
    let events: u64 = nodes.iter().map(|n| n.events).sum();
    let ratio = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
    let warm = c("hcfirst.warm.hits") + c("hcfirst.warm.misses");
    let v = vec![
        ("sweep.unit_s_sum", unit_s_sum),
        (
            "sweep.unit_s_max",
            snap.histogram("sweep.chip_ns")
                .map_or(0.0, |h| h.max as f64 / 1e9),
        ),
        ("sweep.util", ratio(unit_s_sum, sweep_wall_s * threads)),
        ("sweep.retries", c("sweep.retries")),
        ("sweep.quarantined", c("sweep.quarantined")),
        ("hcfirst.searches", c("hcfirst.searches")),
        ("hcfirst.trials", hist_sum(snap, "hcfirst.iterations")),
        ("hcfirst.self_s", hc_self_s),
        (
            "hcfirst.search_p99_ms",
            snap.histogram("hcfirst.search_ns")
                .map_or(0.0, |h| h.p99 as f64 / 1e6),
        ),
        (
            "hcfirst.warm_hit_ratio",
            ratio(c("hcfirst.warm.hits"), warm),
        ),
        ("bender.acts", c("bender.acts")),
        ("bender.cmds", cmds as f64),
        ("bender.cmds_per_s", ratio(cmds as f64, hc_self_s)),
        ("disturb.events", events as f64),
        ("disturb.events_per_s", ratio(events as f64, hc_self_s)),
        ("trr.victim_refreshes", c("trr.victim_refreshes")),
        ("trr.capable_refs", c("trr.capable_refs")),
        ("memsim.requests", c("memsim.requests_scheduled")),
    ];
    v.into_iter().map(|(k, x)| (k.to_string(), x)).collect()
}
