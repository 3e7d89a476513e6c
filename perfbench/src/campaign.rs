//! The campaign workloads: `campaign_quick` (all 21 drivers at quick scale)
//! and `table2_full` (Table 2 at paper scale with a fresh checkpoint store).
//!
//! Set-up, timed as `setup_s`, loads the reference digests, opens the
//! checkpoint store (`table2_full`) and materializes the workload's fleet
//! once ([`materialize_s`]).

use std::time::Instant;

use perfbench::digest::{fnv1a64, RefKey, References};
use perfbench::paper::paper_err;
use perfbench::spans::Recorder;
use perfbench::{fleet_seed_for, procfs, FLEET_SEEDS, TARGETS};
use pud_memsim::Fig25Config;
use pudhammer::experiments::{self, Scale};
use pudhammer::fleet::checkpoint::{CheckpointHeader, CheckpointStore};
use pudhammer::fleet::Fleet;

use crate::{end_setup, published_layers, Outcome, RunArgs};

/// Runs driver `target`, returning its rendered output and, for `table2`,
/// the paper fit error.
fn render(target: &str, scale: &Scale, ckpt: Option<&CheckpointStore>) -> (String, Option<f64>) {
    use experiments::{combined, comra, simra, trr_eval};
    let s = match target {
        "table2" => {
            let t = experiments::table2::table2_ckpt(scale, ckpt);
            return (t.to_string(), paper_err(&t.rows));
        }
        "fig4" => comra::fig4_ckpt(scale, ckpt).to_string(),
        "fig5" => comra::fig5_ckpt(scale, ckpt).to_string(),
        "fig6" => comra::fig6_ckpt(scale, ckpt).to_string(),
        "fig7" => comra::fig7_ckpt(scale, ckpt).to_string(),
        "fig8" => comra::fig8_ckpt(scale, ckpt).to_string(),
        "fig9" => comra::fig9_ckpt(scale, ckpt).to_string(),
        "fig10" => comra::fig10_ckpt(scale, ckpt).to_string(),
        "fig11" => comra::fig11_ckpt(scale, ckpt).to_string(),
        "fig13" => simra::fig13_ckpt(scale, ckpt).to_string(),
        "fig14" => simra::fig14_ckpt(scale, ckpt).to_string(),
        "fig15" => simra::fig15_ckpt(scale, ckpt).to_string(),
        "fig16" => simra::fig16_ckpt(scale, ckpt).to_string(),
        "fig17" => simra::fig17_ckpt(scale, ckpt).to_string(),
        "fig18" => simra::fig18_ckpt(scale, ckpt).to_string(),
        "fig19" => simra::fig19_ckpt(scale, ckpt).to_string(),
        "fig21" => combined::fig21_ckpt(scale, ckpt).to_string(),
        "fig22" => combined::fig22_ckpt(scale, ckpt).to_string(),
        "fig23" => combined::fig23_ckpt(scale, ckpt).to_string(),
        "fig24" => trr_eval::fig24_ckpt(scale, ckpt).to_string(),
        "fig25" => pud_memsim::fig25::fig25(&Fig25Config::quick()).to_string(),
        other => unreachable!("unknown target {other}"),
    };
    (s, None)
}

/// The scale a campaign workload runs at: sweep threads = `nproc`, fleet
/// seed selected by the workload seed.
fn scale_for(full: bool, fleet_seed: u64) -> Scale {
    let mut scale = if full { Scale::full() } else { Scale::quick() };
    scale.threads = procfs::nproc();
    scale.fleet.seed = fleet_seed;
    scale
}

/// Chips swept and chips lost (quarantined or cancelled), from the
/// registry the sweeps publish.
fn chip_counts() -> (u64, u64) {
    let snap = pud_observe::snapshot();
    let chips = snap
        .histogram("sweep.chips")
        .map_or(0, |h| (h.mean * h.count as f64).round() as u64);
    let lost = snap.counter("sweep.quarantined").unwrap_or(0)
        + snap.counter("sweep.cancelled").unwrap_or(0);
    (chips, lost)
}

/// The campaigns' set-up work in the chip model: builds the workload's
/// fleet and materializes each chip once (its first `exec()`), dropping it
/// before the next. Returns Σ first `exec()`, the `dram.materialize_s`
/// layer metric. The drivers build their own fleets, so this does not take
/// work out of the timed phase.
fn materialize_s(scale: &Scale, rec: &Recorder) -> f64 {
    rec.scope(0, "dram.fleet", |parent| {
        let mut total = 0.0;
        for mut chip in Fleet::build(scale.fleet).chips {
            rec.scope(parent, "dram.materialize", |_| {
                let t = Instant::now();
                std::hint::black_box(chip.exec());
                total += t.elapsed().as_secs_f64();
            });
        }
        total
    })
}

fn provenance(o: &mut Outcome, scale_label: &str, fleet_seed: u64, threads: usize) {
    o.info.push(("scale", scale_label.to_string()));
    o.info.push(("fleet_seed", format!("{fleet_seed:#x}")));
    o.info.push(("sweep_threads", threads.to_string()));
}

/// All 21 drivers at quick scale, no checkpoint.
pub fn campaign_quick(args: &RunArgs, rec: &Recorder) -> Result<Outcome, String> {
    let fleet_seed = fleet_seed_for(args.seed);
    let scale = scale_for(false, fleet_seed);
    let refs = References::committed();
    let materialize = materialize_s(&scale, rec);
    let mut o = Outcome {
        setup_s: end_setup(args),
        ..Outcome::default()
    };
    provenance(&mut o, "quick", fleet_seed, scale.threads);
    if args.setup_only {
        return Ok(o);
    }
    let root = rec.id();
    let start = Instant::now();
    let cpu_start = procfs::cpu_seconds();
    let mut err = None;
    let mut per_driver = Vec::new();
    for target in TARGETS {
        let cpu0 = procfs::cpu_seconds();
        let t = Instant::now();
        let (rendered, e) = rec.scope(root, &format!("driver.{target}"), |_| {
            render(target, &scale, None)
        });
        let wall = t.elapsed().as_secs_f64();
        let cpu = procfs::cpu_since(cpu0);
        per_driver.push((target, wall, cpu));
        err = err.or(e);
        if let Err(m) = refs.check(&RefKey::new("quick", fleet_seed, target), &rendered) {
            o.mismatches.push(m);
        }
    }
    o.wall_s = start.elapsed().as_secs_f64();
    o.cpu_s = procfs::cpu_since(cpu_start);
    rec.record(root, 0, "workload.campaign_quick", start, Instant::now());
    (o.attempted, o.failed) = chip_counts();
    o.e2e.push(("paper_err", err));
    if rec.enabled() {
        let threads = scale.threads as f64;
        for &(target, wall, cpu) in &per_driver {
            o.layers
                .push((format!("experiments.{target}.wall_s"), wall));
            o.layers.push((
                format!("experiments.{target}.cpu_util"),
                cpu / (wall * threads),
            ));
        }
        let sweep_wall: f64 = per_driver
            .iter()
            .filter(|d| d.0 != "fig25")
            .map(|d| d.1)
            .sum();
        let fig25_wall = per_driver
            .iter()
            .find(|d| d.0 == "fig25")
            .map_or(0.0, |d| d.1);
        trace_layers(&mut o, materialize, sweep_wall);
        let requests = pud_observe::snapshot()
            .counter("memsim.requests_scheduled")
            .unwrap_or(0);
        o.layers.push((
            "memsim.requests_per_s".to_string(),
            requests as f64 / fig25_wall,
        ));
    }
    Ok(o)
}

/// Reads the published counters and profile tree of the timed phase, and
/// adds the chip materialization time measured in set-up.
fn trace_layers(o: &mut Outcome, materialize_s: f64, sweep_wall: f64) {
    let snap = pud_observe::snapshot();
    let nodes = pud_observe::profile::snapshot();
    o.layers.extend(published_layers(&snap, &nodes, sweep_wall));
    o.layers
        .push(("dram.materialize_s".to_string(), materialize_s));
}

/// `table2_ckpt` at paper scale with a fresh checkpoint store.
pub fn table2_full(args: &RunArgs, rec: &Recorder) -> Result<Outcome, String> {
    let fleet_seed = fleet_seed_for(args.seed);
    let scale = scale_for(true, fleet_seed);
    let refs = References::committed();
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    let path = args
        .work
        .join(format!("table2-full-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let header = CheckpointHeader {
        target: "table2".to_string(),
        scale: "full".to_string(),
        fingerprint: scale.fleet.fingerprint(),
        fault_seed: None,
        shard: None,
    };
    let t = Instant::now();
    let store = rec.scope(0, "checkpoint.open", |_| {
        CheckpointStore::open(&path, header)
    });
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    let store = store.map_err(|e| format!("checkpoint open: {e}"))?;
    let materialize = materialize_s(&scale, rec);
    let mut o = Outcome {
        setup_s: end_setup(args),
        ..Outcome::default()
    };
    provenance(&mut o, "full", fleet_seed, scale.threads);
    if args.setup_only {
        drop(store);
        let _ = std::fs::remove_file(&path);
        return Ok(o);
    }
    let root = rec.id();
    let start = Instant::now();
    let cpu0 = procfs::cpu_seconds();
    let (rendered, err) = rec.scope(root, "driver.table2", |_| {
        render("table2", &scale, Some(&store))
    });
    let driver_wall = start.elapsed().as_secs_f64();
    let cpu = procfs::cpu_since(cpu0);
    let t = Instant::now();
    rec.scope(root, "checkpoint.commit", |_| store.commit());
    let commit_ms = t.elapsed().as_secs_f64() * 1e3;
    o.wall_s = start.elapsed().as_secs_f64();
    o.cpu_s = procfs::cpu_since(cpu0);
    rec.record(root, 0, "workload.table2_full", start, Instant::now());
    if let Some(w) = store.take_write_error() {
        o.mismatches.push(format!("checkpoint write failed: {w}"));
    }
    if let Err(m) = refs.check(&RefKey::new("full", fleet_seed, "table2"), &rendered) {
        o.mismatches.push(m);
    }
    (o.attempted, o.failed) = chip_counts();
    o.e2e.push(("paper_err", err));
    if rec.enabled() {
        o.layers
            .push(("experiments.table2.wall_s".to_string(), driver_wall));
        o.layers.push((
            "experiments.table2.cpu_util".to_string(),
            cpu / (driver_wall * scale.threads as f64),
        ));
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        o.layers.push(("checkpoint.open_ms".to_string(), open_ms));
        o.layers.push((
            "checkpoint.records".to_string(),
            text.lines().count().saturating_sub(1) as f64,
        ));
        o.layers
            .push(("checkpoint.bytes".to_string(), text.len() as f64));
        o.layers
            .push(("checkpoint.commit_ms".to_string(), commit_ms));
        trace_layers(&mut o, materialize, driver_wall);
    }
    drop(store);
    let _ = std::fs::remove_file(&path);
    Ok(o)
}

/// The reference digest table: every quick driver and the full Table 2,
/// at each of [`FLEET_SEEDS`].
pub fn record_refs() -> String {
    let mut out = String::from(
        "# Reference digests (FNV-1a 64) of rendered driver outputs.\n\
         # scale fleet_seed target digest — regenerate with `perfbench record-refs`.\n",
    );
    for seed in FLEET_SEEDS {
        let quick = scale_for(false, seed);
        for target in TARGETS {
            let (rendered, _) = render(target, &quick, None);
            out.push_str(&RefKey::new("quick", seed, target).line(fnv1a64(rendered.as_bytes())));
            out.push('\n');
        }
        let (rendered, _) = render("table2", &scale_for(true, seed), None);
        out.push_str(&RefKey::new("full", seed, "table2").line(fnv1a64(rendered.as_bytes())));
        out.push('\n');
    }
    out
}
