//! Shard-coordinator overhead: end-to-end wall time of `repro table2` as a
//! plain single process, as a 1-shard campaign (one worker process, merge,
//! and replay — the pure coordination cost), and as a 4-shard campaign.
//!
//! All three render byte-identical output (asserted), so the timing deltas
//! are exactly the orchestration overhead: process spawn, the stdout frame
//! protocol, shard-checkpoint merge, and the in-process replay.

use std::path::{Path, PathBuf};
use std::process::Command;

use pud_bench::run_micro;

const SAMPLES: u64 = 5;

fn temp_base(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "pud-shard-bench-{tag}-{}.jsonl",
        std::process::id()
    ));
    p
}

/// Removes the checkpoint base and any `.shardNofM` siblings so every
/// iteration measures a cold campaign, not a resume.
fn scrub(base: &Path) {
    let dir = base.parent().expect("temp base has a parent");
    let stem = base.file_name().expect("file name").to_string_lossy();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with(&*stem) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

fn run(shards: Option<u32>, base: &PathBuf) -> Vec<u8> {
    scrub(base);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    // A leaked fault seed would break the byte-identity assertions (see
    // tests/sharded_campaigns.rs) and skew the timings with retries.
    cmd.env_remove("PUD_FAULT_SEED");
    cmd.arg("table2");
    if let Some(n) = shards {
        cmd.args(["--shards", &n.to_string()])
            .arg("--checkpoint")
            .arg(base);
    }
    let out = cmd.output().expect("spawn repro");
    assert!(
        out.status.success(),
        "repro failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn main() {
    let base = temp_base("table2");
    let reference = run(None, &base);
    assert_eq!(run(Some(1), &base), reference, "1-shard must match");
    assert_eq!(run(Some(4), &base), reference, "4-shard must match");

    let single = run_micro("repro_table2_single_process", SAMPLES, 1, || {
        run(None, &base)
    });
    let one_shard = run_micro("repro_table2_shards1", SAMPLES, 1, || run(Some(1), &base));
    let four_shards = run_micro("repro_table2_shards4", SAMPLES, 1, || run(Some(4), &base));
    scrub(&base);

    let overhead_1 = one_shard - single;
    let overhead_4 = four_shards - single;
    println!(
        "[shard_overhead] coordination overhead over a single process: \
         {:.0} ms at 1 shard, {:.0} ms at 4 shards",
        overhead_1 / 1e6,
        overhead_4 / 1e6,
    );
}
