//! The `repro` command-line contract: for every flag, the exit code and
//! the first stderr line a missing and a malformed value produce, the
//! accepted value where running it is cheap, and the subcommands' own
//! usage errors (unknown flags and targets, `fsck` paths, the position of
//! the `query` key). Every row runs the real binary in a scratch working
//! directory, so relative paths the rows name never touch the repository.

use std::path::PathBuf;
use std::process::Command;

const KEY: &str = "family=SK Hynix-A-4Gb;chip=0;pattern=rh-ds";

/// `(arguments, exit code, first non-empty stderr line)`. A line ending in
/// `...` matches as a prefix; an empty line means stderr stayed empty.
type Row = (&'static [&'static str], i32, &'static str);

const CAMPAIGN: &[Row] = &[
    (
        &[],
        1,
        "usage: repro <target|all|list> [--full] [--threads <n>]...",
    ),
    (&["list"], 0, ""),
    (
        &["list", "extra"],
        1,
        "error: unexpected extra argument: extra",
    ),
    (&["list", "--bogus"], 1, "error: unknown flag: --bogus"),
    (&["bogus"], 1, "unknown target: bogus"),
    (&["-x"], 1, "unknown target: -x"),
    (&["list", "--full"], 0, ""),
    (
        &["list", "--threads"],
        1,
        "error: --threads requires a positive integer",
    ),
    (
        &["list", "--threads", "0"],
        1,
        "error: --threads requires a positive integer",
    ),
    (&["list", "--threads", "2"], 0, ""),
    (&["list", "--metrics"], 0, "== Run metrics =="),
    (
        &["list", "--trace-out"],
        1,
        "error: --trace-out requires a path",
    ),
    (&["list", "--trace-out", "t.jsonl"], 0, ""),
    (
        &["list", "--profile-out"],
        1,
        "error: --profile-out requires a path",
    ),
    (&["list", "--profile-out", "p.folded"], 0, ""),
    (&["list", "--progress"], 0, ""),
    (&["list", "--quiet"], 0, ""),
    (
        &["list", "--fault-seed"],
        1,
        "error: --fault-seed requires an unsigned integer",
    ),
    (
        &["list", "--fault-seed", "-1"],
        1,
        "error: --fault-seed requires an unsigned integer",
    ),
    (&["list", "--fault-seed", "7"], 0, ""),
    (
        &["list", "--max-retries"],
        1,
        "error: --max-retries requires an unsigned integer",
    ),
    (
        &["list", "--max-retries", "-1"],
        1,
        "error: --max-retries requires an unsigned integer",
    ),
    (&["list", "--max-retries", "1"], 0, ""),
    (
        &["list", "--checkpoint"],
        1,
        "error: --checkpoint requires a path",
    ),
    (
        &["list", "--checkpoint", "c.jsonl"],
        1,
        "error: --checkpoint is not supported for list \
         (supported: all and every experiment target except fig25)",
    ),
    (
        &["fig25", "--checkpoint", "c.jsonl"],
        1,
        "error: --checkpoint is not supported for fig25 \
         (supported: all and every experiment target except fig25)",
    ),
    (
        &["list", "--deadline"],
        1,
        "error: --deadline requires a positive number of seconds",
    ),
    (
        &["list", "--deadline", "0"],
        1,
        "error: --deadline requires a positive number of seconds",
    ),
    (
        &["list", "--deadline", "inf"],
        1,
        "error: --deadline requires a positive number of seconds",
    ),
    // A value a `Duration` cannot hold is a usage error, not a panic.
    (
        &["list", "--deadline", "1e30"],
        1,
        "error: --deadline requires a positive number of seconds",
    ),
    (&["list", "--deadline", "1"], 0, ""),
    (
        &["list", "--deadline-units"],
        1,
        "error: --deadline-units requires a positive integer",
    ),
    (
        &["list", "--deadline-units", "0"],
        1,
        "error: --deadline-units requires a positive integer",
    ),
    (&["list", "--deadline-units", "1"], 0, ""),
    (&["list", "--strict"], 0, ""),
    (
        &["list", "--fleet"],
        1,
        "error: --fleet requires per-family, paper, or synth:<n>",
    ),
    (
        &["list", "--fleet", "bogus"],
        1,
        "error: --fleet requires per-family, paper, or synth:<n>",
    ),
    (&["list", "--fleet", "paper"], 0, ""),
    (&["list", "--page-chips"], 0, ""),
    (&["list", "--mem-stats"], 0, "mem: peak_rss_kb=..."),
    (
        &["list", "--fault-worker-abort"],
        1,
        "error: --fault-worker-abort requires a permille in 0..=1000",
    ),
    (
        &["list", "--fault-worker-abort", "1001"],
        1,
        "error: --fault-worker-abort requires a permille in 0..=1000",
    ),
    (&["list", "--fault-worker-abort", "0"], 0, ""),
    (
        &["list", "--fault-worker-hang"],
        1,
        "error: --fault-worker-hang requires a permille in 0..=1000",
    ),
    (
        &["list", "--fault-worker-hang", "1001"],
        1,
        "error: --fault-worker-hang requires a permille in 0..=1000",
    ),
    (&["list", "--fault-worker-hang", "0"], 0, ""),
    (
        &["list", "--fault-storage"],
        1,
        "error: --fault-storage requires a permille in 0..=1000",
    ),
    (
        &["list", "--fault-storage", "1001"],
        1,
        "error: --fault-storage requires a permille in 0..=1000",
    ),
    (&["list", "--fault-storage", "0"], 0, ""),
    (
        &["list", "--shards"],
        1,
        "error: --shards requires a positive integer",
    ),
    (
        &["list", "--shards", "0"],
        1,
        "error: --shards requires a positive integer",
    ),
    (
        &["fig25", "--shards", "2", "--checkpoint", "c.jsonl"],
        1,
        "error: --shards does not support target fig25 (no per-chip units to shard)",
    ),
    (
        &["table2", "--shards", "2"],
        1,
        "error: --shards requires --checkpoint (shard results travel through it)",
    ),
    (
        &[
            "table2",
            "--shards",
            "2",
            "--checkpoint",
            "c.jsonl",
            "--trace-out",
            "t.jsonl",
        ],
        1,
        "error: --trace-out is not supported with --shards (traces happen in workers)",
    ),
    (
        &["list", "--max-respawns"],
        1,
        "error: --max-respawns requires an unsigned integer",
    ),
    (
        &["list", "--max-respawns", "-1"],
        1,
        "error: --max-respawns requires an unsigned integer",
    ),
    (&["list", "--max-respawns", "1"], 0, ""),
    (
        &["list", "--heartbeat-timeout"],
        1,
        "error: --heartbeat-timeout requires a positive number of seconds",
    ),
    (
        &["list", "--heartbeat-timeout", "0"],
        1,
        "error: --heartbeat-timeout requires a positive number of seconds",
    ),
    (
        &[
            "table2",
            "--shards",
            "1",
            "--checkpoint",
            "c.jsonl",
            "--heartbeat-timeout",
            "1e30",
        ],
        1,
        "error: --heartbeat-timeout requires a positive number of seconds",
    ),
    (&["list", "--heartbeat-timeout", "1"], 0, ""),
    (
        &["list", "--shard-worker"],
        1,
        "error: --shard-worker requires <index>/<count>",
    ),
    (
        &["list", "--shard-worker", "1/1"],
        1,
        "error: --shard-worker requires <index>/<count>",
    ),
    (
        &["table2", "--shard-worker", "0/1"],
        1,
        "error: --shard-worker requires --checkpoint",
    ),
    (
        &["fig25", "--shard-worker", "0/1", "--checkpoint", "c.jsonl"],
        1,
        "error: --shard-worker does not support target fig25",
    ),
    (
        &["list", "--worker-attempt"],
        1,
        "error: --worker-attempt requires an unsigned integer",
    ),
    (
        &["list", "--worker-attempt", "-1"],
        1,
        "error: --worker-attempt requires an unsigned integer",
    ),
];

const FSCK: &[Row] = &[
    (&["fsck"], 1, "error: fsck requires a checkpoint path"),
    (
        &["fsck", "a.jsonl", "b.jsonl"],
        1,
        "error: unexpected extra argument: b.jsonl",
    ),
    (&["fsck", "--bogus"], 1, "error: unknown fsck flag: --bogus"),
    (
        &["fsck", "a.jsonl", "--threads", "2"],
        1,
        "error: unknown fsck flag: --threads",
    ),
    (
        &["fsck", "missing.jsonl"],
        1,
        "error: no checkpoint found at missing.jsonl",
    ),
    (
        &["fsck", "missing.jsonl", "--repair"],
        1,
        "error: no checkpoint found at missing.jsonl",
    ),
];

const SERVE: &[Row] = &[
    (&["serve"], 1, "error: serve requires --store <path>"),
    (&["serve", "--bogus"], 1, "error: unknown flag: --bogus"),
    (
        &["serve", "--fault-worker-abort", "1"],
        1,
        "error: unknown flag: --fault-worker-abort",
    ),
    (
        &["serve", "--fault-worker-hang", "1"],
        1,
        "error: unknown flag: --fault-worker-hang",
    ),
    (
        &["serve", "--store", "s.jsonl", "extra"],
        1,
        "error: unexpected extra argument: extra",
    ),
    (
        &["serve", "--metrics"],
        1,
        "error: serve requires --store <path>",
    ),
    (
        &["serve", "--threads", "0"],
        1,
        "error: --threads requires a positive integer",
    ),
    (&["serve", "--store"], 1, "error: --store requires a path"),
    (
        &["serve", "--listen"],
        1,
        "error: --listen requires a host:port address",
    ),
    (
        &["serve", "--serve-workers"],
        1,
        "error: --serve-workers requires a positive integer",
    ),
    (
        &["serve", "--serve-workers", "0"],
        1,
        "error: --serve-workers requires a positive integer",
    ),
    (
        &["serve", "--queue-depth"],
        1,
        "error: --queue-depth requires an unsigned integer",
    ),
    (
        &["serve", "--queue-depth", "-1"],
        1,
        "error: --queue-depth requires an unsigned integer",
    ),
    (
        &["serve", "--drain-deadline"],
        1,
        "error: --drain-deadline requires a positive number of seconds",
    ),
    (
        &["serve", "--drain-deadline", "0"],
        1,
        "error: --drain-deadline requires a positive number of seconds",
    ),
    (
        &["serve", "--store", "s.jsonl", "--drain-deadline", "inf"],
        1,
        "error: --drain-deadline requires a positive number of seconds",
    ),
    (
        &["serve", "--sim-budget"],
        1,
        "error: --sim-budget requires an unsigned integer",
    ),
    (
        &["serve", "--sim-budget", "-1"],
        1,
        "error: --sim-budget requires an unsigned integer",
    ),
    (
        &["serve", "--max-wait"],
        1,
        "error: --max-wait requires a positive number of seconds",
    ),
    (
        &["serve", "--max-wait", "0"],
        1,
        "error: --max-wait requires a positive number of seconds",
    ),
    (
        &["serve", "--store", "s.jsonl", "--max-wait", "inf"],
        1,
        "error: --max-wait requires a positive number of seconds",
    ),
    (
        &["serve", "--idle-timeout"],
        1,
        "error: --idle-timeout requires a positive number of seconds",
    ),
    (
        &["serve", "--idle-timeout", "0"],
        1,
        "error: --idle-timeout requires a positive number of seconds",
    ),
    (
        &["serve", "--store", "s.jsonl", "--idle-timeout", "1e300"],
        1,
        "error: --idle-timeout requires a positive number of seconds",
    ),
    // Campaign-only flags are unknown here, not silently ignored.
    (
        &["serve", "--shards", "4"],
        1,
        "error: unknown flag: --shards",
    ),
    (
        &["serve", "--checkpoint", "c.jsonl"],
        1,
        "error: unknown flag: --checkpoint",
    ),
    (&["serve", "--strict"], 1, "error: unknown flag: --strict"),
    (
        &["serve", "--deadline", "1"],
        1,
        "error: unknown flag: --deadline",
    ),
];

const QUERY: &[Row] = &[
    (
        &["query"],
        1,
        "error: query requires a profile key as its first argument",
    ),
    (
        &["query", "--local"],
        1,
        "error: query requires the profile key before any flags",
    ),
    (
        &["query", KEY],
        1,
        "error: query requires --connect <addr> or --local",
    ),
    (
        &["query", KEY, "extra"],
        1,
        "error: unexpected extra argument: extra",
    ),
    (
        &["query", KEY, "--bogus"],
        1,
        "error: unknown flag: --bogus",
    ),
    (
        &["query", "bogus", "--local"],
        1,
        "query: status=bad-request cached=false retries=0",
    ),
    (
        &["query", KEY, "--local"],
        0,
        "query: status=ok cached=false retries=0",
    ),
    (
        &["query", KEY, "--local", "--threads", "0"],
        1,
        "error: --threads requires a positive integer",
    ),
    (
        &["query", KEY, "--connect"],
        1,
        "error: --connect requires a host:port address",
    ),
    (
        &["query", KEY, "--deadline-ms"],
        1,
        "error: --deadline-ms requires an unsigned integer",
    ),
    (
        &["query", KEY, "--deadline-ms", "-1"],
        1,
        "error: --deadline-ms requires an unsigned integer",
    ),
    (
        &["query", KEY, "--timeout"],
        1,
        "error: --timeout requires a positive number of seconds",
    ),
    (
        &["query", KEY, "--timeout", "0"],
        1,
        "error: --timeout requires a positive number of seconds",
    ),
    (
        &["query", KEY, "--connect", "127.0.0.1:9", "--timeout", "inf"],
        1,
        "error: --timeout requires a positive number of seconds",
    ),
    (
        &["query", KEY, "--repeat"],
        1,
        "error: --repeat requires a positive integer",
    ),
    (
        &["query", KEY, "--repeat", "0"],
        1,
        "error: --repeat requires a positive integer",
    ),
    (
        &["query", KEY, "--fault-client"],
        1,
        "error: --fault-client requires an unsigned integer seed",
    ),
    (
        &["query", KEY, "--fault-client", "x"],
        1,
        "error: --fault-client requires an unsigned integer seed",
    ),
    (
        &["query", KEY, "--fault-client-permille"],
        1,
        "error: --fault-client-permille requires a permille in 0..=1000",
    ),
    (
        &["query", KEY, "--fault-client-permille", "1001"],
        1,
        "error: --fault-client-permille requires a permille in 0..=1000",
    ),
    // Campaign-only flags are unknown here, not silently ignored.
    (
        &["query", KEY, "--local", "--trace-out", "t.jsonl"],
        1,
        "error: unknown flag: --trace-out",
    ),
    (
        &["query", KEY, "--local", "--shards", "3"],
        1,
        "error: unknown flag: --shards",
    ),
    // Worker-process drills fire only in shard workers.
    (
        &["query", KEY, "--local", "--fault-worker-abort", "1"],
        1,
        "error: unknown flag: --fault-worker-abort",
    ),
    (
        &["query", KEY, "--local", "--fault-worker-hang", "1"],
        1,
        "error: unknown flag: --fault-worker-hang",
    ),
];

/// A scratch working directory for one test of this process.
fn workdir(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("pud-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn check(name: &str, rows: &[Row]) {
    let dir = workdir(name);
    let mut failures = Vec::new();
    for (args, code, line) in rows {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(*args)
            .current_dir(&dir)
            .env_remove("PUD_FAULT_SEED")
            .env_remove("PUD_THREADS")
            .env_remove("PUD_PROGRESS")
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let first = stderr.lines().find(|l| !l.is_empty()).unwrap_or("");
        let line_ok = match line.strip_suffix("...") {
            Some(prefix) => first.starts_with(prefix),
            None => first == *line,
        };
        if out.status.code() != Some(*code) || !line_ok {
            failures.push(format!(
                "repro {args:?}: want exit {code} and {line:?}, got {:?} and {first:?}",
                out.status.code()
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn campaign_flags() {
    check("campaign", CAMPAIGN);
}

#[test]
fn fsck_usage() {
    check("fsck", FSCK);
}

#[test]
fn serve_flags() {
    check("serve", SERVE);
}

#[test]
fn query_flags() {
    check("query", QUERY);
}
