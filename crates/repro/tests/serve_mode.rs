//! End-to-end tests of `repro serve` + `repro query`: served values must
//! be byte-identical to in-process computation under concurrent clients,
//! the degradation ladder must answer with typed verdicts (`Overloaded`
//! at queue-depth 0, `Degraded` past the simulation budget, `Expired`
//! past a deadline) instead of stalling, the seeded `--fault-client`
//! chaos mode must never wedge the server, and a SIGTERM drain must
//! commit the profile store so a reopened server answers from cache.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::Duration;

const KEY_A: &str = "family=SK Hynix-A-4Gb;chip=0;pattern=rh-ds";
const KEY_B: &str = "family=Micron-B-4Gb;chip=1;pattern=comra-ds";
const KEY_C: &str = "family=SK Hynix-A-4Gb;chip=0;pattern=simra-4;dp=wcdp";
const KEY_FAULTED: &str = "family=Samsung-C-16Gb;chip=0;pattern=rh-ds";

fn repro() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    // A fault seed leaking in from CI's fault-tolerance job would make
    // on-demand computations retry nondeterministically; these tests seed
    // faults explicitly where they want them.
    cmd.env_remove("PUD_FAULT_SEED");
    cmd
}

fn temp_store(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pud-serve-e2e-{name}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Starts a server on an ephemeral port and returns the child plus the
/// bound address parsed from its single stdout line.
fn start_server(store: &PathBuf, extra: &[&str]) -> (Child, String) {
    let mut child = repro()
        .arg("serve")
        .arg("--store")
        .arg(store)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut line = String::new();
    BufReader::new(child.stdout.as_mut().expect("stdout piped"))
        .read_line(&mut line)
        .expect("read listen line");
    let addr = line
        .trim()
        .strip_prefix("serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected serve banner: {line:?}"))
        .to_string();
    (child, addr)
}

/// SIGTERMs the server and asserts the drain completed with the expected
/// exit code, returning its stderr.
fn drain(child: Child, expect_code: i32) -> String {
    let pid = child.id().to_string();
    let _ = Command::new("kill").args(["-TERM", &pid]).status();
    let out = wait_with_deadline(child, Duration::from_secs(30));
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert_eq!(
        out.status.code(),
        Some(expect_code),
        "drain exit: {} stderr:\n{stderr}",
        out.status
    );
    stderr
}

/// `wait_with_output` guarded by a deadline: a wedged server fails the
/// test instead of hanging the whole suite.
fn wait_with_deadline(child: Child, deadline: Duration) -> Output {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(child.wait_with_output().expect("wait server"));
    });
    rx.recv_timeout(deadline)
        .expect("server failed to exit within the test deadline")
}

fn query(addr: &str, key: &str, extra: &[&str]) -> Output {
    repro()
        .args(["query", key, "--connect", addr])
        .args(extra)
        .output()
        .expect("spawn query")
}

fn local(key: &str) -> Output {
    repro()
        .args(["query", key, "--local"])
        .output()
        .expect("spawn local query")
}

fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "query failed: {} stderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

#[test]
fn served_values_are_byte_identical_to_local_computation_under_concurrency() {
    let store = temp_store("identity");
    let (server, addr) = start_server(&store, &["--serve-workers", "3"]);
    // Fire 9 concurrent clients — three per key, racing the same misses —
    // while the reference values compute in this process.
    let keys = [KEY_A, KEY_B, KEY_C];
    let clients: Vec<(usize, Child)> = (0..9)
        .map(|i| {
            let child = repro()
                .args(["query", keys[i % 3], "--connect", &addr])
                .args(["--timeout", "120"])
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn client");
            (i % 3, child)
        })
        .collect();
    let reference: Vec<String> = keys.iter().map(|k| stdout_of(&local(k))).collect();
    for (key_idx, client) in clients {
        let out = wait_with_deadline(client, Duration::from_secs(120));
        assert_eq!(
            stdout_of(&out),
            reference[key_idx],
            "served value for {} diverged",
            keys[key_idx]
        );
    }
    // A second round must come from cache — still byte-identical.
    for (i, key) in keys.iter().enumerate() {
        let out = query(&addr, key, &[]);
        assert_eq!(stdout_of(&out), reference[i]);
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("cached=true"),
            "second round should hit the cache"
        );
    }
    let stderr = drain(server, 0);
    assert!(stderr.contains("point(s) committed"), "{stderr}");
    let _ = std::fs::remove_file(&store);
}

#[test]
fn queue_depth_zero_sheds_every_miss_with_typed_overloaded() {
    let store = temp_store("overload");
    let (server, addr) = start_server(&store, &["--queue-depth", "0"]);
    let out = query(&addr, KEY_A, &[]);
    assert_eq!(out.status.code(), Some(11), "Overloaded exit code");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("status=overloaded"), "{stderr}");
    assert!(out.stdout.is_empty(), "a shed query prints no value");
    drain(server, 0);
    let _ = std::fs::remove_file(&store);
}

#[test]
fn exhausted_sim_budget_degrades_misses_while_cache_hits_keep_answering() {
    let store = temp_store("degrade");
    let (server, addr) = start_server(&store, &["--sim-budget", "1"]);
    // The budget's one computation.
    let first = query(&addr, KEY_A, &["--timeout", "120"]);
    let value = stdout_of(&first);
    // Budget spent: a different key degrades with a typed verdict...
    let miss = query(&addr, KEY_B, &[]);
    assert_eq!(miss.status.code(), Some(12), "Degraded exit code");
    assert!(
        String::from_utf8_lossy(&miss.stderr).contains("status=degraded"),
        "{}",
        String::from_utf8_lossy(&miss.stderr)
    );
    // ...while the cached point keeps answering, byte-identical.
    let hit = query(&addr, KEY_A, &[]);
    assert_eq!(stdout_of(&hit), value);
    assert!(String::from_utf8_lossy(&hit.stderr).contains("cached=true"));
    drain(server, 0);
    let _ = std::fs::remove_file(&store);
}

#[test]
fn a_one_millisecond_deadline_expires_with_a_typed_verdict() {
    let store = temp_store("deadline");
    // Under fault seed 103 this key's first attempt hits a transient fault
    // (the query golden shows it retried twice). The retry backs off for at
    // least 2 ms, so the retry's admission finds the 1 ms deadline passed
    // however fast the computation itself is.
    let (server, addr) = start_server(&store, &["--fault-seed", "103"]);
    let out = query(&addr, KEY_FAULTED, &["--deadline-ms", "1"]);
    assert_eq!(out.status.code(), Some(20), "Expired exit code");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("status=expired"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    drain(server, 0);
    let _ = std::fs::remove_file(&store);
}

#[test]
fn seeded_client_chaos_never_wedges_the_server() {
    let store = temp_store("chaos");
    // A small idle timeout so slow-loris connections are cut quickly and
    // the chaos run (and the drain after it) stays fast.
    let (server, addr) = start_server(&store, &["--idle-timeout", "2"]);
    let chaos = repro()
        .args(["query", KEY_A, "--connect", &addr])
        .args([
            "--fault-client",
            "103",
            "--repeat",
            "16",
            "--timeout",
            "120",
        ])
        .output()
        .expect("spawn chaos client");
    let stderr = String::from_utf8_lossy(&chaos.stderr).to_string();
    assert!(
        chaos.status.success(),
        "chaos client: {} stderr:\n{stderr}",
        chaos.status
    );
    // The curated seed exercises every misbehavior kind (asserted in the
    // pud-bender plan tests) and the post-chaos probe answered.
    assert!(stderr.contains("post-chaos probe answered"), "{stderr}");
    // A clean client still gets the right bytes after the abuse.
    let out = query(&addr, KEY_A, &[]);
    assert_eq!(stdout_of(&out), stdout_of(&local(KEY_A)));
    drain(server, 0);
    let _ = std::fs::remove_file(&store);
}

#[test]
fn sigterm_drain_commits_the_store_and_a_reopened_server_answers_from_cache() {
    let store = temp_store("drain-commit");
    let (server, addr) = start_server(&store, &[]);
    let value = stdout_of(&query(&addr, KEY_B, &["--timeout", "120"]));
    drain(server, 0);
    // The committed store passes offline verification...
    let fsck = repro().arg("fsck").arg(&store).output().expect("fsck");
    assert!(
        fsck.status.success(),
        "fsck after drain: {} {}",
        fsck.status,
        String::from_utf8_lossy(&fsck.stderr)
    );
    // ...and a reopened server answers the same key from cache without
    // recomputing, byte-identical.
    let (server, addr) = start_server(&store, &["--sim-budget", "0"]);
    let out = query(&addr, KEY_B, &[]);
    assert_eq!(stdout_of(&out), value, "reopened value diverged");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cached=true"),
        "reopen must serve from the committed store"
    );
    drain(server, 0);
    let _ = std::fs::remove_file(&store);
}
