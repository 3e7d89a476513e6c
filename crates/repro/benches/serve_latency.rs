//! Cache-hit latency of a live `repro serve`: the time a client waits for
//! a profile point that is already in the store — the serving fast path
//! that must stay fast under the admission/degradation machinery wrapped
//! around it.
//!
//! One server process, one persistent connection, one warmed key: every
//! sample is a full frame round trip (write Query, read Response) with
//! `cached=true` asserted, so the distribution is pure serving overhead —
//! no simulation, no process spawn. Reported as p50/p99 per the serving
//! SLO framing (tail latency is the robustness number; the mean hides
//! queue jitter).

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use pud_bench::percentile;
use pudhammer::fleet::wire::{Frame, FrameReader, QueryStatus};

const KEY: &str = "family=SK Hynix-A-4Gb;chip=0;pattern=rh-ds";
const WARMUP: usize = 50;
const SAMPLES: usize = 500;

fn main() {
    let mut store = std::env::temp_dir();
    store.push(format!("pud-serve-bench-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&store);

    let mut server = Command::new(env!("CARGO_BIN_EXE_repro"));
    server.env_remove("PUD_FAULT_SEED");
    let mut server = server
        .args(["serve", "--store"])
        .arg(&store)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let mut banner = String::new();
    BufReader::new(server.stdout.as_mut().expect("piped"))
        .read_line(&mut banner)
        .expect("listen banner");
    let addr = banner
        .trim()
        .strip_prefix("serve: listening on ")
        .expect("serve banner")
        .to_string();

    let stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = FrameReader::new(stream);
    let mut round_trip = |id: u64| -> (f64, bool) {
        let started = Instant::now();
        Frame::Query {
            id,
            key: KEY.to_string(),
            deadline_ms: 0,
        }
        .write_to(&mut writer)
        .expect("send");
        let frame = reader.next_frame().expect("read").expect("response");
        let elapsed = started.elapsed().as_nanos() as f64;
        match frame {
            Frame::Response { status, cached, .. } => {
                assert_eq!(status, QueryStatus::Ok, "bench key must resolve");
                (elapsed, cached)
            }
            other => panic!("unexpected {other:?}"),
        }
    };

    // First round trip computes the point; everything after hits the cache.
    let (_, _) = round_trip(0);
    for i in 0..WARMUP {
        let (_, cached) = round_trip(1 + i as u64);
        assert!(cached, "warmup must be cache hits");
    }
    let mut samples = Vec::with_capacity(SAMPLES);
    for i in 0..SAMPLES {
        let (ns, cached) = round_trip(1000 + i as u64);
        assert!(cached, "samples must be cache hits");
        samples.push(ns);
    }

    samples.sort_by(f64::total_cmp);
    println!(
        "[serve_latency] cache-hit round trip over {} samples: p50 {:.1} µs, p99 {:.1} µs",
        SAMPLES,
        percentile(&samples, 50.0) / 1e3,
        percentile(&samples, 99.0) / 1e3,
    );

    let _ = Command::new("kill")
        .args(["-TERM", &server.id().to_string()])
        .status();
    let status = server.wait().expect("server exit");
    assert!(status.success(), "server drain failed: {status}");
    let _ = std::fs::remove_file(&store);
}
