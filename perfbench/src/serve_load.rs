//! The `serve_zipf` workload: `serve::run` in this process on loopback with
//! an empty profile store, driven open loop by one generator thread per
//! connection, then every response checked against a direct
//! `serve::resolve_with_retry` of the same key.

use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use perfbench::keys::{self, Load, LoadSpec, Request};
use perfbench::procfs;
use perfbench::spans::Recorder;
use perfbench::stats::{median, percentile};
use pudhammer::experiments::Scale;
use pudhammer::fleet::wire::{Frame, FrameReader, QueryStatus};
use pudhammer::fleet::{Fleet, Roster};
use pudhammer::serve::{self, ProfileKey, ProfileStore, ServeConfig};

use pud_observe::profile::ProfileNode;
use pud_observe::Snapshot;

use crate::{end_setup, published_layers, Outcome, RunArgs};

/// Distinct keys drawn from the roster (1440 valid keys) per run. With
/// [`REQUESTS`] Zipf draws about 700 distinct keys are requested, so about
/// 17 % of requests miss.
pub const DISTINCT_KEYS: usize = 1000;
/// Zipf exponent over key ranks.
pub const ZIPF_S: f64 = 1.0;
/// Offered load over all connections, requests per second. At this rate
/// computing the misses keeps two workers busy about 35–50 % of the run
/// (`serve.worker_busy`); the cold-cache burst at the start queues, and the
/// queue drains as the store fills. At 2000/s a 2-vCPU host saturated
/// whenever it ran slow.
pub const RATE_PER_S: f64 = 1500.0;
/// Requests per run, split evenly over the connections.
pub const REQUESTS: usize = 4000;
/// Latency limit for `slo_frac`.
pub const LIMIT_MS: f64 = 50.0;

/// The interrupt latch the hosted server drains on.
static INTERRUPT: AtomicBool = AtomicBool::new(false);

/// One request as the generator saw it.
struct Sample {
    key: usize,
    /// Due → sent, nanoseconds.
    wait_ns: u64,
    /// Due → response, nanoseconds; `None` if the request failed.
    latency_ns: Option<u64>,
    /// The response's status; `None` when no response arrived (a broken
    /// connection, or a request skipped after one).
    status: Option<QueryStatus>,
    cached: bool,
    value: String,
    /// How late the generator woke when its connection was free before the
    /// due time (`None` when the connection was still busy).
    late_ns: Option<u64>,
}

fn spec() -> LoadSpec {
    let conns = procfs::nproc();
    LoadSpec {
        distinct_keys: DISTINCT_KEYS,
        zipf_s: ZIPF_S,
        rate_per_s: RATE_PER_S,
        requests_per_conn: REQUESTS / conns,
        conns,
    }
}

/// Sends one connection's stream, each request when due or as soon as the
/// previous response arrived.
fn drive(
    stream: TcpStream,
    reqs: &[Request],
    keys: &[String],
    start: Instant,
    rec: &Recorder,
) -> Vec<Sample> {
    let mut writer = &stream;
    let mut reader = FrameReader::new(&stream);
    let mut broken = false;
    let mut out = Vec::with_capacity(reqs.len());
    for (i, r) in reqs.iter().enumerate() {
        let due = start + Duration::from_nanos(r.due_ns);
        let now = Instant::now();
        let late_ns = (now < due).then(|| {
            std::thread::sleep(due - now);
            Instant::now().duration_since(due).as_nanos() as u64
        });
        let sent = Instant::now();
        let query = Frame::Query {
            id: i as u64,
            key: keys[r.key].clone(),
            deadline_ms: 0,
        };
        let reply = if broken || query.write_to(&mut writer).is_err() {
            None
        } else {
            reader.next_frame().ok().flatten()
        };
        let recv = Instant::now();
        let mut sample = Sample {
            key: r.key,
            wait_ns: sent.saturating_duration_since(due).as_nanos() as u64,
            latency_ns: None,
            status: None,
            cached: false,
            value: String::new(),
            late_ns,
        };
        match reply {
            Some(Frame::Response {
                id,
                status,
                cached,
                value,
                ..
            }) if id == i as u64 => {
                if status == QueryStatus::Ok {
                    sample.latency_ns = Some(recv.saturating_duration_since(due).as_nanos() as u64);
                }
                sample.status = Some(status);
                sample.cached = cached;
                sample.value = value;
            }
            _ => broken = true,
        }
        if rec.enabled() {
            let id = rec.id();
            rec.record(id, 0, "serve.request", due.min(sent), recv);
            rec.record(rec.id(), id, "serve.wait", due.min(sent), sent);
            rec.record(rec.id(), id, "serve.round_trip", sent, recv);
        }
        out.push(sample);
    }
    out
}

/// Binds an ephemeral loopback port and releases it for the server.
fn free_port() -> Result<u16, String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    Ok(l.local_addr().map_err(|e| e.to_string())?.port())
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let t = Instant::now();
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_nodelay(true).map_err(|e| e.to_string())?;
                return Ok(s);
            }
            Err(e) if t.elapsed() > Duration::from_secs(10) => {
                return Err(format!("connect {addr}: {e}"))
            }
            Err(_) => std::thread::sleep(Duration::from_micros(200)),
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Percentile in milliseconds over optional nanosecond samples; `None`
/// when fewer than ten samples lie beyond it.
fn pct_ms(samples: &[Option<u64>], p: f64) -> Option<f64> {
    let v: Vec<Option<f64>> = samples.iter().map(|s| s.map(ms)).collect();
    percentile(&v, p).value()
}

/// One `serve_zipf` iteration: start the server, connect, send the seeded
/// load, drain, then check every served value (or stop after set-up).
pub fn serve_zipf(args: &RunArgs, rec: &Recorder) -> Result<Outcome, String> {
    let spec = spec();
    let load: Load = keys::generate(args.seed, &spec);
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    let store_path = args
        .work
        .join(format!("serve-{}.store", std::process::id()));
    let _ = std::fs::remove_file(&store_path);
    let scale = Scale::quick();
    let addr = format!("127.0.0.1:{}", free_port()?);
    let mut config = ServeConfig::new(scale, store_path.clone(), &INTERRUPT);
    config.listen = addr.clone();
    config.workers = procfs::nproc();
    INTERRUPT.store(false, Ordering::SeqCst);
    let accepted = pud_observe::counter("serve.accepted");

    let load = &load;
    let outcome = std::thread::scope(|s| -> Result<Outcome, String> {
        let server = s.spawn(move || serve::run(config));
        // Set-up and load; the server is stopped below whatever happens.
        let run = || -> Result<(Outcome, Vec<Sample>), String> {
            let conns: Vec<TcpStream> = (0..spec.conns)
                .map(|_| connect(&addr))
                .collect::<Result<_, _>>()?;
            while accepted.get() < spec.conns as u64 {
                if server.is_finished() {
                    return Err("server exited during set-up".to_string());
                }
                std::thread::sleep(Duration::from_micros(100));
            }
            let mut o = Outcome {
                setup_s: end_setup(args),
                ..Outcome::default()
            };
            rec.record(rec.id(), 0, "serve.setup", args.started, Instant::now());
            if args.setup_only {
                return Ok((o, Vec::new()));
            }
            let start = Instant::now();
            let cpu_start = procfs::cpu_seconds();
            let handles: Vec<_> = conns
                .into_iter()
                .zip(&load.conns)
                .map(|(c, reqs)| s.spawn(move || drive(c, reqs, &load.keys, start, rec)))
                .collect();
            let mut samples = Vec::new();
            for h in handles {
                samples.extend(h.join().map_err(|_| "generator thread panicked")?);
            }
            let first_due = load
                .conns
                .iter()
                .filter_map(|c| c.first())
                .map(|r| r.due_ns)
                .min()
                .unwrap_or(0);
            o.wall_s = start.elapsed().as_secs_f64() - first_due as f64 / 1e9;
            o.cpu_s = procfs::cpu_since(cpu_start);
            Ok((o, samples))
        };
        let result = run();
        let drain_start = Instant::now();
        INTERRUPT.store(true, Ordering::SeqCst);
        let summary = server.join().map_err(|_| "server thread panicked")?;
        let drain_s = drain_start.elapsed().as_secs_f64();
        // The server's own counters, read before the checks below run the
        // same layers again.
        let published = (pud_observe::snapshot(), pud_observe::profile::snapshot());
        let summary = summary?;
        let (mut o, samples) = result?;
        if args.setup_only {
            return Ok(o);
        }
        measure(&mut o, load, &samples, &scale, rec, &published)?;
        if rec.enabled() {
            let num = |k: &str, v: f64| (k.to_string(), v);
            o.layers.extend([
                num("serve.computed", summary.computed as f64),
                num("serve.shed", summary.shed as f64),
                num("serve.expired", summary.expired as f64),
                num("serve.store_points", summary.store_points as f64),
                num("serve.drain_s", drain_s),
            ]);
        }
        if let Some(e) = summary.write_error {
            o.mismatches
                .push(format!("profile store write failed: {e}"));
        }
        Ok(o)
    });
    let _ = std::fs::remove_file(&store_path);
    let mut o = outcome?;
    o.info.push(("scale", "quick".to_string()));
    o.info.push(("connections", spec.conns.to_string()));
    o.info.push(("rate_per_s", RATE_PER_S.to_string()));
    o.info.push(("distinct_keys", DISTINCT_KEYS.to_string()));
    o.info.push(("limit_ms", LIMIT_MS.to_string()));
    if rec.enabled() && !args.setup_only {
        store_open(&mut o, args, &scale, rec)?;
    }
    Ok(o)
}

/// Latency metrics, the response check, and (traced) the per-layer serve
/// metrics; `published` is the registry and profile tree as the server
/// left them.
fn measure(
    o: &mut Outcome,
    load: &Load,
    samples: &[Sample],
    scale: &Scale,
    rec: &Recorder,
    published: &(Snapshot, Vec<ProfileNode>),
) -> Result<(), String> {
    let n = samples.len();
    let lat: Vec<Option<u64>> = samples.iter().map(|s| s.latency_ns).collect();
    o.attempted = n as u64;
    o.failed = lat.iter().filter(|l| l.is_none()).count() as u64;
    let within = lat
        .iter()
        .filter(|l| l.is_some_and(|ns| ms(ns) <= LIMIT_MS))
        .count();
    o.e2e.push(("p50_ms", pct_ms(&lat, 0.50)));
    o.e2e.push(("p99_ms", pct_ms(&lat, 0.99)));
    o.e2e
        .push(("slo_frac", Some(within as f64 / n.max(1) as f64)));
    // The open loop's validity check. An iteration may hold fewer than the
    // 1000 wake-ups a p99 needs, so `run.py` pools them over the run.
    o.late_ns = samples.iter().filter_map(|s| s.late_ns).collect();
    let misses = samples
        .iter()
        .filter(|s| s.latency_ns.is_some() && !s.cached)
        .count();
    o.info.push(("samples", n.to_string()));
    o.info.push(("misses", misses.to_string()));

    // Every response must be `Ok` with the value of a direct resolution;
    // a missing response or any other status is a mismatch.
    let mut served: BTreeMap<usize, Vec<&Sample>> = BTreeMap::new();
    for s in samples {
        served.entry(s.key).or_default().push(s);
    }
    let mut resolve_ms = Vec::new();
    for (&k, responses) in &served {
        let key = ProfileKey::parse(&load.keys[k]).map_err(|e| format!("generated key: {e}"))?;
        let t = Instant::now();
        let direct = rec.scope(0, "serve.resolve_with_retry", |_| {
            serve::resolve_with_retry(scale, &key)
        });
        resolve_ms.push(Some(t.elapsed().as_nanos() as u64));
        if direct.status != QueryStatus::Ok {
            o.mismatches.push(format!(
                "{}: direct resolve {:?}",
                load.keys[k], direct.status
            ));
        } else if let Some(bad) = responses
            .iter()
            .find(|s| s.status != Some(QueryStatus::Ok) || s.value != direct.value)
        {
            let got = match bad.status {
                Some(QueryStatus::Ok) => format!("{:?}", bad.value),
                Some(status) => format!("{status:?}"),
                None => "no response".to_string(),
            };
            o.mismatches.push(format!(
                "{}: served {got}, direct {:?}",
                load.keys[k], direct.value
            ));
        }
    }
    if !rec.enabled() {
        return Ok(());
    }
    let split = |cached: bool| -> Vec<Option<u64>> {
        samples
            .iter()
            .filter(|s| s.latency_ns.is_some() && s.cached == cached)
            .map(|s| s.latency_ns)
            .collect()
    };
    let (hits, miss) = (split(true), split(false));
    let waits: Vec<Option<u64>> = samples.iter().map(|s| Some(s.wait_ns)).collect();
    let p = |v: &[Option<u64>], q: f64| pct_ms(v, q).unwrap_or(0.0);
    let miss_p50 = p(&miss, 0.50);
    let busy_s: f64 = resolve_ms.iter().flatten().map(|&ns| ns as f64 / 1e9).sum();
    let resolve_p50 = p(&resolve_ms, 0.50);
    // Build the chip each miss key names, as `resolve_with_retry` does.
    let mut build_ms = Vec::new();
    for &k in served.keys() {
        let key = ProfileKey::parse(&load.keys[k]).map_err(|e| format!("generated key: {e}"))?;
        let t = Instant::now();
        rec.scope(0, "serve.build_chip", |_| {
            let mut cfg = scale.fleet;
            cfg.roster = Roster::PerFamily;
            cfg.chips_per_family = key.chip + 1;
            let family = key.family.clone();
            let mut fleet = Fleet::build_filtered(cfg, move |p| p.key() == family);
            if let Some(chip) = fleet.chips.iter_mut().find(|c| c.chip_index == key.chip) {
                std::hint::black_box(chip.exec());
            }
        });
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let num = |k: &str, v: f64| (k.to_string(), v);
    o.layers.extend([
        num("serve.hit_p50_ms", p(&hits, 0.50)),
        num("serve.hit_p99_ms", p(&hits, 0.99)),
        num("serve.miss_p50_ms", miss_p50),
        num("serve.miss_p99_ms", p(&miss, 0.99)),
        num(
            "serve.hit_ratio",
            hits.len() as f64 / (hits.len() + miss.len()).max(1) as f64,
        ),
        num("serve.wait_p99_ms", p(&waits, 0.99)),
        num("serve.resolve_p50_ms", resolve_p50),
        num("serve.resolve_p99_ms", p(&resolve_ms, 0.99)),
        num(
            "serve.miss_overhead_ms",
            if miss_p50 > 0.0 && resolve_p50 > 0.0 {
                miss_p50 - resolve_p50
            } else {
                0.0
            },
        ),
        num("serve.build_chip_ms", median(&build_ms).unwrap_or(0.0)),
        num(
            "serve.worker_busy",
            busy_s / (procfs::nproc() as f64 * o.wall_s),
        ),
        num("gen.requests", samples.len() as f64),
    ]);
    o.info.push(("hit_samples", hits.len().to_string()));
    o.info.push(("miss_samples", miss.len().to_string()));
    o.info
        .push(("resolve_samples", resolve_ms.len().to_string()));
    let (snap, nodes) = published;
    o.layers.extend(
        published_layers(snap, nodes, 0.0)
            .into_iter()
            .filter(|(k, _)| {
                k.starts_with("hcfirst.") || k.starts_with("bender.") || k.starts_with("disturb.")
            }),
    );
    Ok(())
}

/// Times `ProfileStore::open` on a fresh store.
fn store_open(
    o: &mut Outcome,
    args: &RunArgs,
    scale: &Scale,
    rec: &Recorder,
) -> Result<(), String> {
    let path = args
        .work
        .join(format!("store-open-{}.store", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let t = Instant::now();
    let store = rec.scope(0, "serve.store_open", |_| {
        ProfileStore::open(&path, scale, "quick")
    });
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    store.map_err(|e| format!("profile store open: {e}"))?;
    let _ = std::fs::remove_file(&path);
    o.layers.push(("serve.store_open_ms".to_string(), open_ms));
    Ok(())
}
