//! `repro serve` and `repro query`: the characterization query server
//! (see `pudhammer::serve`), its point-query client, and the seeded chaos
//! client behind `--fault-client`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use pud_bender::fault::{ClientFaultKind, ClientFaultPlan};
use pudhammer::fleet::wire::{Frame, FrameReader, QueryStatus};
use pudhammer::report;
use pudhammer::serve::{resolve_with_retry, ProfileKey, Resolution, ServeConfig};

use crate::campaign::build_scale;
use crate::cli::{self, Args, Sub};

/// `repro serve`: the long-lived characterization query server. Exit `0`
/// on a clean drain, `30` when the drain deadline forced abandoning
/// in-flight work, `1` on startup or store write failures. Settings not
/// given keep [`ServeConfig`]'s defaults.
pub fn serve_main(args: &[String]) -> ExitCode {
    let args = match Args::parse(Sub::Serve, args) {
        Ok(args) => args,
        Err(e) => return cli::usage_error(&e),
    };
    let Some(store) = args.text(&cli::STORE) else {
        return cli::usage_error(&format!("serve requires {}", cli::STORE.synopsis()));
    };
    crate::signals::install();
    let mut config = ServeConfig::new(
        build_scale(&args, false),
        PathBuf::from(store),
        &crate::INTERRUPTED,
    );
    config.scale_label = if args.on(&cli::FULL) { "full" } else { "quick" }.to_string();
    if let Some(listen) = args.text(&cli::LISTEN) {
        config.listen = listen.to_string();
    }
    if let Some(n) = args.uint(&cli::SERVE_WORKERS) {
        config.workers = n;
    }
    if let Some(n) = args.uint(&cli::QUEUE_DEPTH) {
        config.queue_depth = n;
    }
    if let Some(d) = args.seconds(&cli::DRAIN_DEADLINE) {
        config.drain_deadline = d;
    }
    config.sim_budget = args.uint(&cli::SIM_BUDGET);
    if let Some(d) = args.seconds(&cli::MAX_WAIT) {
        config.max_wait = d;
    }
    if let Some(d) = args.seconds(&cli::IDLE_TIMEOUT) {
        config.idle_timeout = d;
    }
    let summary = match pudhammer::serve::run(config) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.on(&cli::METRICS) {
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
pub fn query_main(args: &[String]) -> ExitCode {
    match args.first() {
        None => return cli::usage_error("query requires a profile key as its first argument"),
        Some(key) if key.starts_with("--") => {
            return cli::usage_error("query requires the profile key before any flags")
        }
        Some(_) => {}
    }
    let args = match Args::parse(Sub::Query, args) {
        Ok(args) => args,
        Err(e) => return cli::usage_error(&e),
    };
    let key = args
        .positional
        .as_deref()
        .expect("the first argument is the key");
    let repeat: u64 = args.uint(&cli::REPEAT).unwrap_or(1);
    if args.on(&cli::LOCAL) {
        // The in-process reference path: same resolve, same bytes.
        let scale = build_scale(&args, false);
        let parsed = match ProfileKey::parse(key) {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!("error: bad profile key: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut last = ExitCode::SUCCESS;
        for _ in 0..repeat {
            let r = resolve_with_retry(&scale, &parsed);
            print_resolution(&r);
            last = query_exit(r.status);
        }
        return last;
    }
    let Some(addr) = args.text(&cli::CONNECT) else {
        return cli::usage_error(&format!(
            "query requires {} or {}",
            cli::CONNECT.synopsis(),
            cli::LOCAL.name
        ));
    };
    let timeout = args
        .seconds(&cli::TIMEOUT)
        .unwrap_or(Duration::from_secs(30));
    if let Some(seed) = args.uint(&cli::FAULT_CLIENT) {
        let permille = args.uint(&cli::FAULT_CLIENT_PERMILLE).unwrap_or(700);
        return chaos_main(addr, key, seed, permille, repeat, timeout);
    }
    let deadline_ms = args.uint(&cli::DEADLINE_MS).unwrap_or(0);
    let mut last = ExitCode::SUCCESS;
    for i in 0..repeat {
        match query_once(addr, key, i + 1, deadline_ms, timeout) {
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
