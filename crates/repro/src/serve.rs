//! `repro serve` and `repro query`: the characterization query server
//! (see `pudhammer::serve`), its point-query client, and the seeded chaos
//! client behind `--fault-client`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use pud_disturb::rng::{mix_all, unit};
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
        build_scale(&args),
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
        let scale = build_scale(&args);
        let parsed = ProfileKey::parse(key);
        let mut last = ExitCode::SUCCESS;
        for _ in 0..repeat {
            // A malformed key gets the same typed verdict the server sends.
            let r = match &parsed {
                Ok(parsed) => resolve_with_retry(&scale, parsed),
                Err(detail) => Resolution::verdict(QueryStatus::BadRequest, detail.as_str()),
            };
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

/// Salt mixing client-chaos draws away from chip and storage faults, so
/// the same seed injects uncorrelated fault populations at each layer.
const CLIENT_FAULT_SALT: u64 = 0xC11E_27FA_A17C_0003;

/// The kinds of injected *client* fault (see [`ClientFaultPlan`]).
///
/// These target the serving layer from the outside: misbehaving network
/// clients that a robust server must shed, time out, or reject — never
/// crash on, leak a handler thread to, or stall behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientFaultKind {
    /// The client trickles its request one byte at a time with long
    /// pauses, holding a connection (and handler) hostage.
    SlowLoris,
    /// The client disconnects mid-frame: the length prefix promises more
    /// bytes than ever arrive.
    MidFrameCut,
    /// The client sends a malformed frame: a garbage length word or junk
    /// payload that must be rejected as a typed protocol error.
    MalformedFrame,
}

impl ClientFaultKind {
    /// Stable lowercase name (used in chaos-run transcripts).
    fn name(self) -> &'static str {
        match self {
            ClientFaultKind::SlowLoris => "slow_loris",
            ClientFaultKind::MidFrameCut => "mid_frame_cut",
            ClientFaultKind::MalformedFrame => "malformed_frame",
        }
    }
}

/// Seeded client-chaos schedule for a `repro query --fault-client` run.
///
/// Each connection ordinal deterministically either behaves (the query
/// goes through normally, proving the server still answers under chaos)
/// or misbehaves with one [`ClientFaultKind`]. Same seed, same schedule —
/// a failing chaos smoke replays exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ClientFaultPlan {
    seed: u64,
    permille: u32,
}

impl ClientFaultPlan {
    /// A plan under `seed` where each connection misbehaves with
    /// probability `permille`/1000.
    fn new(seed: u64, permille: u32) -> ClientFaultPlan {
        ClientFaultPlan { seed, permille }
    }

    /// How connection `conn` (0-based ordinal) behaves: `None` is a
    /// well-formed query, `Some(kind)` misbehaves.
    fn classify(&self, conn: u64) -> Option<ClientFaultKind> {
        if self.permille == 0 {
            return None;
        }
        let id = [self.seed ^ CLIENT_FAULT_SALT, conn, 0];
        if unit(&[id[0], id[1], id[2], 1]) >= f64::from(self.permille) / 1000.0 {
            return None;
        }
        Some(match mix_all(&[id[0], id[1], id[2], 2]) % 3 {
            0 => ClientFaultKind::SlowLoris,
            1 => ClientFaultKind::MidFrameCut,
            _ => ClientFaultKind::MalformedFrame,
        })
    }

    /// Raw draw `tag` for connection `conn` — the chaos client uses these
    /// to vary pause lengths, cut points, and garbage bytes without any
    /// other randomness source.
    fn draw(&self, conn: u64, tag: u64) -> u64 {
        mix_all(&[self.seed ^ CLIENT_FAULT_SALT, conn, 0, 0x100 + tag])
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_plans_are_deterministic_and_cover_every_kind() {
        let plan = ClientFaultPlan::new(103, 1000);
        for conn in 0..16 {
            assert_eq!(plan.classify(conn), plan.classify(conn));
            assert_eq!(plan.draw(conn, 1), plan.draw(conn, 1));
            assert!(
                plan.classify(conn).is_some(),
                "permille 1000 always misbehaves"
            );
        }
        // All three behaviors appear within a small ordinal range, so a
        // short chaos smoke exercises every misbehavior.
        let kinds: Vec<&str> = (0..16)
            .filter_map(|c| plan.classify(c))
            .map(ClientFaultKind::name)
            .collect();
        for want in ["slow_loris", "mid_frame_cut", "malformed_frame"] {
            assert!(kinds.contains(&want), "missing {want} in {kinds:?}");
        }
        // Permille scales: 0 never fires; a mid permille fires sometimes.
        assert!((0..64).all(|c| ClientFaultPlan::new(103, 0).classify(c).is_none()));
        let mid = ClientFaultPlan::new(103, 500);
        let fired = (0..64).filter(|&c| mid.classify(c).is_some()).count();
        assert!((8..56).contains(&fired), "permille 500 fired {fired}/64");
    }

    #[test]
    fn client_schedules_are_pinned() {
        // Seed 103 at the chaos client's default permille (700):
        // (behaviour, draw tag 5, tag 6, tag 7) for connections 0..8.
        use ClientFaultKind::{MalformedFrame, MidFrameCut, SlowLoris};
        let expected = [
            (
                Some(SlowLoris),
                0xc903_04a3_c0a6_b688,
                0x161b_c217_314f_884a,
                0x54a9_bf9d_6991_a820,
            ),
            (
                Some(SlowLoris),
                0x94e7_b09e_e308_7b0d,
                0x2b6d_aaec_a367_cadd,
                0x8be2_9e86_4f99_8d7a,
            ),
            (
                Some(SlowLoris),
                0x6dec_54e8_d5df_e00e,
                0xbcf0_f589_b6dd_8dc1,
                0x8146_a936_b979_277f,
            ),
            (
                Some(MalformedFrame),
                0x1b3d_5f7a_2a38_6687,
                0x9061_6614_1b60_3fbe,
                0x46a5_ada5_3862_f081,
            ),
            (
                Some(MalformedFrame),
                0x3180_e6db_8ed1_ead5,
                0x1f6a_ceaa_985f_2785,
                0xef19_201e_b472_34cb,
            ),
            (
                Some(MidFrameCut),
                0xeb45_2efb_cbb7_4a40,
                0x12a6_f2c2_3748_2ac8,
                0xea40_26fa_8486_25c4,
            ),
            (
                None,
                0xb6ed_7868_94ef_5599,
                0x8ccd_60b3_16e3_5105,
                0x1453_eebe_3696_3a20,
            ),
            (
                Some(MidFrameCut),
                0x428c_bdff_aa23_4f04,
                0x308e_bdd0_2921_ffd9,
                0x77f3_86f5_07e5_4941,
            ),
        ];
        let plan = ClientFaultPlan::new(103, 700);
        for (conn, want) in (0u64..).zip(expected) {
            let got = (
                plan.classify(conn),
                plan.draw(conn, 5),
                plan.draw(conn, 6),
                plan.draw(conn, 7),
            );
            assert_eq!(got, want, "conn {conn}");
        }
    }
}
