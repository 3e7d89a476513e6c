//! `repro` — regenerates every table and figure of the PuDHammer paper.
//!
//! ```text
//! repro <target|all|list> [flags]     run drivers (--shards: across worker processes)
//! repro fsck <checkpoint> [--repair]  verify or repair a checkpoint offline
//! repro serve --store <path> [flags]  serve profile queries over TCP
//! repro query <key> (--connect <addr> | --local) [flags]
//! ```
//!
//! Every flag is declared once, with its help line, in the table in
//! `cli.rs`; `repro` with no arguments prints the usage text derived from
//! it. The README "Usage" section walks through the flags and exit codes.

use std::env;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;

mod campaign;
mod cli;
mod fsck;
mod serve;
mod shards;

/// Set by the SIGINT/SIGTERM handler; the supervisor token polls it at
/// every cancellation point.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod signals {
    //! Minimal libc-free signal hookup. The handler only flips an atomic
    //! (the only async-signal-safe thing it could do); everything else —
    //! abandoning in-flight chips, flushing the checkpoint, rendering the
    //! partial report — happens at the next cooperative poll.
    use std::sync::atomic::Ordering;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn handle(_sig: i32) {
        super::INTERRUPTED.store(true, Ordering::SeqCst);
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    pub fn install() {
        let handler = handle as extern "C" fn(i32);
        unsafe {
            signal(SIGINT, handler as usize);
            signal(SIGTERM, handler as usize);
        }
    }
}

#[cfg(not(unix))]
mod signals {
    pub fn install() {}
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("fsck") => return fsck::fsck_main(&args[1..]),
        Some("serve") => return serve::serve_main(&args[1..]),
        Some("query") => return serve::query_main(&args[1..]),
        _ => {}
    }
    let args = match cli::Args::parse(cli::Sub::Campaign, &args) {
        Ok(args) => args,
        Err(e) => return cli::usage_error(&e),
    };
    let Some(target) = args.positional.clone() else {
        eprint!("{}", cli::usage());
        return ExitCode::FAILURE;
    };
    if let Some((index, count)) = args.shard_worker() {
        return shards::worker_main(&args, &target, index, count);
    }
    if let Some(count) = args.uint(&cli::SHARDS) {
        return shards::coordinator_main(&args, &target, count);
    }
    campaign::run(&args, &target, None)
}
