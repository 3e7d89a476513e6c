//! The one flag table of `repro`. Every flag of every subcommand is
//! declared once in [`FLAGS`] with its value kind, the subcommands that
//! accept it, whether shard workers inherit it, and its help line. The
//! parser ([`Args::parse`]), the usage text ([`usage`]) and the flags a
//! shard worker is spawned with ([`Args::inherited`]) are all derived from
//! the table.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use pudhammer::fleet::Roster;

use crate::campaign::TARGETS;

/// A `repro` subcommand, as far as the flags it accepts are concerned.
/// The sharded coordinator and the hidden shard worker are campaigns.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sub {
    Campaign,
    Fsck,
    Serve,
    Query,
}

impl Sub {
    /// The command words and the positional argument, if it takes one.
    fn synopsis(self) -> (&'static str, Option<&'static str>) {
        match self {
            Sub::Campaign => ("repro", Some("<target|all|list>")),
            Sub::Fsck => ("repro fsck", Some("<checkpoint>")),
            Sub::Serve => ("repro serve", None),
            Sub::Query => ("repro query", Some("<key>")),
        }
    }
}

/// What a flag's value must look like; each kind has one parser.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// No value.
    Switch,
    /// A file path (any token).
    Path,
    /// A `host:port` address (any token).
    Addr,
    /// An unsigned integer no larger than the bound.
    Uint(u64),
    /// An unsigned 64-bit seed.
    Seed,
    /// A positive integer no larger than the bound.
    Positive(u64),
    /// An integer in `0..=1000`.
    Permille,
    /// A positive number of seconds that a [`Duration`] can hold.
    Seconds,
    /// A fleet roster: `per-family`, `paper` or `synth:<n>`.
    Fleet,
    /// A shard slot `<index>/<count>` with `index < count`.
    Slot,
}

const U32: u64 = u32::MAX as u64;
const U64: u64 = u64::MAX;
const USIZE: u64 = usize::MAX as u64;

/// A parsed, validated flag value.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Value {
    Switch,
    /// The value is the raw token itself.
    Text,
    Uint(u64),
    Seconds(Duration),
    Fleet(Roster),
    Slot(u32, u32),
}

impl Kind {
    fn parse(self, raw: &str) -> Option<Value> {
        let uint = |max: u64| raw.parse::<u64>().ok().filter(|&n| n <= max);
        match self {
            Kind::Switch => Some(Value::Switch),
            Kind::Path | Kind::Addr => Some(Value::Text),
            Kind::Uint(max) => uint(max).map(Value::Uint),
            Kind::Seed => uint(U64).map(Value::Uint),
            Kind::Positive(max) => uint(max).filter(|&n| n > 0).map(Value::Uint),
            Kind::Permille => uint(1000).map(Value::Uint),
            Kind::Seconds => raw
                .parse::<f64>()
                .ok()
                .filter(|&s| s > 0.0)
                .and_then(|s| Duration::try_from_secs_f64(s).ok())
                .map(Value::Seconds),
            Kind::Fleet => Roster::parse(raw).map(Value::Fleet),
            Kind::Slot => {
                let (w, s) = raw.split_once('/')?;
                let (w, s) = (w.parse::<u32>().ok()?, s.parse::<u32>().ok()?);
                (w < s).then_some(Value::Slot(w, s))
            }
        }
    }

    /// What a value must be, as the usage error puts it, and the value's
    /// placeholder in the usage text.
    fn describe(self) -> (&'static str, &'static str) {
        match self {
            Kind::Switch => ("no value", ""),
            Kind::Path => ("a path", "<path>"),
            Kind::Addr => ("a host:port address", "<addr>"),
            Kind::Uint(_) => ("an unsigned integer", "<n>"),
            Kind::Seed => ("an unsigned integer seed", "<seed>"),
            Kind::Positive(_) => ("a positive integer", "<n>"),
            Kind::Permille => ("a permille in 0..=1000", "<permille>"),
            Kind::Seconds => ("a positive number of seconds", "<secs>"),
            Kind::Fleet => (
                "per-family, paper, or synth:<n>",
                "<per-family|paper|synth:n>",
            ),
            Kind::Slot => ("<index>/<count>", "<index>/<count>"),
        }
    }
}

/// Where a flag's value goes besides this process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Role {
    /// Only this process reads it.
    Local,
    /// Shard workers are spawned with it when the coordinator got it.
    Inherited,
    /// Set by the coordinator on worker command lines; not in the usage.
    Internal,
}

/// One row of the flag table.
#[derive(Debug)]
pub struct Flag {
    pub name: &'static str,
    kind: Kind,
    subs: &'static [Sub],
    role: Role,
    help: &'static str,
}

impl Flag {
    /// `--name <metavar>`, as the usage text shows it.
    pub fn synopsis(&self) -> String {
        match self.kind {
            Switch => self.name.to_string(),
            kind => format!("{} {}", self.name, kind.describe().1),
        }
    }
}

/// Declares each row as a `pub static` and lists every row in [`FLAGS`].
macro_rules! flags {
    ($($id:ident($name:literal, $kind:expr, $subs:expr, $role:ident, $help:literal);)*) => {
        $(pub static $id: Flag = Flag {
            name: $name,
            kind: $kind,
            subs: $subs,
            role: Role::$role,
            help: $help,
        };)*
        /// Every flag, in usage order; shard workers get the inherited
        /// ones in this order too.
        pub static FLAGS: &[&Flag] = &[$(&$id),*];
    };
}

use Kind::*;
use Sub::*;

/// The flags `build_scale` reads: every subcommand that simulates takes them.
const SCALE: &[Sub] = &[Campaign, Serve, Query];
const RUN: &[Sub] = &[Campaign];
const SERVE: &[Sub] = &[Serve];
const QUERY: &[Sub] = &[Query];

flags! {
    FULL("--full", Switch, SCALE, Inherited,
        "run at paper density instead of quick scale (slower)");
    THREADS("--threads", Positive(USIZE), SCALE, Inherited,
        "sweep threads (default: PUD_THREADS, else all cores); same output at any count");
    FAULT_SEED("--fault-seed", Uint(U64), SCALE, Inherited,
        "seeded chip-fault injection (default: PUD_FAULT_SEED, else off)");
    MAX_RETRIES("--max-retries", Uint(U32), SCALE, Inherited,
        "transient-failure retries per chip before it is quarantined (default 3)");
    FLEET("--fleet", Fleet, SCALE, Inherited,
        "chip roster: per-family sample (default), the paper's 316 chips, or n synthetic chips");
    PAGE_CHIPS("--page-chips", Switch, SCALE, Local,
        "drop each chip's state after its unit, bounding peak RSS (workers always page)");
    FAULT_WORKER_ABORT("--fault-worker-abort", Permille, RUN, Inherited,
        "seeded shard-worker faults: a worker aborts as it starts a unit (--shards only)");
    FAULT_WORKER_HANG("--fault-worker-hang", Permille, RUN, Inherited,
        "seeded shard-worker faults: a worker wedges as it starts a unit (--shards only)");
    FAULT_STORAGE("--fault-storage", Permille, RUN, Inherited,
        "seeded checkpoint-append faults: short write, full disk or flipped bit");
    DEADLINE("--deadline", Seconds, RUN, Inherited,
        "cancel the campaign after this much wall-clock time");
    MEM_STATS("--mem-stats", Switch, RUN, Inherited,
        "print the peak resident-set size to stderr after the run");
    METRICS("--metrics", Switch, &[Campaign, Serve], Local,
        "print the metrics registry to stderr after the run");
    QUIET("--quiet", Switch, RUN, Local, "suppress the result tables");
    TRACE_OUT("--trace-out", Path, RUN, Local,
        "stream every DRAM command-stream event to the file as JSON lines");
    PROFILE_OUT("--profile-out", Path, RUN, Local,
        "write the profiler's call tree to the file as folded stacks");
    PROGRESS("--progress", Switch, RUN, Local,
        "live campaign telemetry on stderr every 500 ms (also PUD_PROGRESS=1)");
    CHECKPOINT("--checkpoint", Path, RUN, Local,
        "record completed units in the file and resume from it");
    DEADLINE_UNITS("--deadline-units", Positive(U64), RUN, Local,
        "cancel the campaign after this many completed units");
    STRICT("--strict", Switch, RUN, Local,
        "map quarantine, deadline, failed shard and interrupt to exit codes");
    SHARDS("--shards", Positive(U32), RUN, Local,
        "split the campaign by chip range across this many worker processes");
    MAX_RESPAWNS("--max-respawns", Uint(U32), RUN, Local,
        "respawns of a crashed shard worker before its shard fails (default 2)");
    HEARTBEAT_TIMEOUT("--heartbeat-timeout", Seconds, RUN, Local,
        "kill and respawn a shard worker that shows no progress this long (default 30)");
    SHARD_WORKER("--shard-worker", Slot, RUN, Internal,
        "measure one shard's chip range, speaking the wire protocol on stdout");
    WORKER_ATTEMPT("--worker-attempt", Uint(U32), RUN, Internal,
        "the coordinator's respawn counter; respawns run with process faults off");
    REPAIR("--repair", Switch, &[Fsck], Local,
        "truncate tail damage and remove stale commit staging files");
    STORE("--store", Path, SERVE, Local, "the profile store (required)");
    LISTEN("--listen", Addr, SERVE, Local, "address to listen on (default 127.0.0.1:0)");
    SERVE_WORKERS("--serve-workers", Positive(USIZE), SERVE, Local,
        "compute worker threads (default 2)");
    QUEUE_DEPTH("--queue-depth", Uint(USIZE), SERVE, Local,
        "admission queue capacity; a full queue sheds (default 64)");
    DRAIN_DEADLINE("--drain-deadline", Seconds, SERVE, Local,
        "how long shutdown waits for in-flight requests (default 5)");
    SIM_BUDGET("--sim-budget", Uint(U64), SERVE, Local,
        "simulations before the server answers cache hits only (default unlimited)");
    MAX_WAIT("--max-wait", Seconds, SERVE, Local,
        "longest a deadline-less request waits for its verdict (default 60)");
    IDLE_TIMEOUT("--idle-timeout", Seconds, SERVE, Local,
        "close a connection that completes no frame this long (default 30)");
    CONNECT("--connect", Addr, QUERY, Local, "ask the server at this address");
    LOCAL("--local", Switch, QUERY, Local,
        "compute the key in-process through the same resolve path");
    DEADLINE_MS("--deadline-ms", Uint(U64), QUERY, Local,
        "per-request deadline in milliseconds (default 0: none)");
    TIMEOUT("--timeout", Seconds, QUERY, Local,
        "how long the client waits for a response (default 30)");
    REPEAT("--repeat", Positive(U64), QUERY, Local,
        "send the query this many times; chaos connections with --fault-client (default 1)");
    FAULT_CLIENT("--fault-client", Seed, QUERY, Local,
        "seeded chaos client: misbehaving connections, then one healthy probe");
    FAULT_CLIENT_PERMILLE("--fault-client-permille", Permille, QUERY, Local,
        "share of chaos connections that misbehave (default 700)");
}

/// One subcommand's parsed command line.
#[derive(Debug)]
pub struct Args {
    /// The positional argument: the target, the checkpoint, or the key.
    pub positional: Option<String>,
    /// Every flag given, in command-line order, with its raw value token.
    given: Vec<(&'static Flag, String, Value)>,
}

impl Args {
    /// Parses `args` against the flags `sub` accepts. A repeated flag's
    /// last value wins.
    pub fn parse(sub: Sub, args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            positional: None,
            given: Vec::new(),
        };
        let takes_positional = sub.synopsis().1.is_some();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                if parsed.positional.is_some() || !takes_positional {
                    return Err(format!("unexpected extra argument: {arg}"));
                }
                parsed.positional = Some(arg.clone());
                continue;
            }
            let Some(flag) = FLAGS
                .iter()
                .find(|f| f.name == arg.as_str() && f.subs.contains(&sub))
            else {
                let what = if sub == Fsck { "fsck flag" } else { "flag" };
                return Err(format!("unknown {what}: {arg}"));
            };
            let (raw, value) = match flag.kind {
                Switch => (String::new(), Value::Switch),
                kind => {
                    let raw = it.next();
                    let value = raw.and_then(|raw| kind.parse(raw));
                    let (Some(raw), Some(value)) = (raw, value) else {
                        return Err(format!("{} requires {}", flag.name, kind.describe().0));
                    };
                    (raw.clone(), value)
                }
            };
            parsed.given.push((flag, raw, value));
        }
        Ok(parsed)
    }

    fn get(&self, flag: &Flag) -> Option<(&str, Value)> {
        self.given
            .iter()
            .rev()
            .find(|(f, ..)| f.name == flag.name)
            .map(|(_, raw, value)| (raw.as_str(), *value))
    }

    /// Whether the switch was given.
    pub fn on(&self, flag: &Flag) -> bool {
        self.get(flag).is_some()
    }

    /// A path or address flag's value.
    pub fn text(&self, flag: &Flag) -> Option<&str> {
        self.get(flag).map(|(raw, _)| raw)
    }

    /// An integer flag's value, in the type its kind's bound fits.
    pub fn uint<T: TryFrom<u64>>(&self, flag: &Flag) -> Option<T> {
        self.get(flag).map(|(_, value)| match value {
            Value::Uint(n) => T::try_from(n)
                .ok()
                .expect("the flag's kind bounds the value"),
            _ => wrong_kind(flag),
        })
    }

    pub fn seconds(&self, flag: &Flag) -> Option<Duration> {
        self.get(flag).map(|(_, value)| match value {
            Value::Seconds(d) => d,
            _ => wrong_kind(flag),
        })
    }

    pub fn roster(&self) -> Option<Roster> {
        self.get(&FLEET).map(|(_, value)| match value {
            Value::Fleet(roster) => roster,
            _ => wrong_kind(&FLEET),
        })
    }

    /// The hidden shard-worker slot `(index, count)`.
    pub fn shard_worker(&self) -> Option<(u32, u32)> {
        self.get(&SHARD_WORKER).map(|(_, value)| match value {
            Value::Slot(index, count) => (index, count),
            _ => wrong_kind(&SHARD_WORKER),
        })
    }

    /// The inherited flags given here, as a shard worker's arguments: in
    /// table order, each once, with the token the user gave.
    pub fn inherited(&self) -> Vec<String> {
        let mut out = Vec::new();
        for flag in FLAGS.iter().filter(|f| f.role == Role::Inherited) {
            if let Some((raw, value)) = self.get(flag) {
                out.push(flag.name.to_string());
                if value != Value::Switch {
                    out.push(raw.to_string());
                }
            }
        }
        out
    }
}

fn wrong_kind(flag: &Flag) -> ! {
    panic!("{} is a {:?} flag", flag.name, flag.kind)
}

/// The usage text: one synopsis line per subcommand, one help line per
/// flag, the targets, and the exit codes.
pub fn usage() -> String {
    let visible = || FLAGS.iter().filter(|f| f.role != Role::Internal);
    let mut out = String::new();
    for (i, sub) in [Campaign, Fsck, Serve, Query].into_iter().enumerate() {
        let (command, positional) = sub.synopsis();
        out.push_str(if i == 0 { "usage: " } else { "       " });
        out.push_str(command);
        if let Some(positional) = positional {
            let _ = write!(out, " {positional}");
        }
        for flag in visible().filter(|f| f.subs.contains(&sub)) {
            let _ = write!(out, " [{}]", flag.synopsis());
        }
        out.push('\n');
    }
    out.push_str("flags:\n");
    for flag in visible() {
        let _ = writeln!(out, "  {:<34} {}", flag.synopsis(), flag.help);
    }
    let names: Vec<&str> = TARGETS.iter().map(|t| t.name()).collect();
    let _ = writeln!(out, "targets: {}", names.join(", "));
    out.push_str(
        "exit codes: 0 clean; 1 usage, I/O, or checkpoint write failure; \
         10 chip(s) quarantined; 20 deadline expired; 25 failed shard \
         (respawn budget exhausted); 30 interrupted; 40 fsck damage remains\n",
    );
    out
}

/// Reports a usage error: the message, then the usage text; exit 1.
pub fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    eprint!("{}", usage());
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(sub: Sub, args: &[&str]) -> Result<Args, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Args::parse(sub, &args)
    }

    #[test]
    fn flag_names_are_unique() {
        for (i, a) in FLAGS.iter().enumerate() {
            assert!(a.name.starts_with("--"), "{}", a.name);
            assert!(
                FLAGS[i + 1..].iter().all(|b| b.name != a.name),
                "{} is declared twice",
                a.name
            );
        }
    }

    #[test]
    fn every_visible_flag_has_a_help_line() {
        let text = usage();
        for flag in FLAGS.iter().filter(|f| f.role != Role::Internal) {
            assert!(
                text.contains(&format!("  {} ", flag.synopsis())),
                "{}",
                flag.name
            );
        }
        assert!(!text.contains(SHARD_WORKER.name));
        assert!(!text.contains(WORKER_ATTEMPT.name));
    }

    #[test]
    fn seconds_reject_what_a_duration_cannot_hold() {
        for bad in ["0", "-1", "inf", "NaN", "1e30", "x"] {
            assert_eq!(Seconds.parse(bad), None, "{bad}");
        }
        assert_eq!(
            Seconds.parse("0.5"),
            Some(Value::Seconds(Duration::from_millis(500)))
        );
    }

    #[test]
    fn integer_kinds_enforce_their_bounds() {
        assert_eq!(Uint(U32).parse("4294967296"), None);
        assert_eq!(Uint(U32).parse("4294967295"), Some(Value::Uint(U32)));
        assert_eq!(Positive(U64).parse("0"), None);
        assert_eq!(Permille.parse("1000"), Some(Value::Uint(1000)));
        assert_eq!(Permille.parse("1001"), None);
        assert_eq!(Slot.parse("1/2"), Some(Value::Slot(1, 2)));
        assert_eq!(Slot.parse("2/2"), None);
    }

    #[test]
    fn the_last_repeated_value_wins_and_is_inherited_once() {
        let args = parse(Campaign, &["table2", "--threads", "2", "--threads", "3"]).unwrap();
        assert_eq!(args.uint::<usize>(&THREADS), Some(3));
        assert_eq!(args.inherited(), ["--threads", "3"]);
    }
}
