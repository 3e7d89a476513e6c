//! Characterization-as-a-service: the long-lived query server behind
//! `repro serve` (ROADMAP item 3).
//!
//! Every answer the batch drivers can compute is, at heart, one profile
//! point: *HC_first for (family, chip, pattern class, data pattern,
//! temperature, timing)*. This module turns that shape into a served
//! artifact: a [`ProfileStore`] (a durable [`CheckpointStore`] of computed
//! points, hydrated into an in-memory cache at open) fronted by a TCP
//! server speaking the [`crate::fleet::wire`] frame protocol, with
//! on-demand simulation for misses scheduled through a bounded admission
//! queue and per-request deadline tokens.
//!
//! Robustness is the design center, not an afterthought:
//!
//! - **Admission control** — misses go through a bounded queue; a full
//!   queue sheds the request with a typed [`QueryStatus::Overloaded`]
//!   response, never a silent drop or an unbounded backlog.
//! - **Deadline propagation** — a query's `deadline_ms` becomes a
//!   [`CancelToken`] installed *thread-locally*
//!   ([`supervisor::install_local`]) in the computing worker, so the
//!   existing `poll_cancel` points inside the bisection cooperatively
//!   abandon a simulation whose client has given up — without disturbing
//!   other workers or a process-global campaign supervisor.
//! - **Retry with backoff** — an injected transient chip fault
//!   (`--fault-seed`) is retried on the *same* chip (the fault clock
//!   carries, exactly like sweep retries), so the returned value is
//!   byte-identical to a fault-free computation; permanent faults return
//!   [`QueryStatus::Unavailable`].
//! - **Graceful degradation** — when the simulation budget is exhausted or
//!   the worker pool is lost, cache hits keep answering and misses get an
//!   explicit [`QueryStatus::Degraded`] verdict instead of a stall.
//! - **Drain on shutdown** — SIGINT/SIGTERM stops accepting, answers
//!   in-flight requests under a drain deadline (past it, in-flight
//!   simulations are cancelled through their tokens), and commits the
//!   profile store through the durable checkpoint barrier before exit.
//!
//! Byte-identity: the server's compute path and `repro query --local` both
//! go through [`resolve_with_retry`], which builds a *fresh* chip per
//! computation — results never depend on request history, cache state, or
//! concurrency.

use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pud_bender::TestEnv;
use pud_dram::{profiles, Celsius, Picos};
use pud_observe::json::JsonObject;
use pud_observe::JsonValue;

use crate::experiments::{measure, DpSpec, Scale};
use crate::fleet::checkpoint::{CheckpointError, CheckpointHeader, CheckpointStore};
use crate::fleet::supervisor::{self, CancelReason, CancelToken};
use crate::fleet::sweep::{capped_backoff_ms, retry_isolated, SweepOutcome};
use crate::fleet::wire::{Frame, FrameStream, Heartbeat, QueryStatus};
use crate::fleet::{ChipUnderTest, Fleet, Roster};
use crate::hcfirst::WarmStart;
use crate::patterns::PatternClass;

/// The checkpoint stage every profile row is recorded under.
const STAGE: &str = "profile";

/// Sanity cap on the chip index in a key: chip identity is deterministic at
/// any index, but an absurd one is a malformed query, not a real chip.
const MAX_CHIP_INDEX: u32 = 1 << 14;

/// Upper bound on a key's aggressor on-time: the refresh window tREFW.
const MAX_AGGON_PS: u64 = pud_disturb::calib::T_REFW_NS as u64 * 1_000;

/// Base real-time backoff between transient-fault retry attempts.
const RETRY_BACKOFF_MS: u64 = 2;

/// Upper bound on one transient-fault retry sleep.
const RETRY_BACKOFF_CAP_MS: u64 = 50;

/// Process-wide abandon latch: set when the drain deadline forces the
/// server to give up on in-flight simulations. Wired into every worker's
/// per-request token as its interrupt flag.
static ABANDON: AtomicBool = AtomicBool::new(false);

/// One point in the fleet vulnerability profile: the key a query names and
/// the store indexes by. The canonical text form is `;`-separated
/// `key=value` fields with exact integer temperature (centi-Celsius) and
/// timing (picoseconds) so no float formatting ambiguity can split the
/// cache:
///
/// ```text
/// family=SK Hynix-A-4Gb;chip=0;pattern=rh-ds;dp=0x55;temp_cc=8000;aggon_ps=0
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileKey {
    /// Module family key ([`pud_dram::profiles::ModuleProfile::key`]).
    pub family: String,
    /// Chip index within the family.
    pub chip: u32,
    /// Hammering-pattern class.
    pub pattern: PatternClass,
    /// Aggressor data pattern (or the WCDP search).
    pub dp: DpSpec,
    /// Test temperature in centi-Celsius (8000 = the paper's 80 °C).
    pub temp_cc: u32,
    /// Aggressor on-time override in picoseconds; 0 keeps the kernel's
    /// nominal tRAS-coupled on-time.
    pub aggon_ps: u64,
}

impl ProfileKey {
    /// Parses the `;`-separated `key=value` text form. `family`, `chip`,
    /// and `pattern` are required; `dp` defaults to the class's
    /// [`PatternClass::default_dp`] (0x00 for SiMRA, 0x55 otherwise),
    /// `temp_cc` to 8000, and `aggon_ps` to 0. `aggon_ps` is bounded by the
    /// refresh window tREFW (64 ms): past it the disturbance model leaves
    /// its calibrated range and the values stop being monotone.
    pub fn parse(text: &str) -> Result<ProfileKey, String> {
        let mut family: Option<String> = None;
        let mut chip: Option<u32> = None;
        let mut pattern: Option<PatternClass> = None;
        let mut dp: Option<DpSpec> = None;
        let mut temp_cc: u32 = 8000;
        let mut aggon_ps: u64 = 0;
        for field in text.split(';') {
            let field = field.trim();
            if field.is_empty() {
                continue;
            }
            let Some((k, v)) = field.split_once('=') else {
                return Err(format!("field {field:?} is not key=value"));
            };
            match k {
                "family" => family = Some(v.to_string()),
                "chip" => {
                    chip = Some(
                        v.parse::<u32>()
                            .ok()
                            .filter(|&c| c < MAX_CHIP_INDEX)
                            .ok_or_else(|| format!("chip must be an integer < {MAX_CHIP_INDEX}"))?,
                    );
                }
                "pattern" => pattern = Some(PatternClass::parse(v)?),
                "dp" => dp = Some(DpSpec::parse(v)?),
                "temp_cc" => {
                    temp_cc = v
                        .parse::<u32>()
                        .ok()
                        .filter(|&t| (0..=20_000).contains(&t))
                        .ok_or_else(|| "temp_cc must be an integer in 0..=20000".to_string())?;
                }
                "aggon_ps" => {
                    aggon_ps = v
                        .parse::<u64>()
                        .ok()
                        .filter(|&t| t <= MAX_AGGON_PS)
                        .ok_or_else(|| {
                            format!("aggon_ps must be an integer in 0..={MAX_AGGON_PS}")
                        })?;
                }
                other => return Err(format!("unknown key field {other:?}")),
            }
        }
        let family = family.ok_or("missing field family")?;
        if !profiles::TESTED_MODULES.iter().any(|p| p.key() == family) {
            return Err(format!("unknown module family {family:?}"));
        }
        let chip = chip.ok_or("missing field chip")?;
        let pattern = pattern.ok_or("missing field pattern")?;
        let dp = dp.unwrap_or(DpSpec::Fixed(pattern.default_dp()));
        Ok(ProfileKey {
            family,
            chip,
            pattern,
            dp,
            temp_cc,
            aggon_ps,
        })
    }

    /// The canonical text form: fixed field order, every field explicit.
    /// Two queries naming the same point always canonicalize identically —
    /// this string is the store key.
    pub fn canonical(&self) -> String {
        format!(
            "family={};chip={};pattern={};dp={};temp_cc={};aggon_ps={}",
            self.family,
            self.chip,
            self.pattern.canonical(),
            self.dp.canonical(),
            self.temp_cc,
            self.aggon_ps,
        )
    }
}

/// The typed outcome of resolving one profile key — what becomes a
/// [`Frame::Response`] on the wire, and what `repro query --local` prints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolution {
    /// The verdict.
    pub status: QueryStatus,
    /// Whether the value came from the profile store.
    pub cached: bool,
    /// The rendered profile value (empty unless `Ok`).
    pub value: String,
    /// Human-readable detail for non-`Ok` verdicts.
    pub detail: String,
    /// Transient-fault retries spent computing.
    pub retries: u32,
}

impl Resolution {
    fn ok(value: String, retries: u32) -> Resolution {
        Resolution {
            status: QueryStatus::Ok,
            cached: false,
            value,
            detail: String::new(),
            retries,
        }
    }

    /// A verdict without a value: `status` with its human-readable detail.
    pub fn verdict(status: QueryStatus, detail: impl Into<String>) -> Resolution {
        Resolution {
            status,
            cached: false,
            value: String::new(),
            detail: detail.into(),
            retries: 0,
        }
    }

    /// Renders this resolution as the response frame for query `id`.
    pub fn response(&self, id: u64) -> Frame {
        Frame::Response {
            id,
            status: self.status,
            cached: self.cached,
            value: self.value.clone(),
            detail: self.detail.clone(),
        }
    }
}

/// Builds the chip a key names, fresh (no history). The chip is identical
/// to the same `(family, chip_index)` slot of any fleet built from
/// `scale.fleet` — chip state derives from the fleet seed and identity
/// alone, never from fleet shape — so served values are byte-identical to
/// driver-computed ones.
fn build_chip(scale: &Scale, key: &ProfileKey) -> Result<ChipUnderTest, String> {
    let mut cfg = scale.fleet;
    cfg.roster = Roster::PerFamily;
    cfg.chips_per_family = key.chip + 1;
    let family = key.family.clone();
    let fleet = Fleet::build_filtered(cfg, move |p| p.key() == family);
    fleet
        .chips
        .into_iter()
        .find(|c| c.chip_index == key.chip)
        .ok_or_else(|| format!("unknown module family {:?}", key.family))
}

/// One measurement attempt: builds nothing, retries nothing — panics with
/// a typed `ExecError` on an injected chip fault and unwinds with
/// [`Cancelled`](crate::fleet::supervisor::Cancelled) past an expired
/// deadline, exactly like a sweep unit.
fn measure_key(
    scale: &Scale,
    key: &ProfileKey,
    chip: &mut ChipUnderTest,
) -> Result<String, String> {
    chip.set_env(
        TestEnv::characterization().at_temperature(Celsius(f64::from(key.temp_cc) / 100.0)),
    );
    let (kernel, victim) = key.pattern.target(chip)?;
    let kernel = if key.aggon_ps > 0 {
        kernel.with_t_aggon(Picos(key.aggon_ps))
    } else {
        kernel
    };
    let (hc, dp) = measure(scale, chip, &kernel, victim, key.dp, &mut WarmStart::new());
    let hc = hc.map_or("none".to_string(), |n| n.to_string());
    Ok(match key.dp {
        DpSpec::Wcdp => format!("victim={} wcdp=0x{:02x} hc_first={hc}", victim.0, dp.0),
        DpSpec::Fixed(_) => format!("victim={} hc_first={hc}", victim.0),
    })
}

/// Resolves a profile key by on-demand simulation: fresh chip, transient
/// faults retried with backoff on the *same* chip (the fault clock
/// carries, so the returned value equals the fault-free one), typed
/// verdicts for everything else. This is the single compute path shared by
/// the server's workers and `repro query --local`; it measures through
/// the drivers' [`measure`] and isolates through the sweeps' retry core.
///
/// Cancellation comes from whatever supervisor token is installed (the
/// server installs a per-request one thread-locally): a deadline unwind
/// resolves to [`QueryStatus::Expired`], an interrupt unwind (the drain
/// abandon latch) to [`QueryStatus::Unavailable`].
pub fn resolve_with_retry(scale: &Scale, key: &ProfileKey) -> Resolution {
    let mut chip = match build_chip(scale, key) {
        Ok(chip) => chip,
        Err(detail) => return Resolution::verdict(QueryStatus::BadRequest, detail),
    };
    let (outcome, retries) = retry_isolated(
        scale.max_retries,
        || measure_key(scale, key, &mut chip),
        |n| {
            pud_observe::counter("serve.retries").incr();
            std::thread::sleep(Duration::from_millis(capped_backoff_ms(
                RETRY_BACKOFF_MS,
                RETRY_BACKOFF_CAP_MS,
                n - 1,
            )));
        },
    );
    match outcome {
        SweepOutcome::Done(Ok(value)) => Resolution::ok(value, retries),
        SweepOutcome::Done(Err(detail)) => Resolution::verdict(QueryStatus::BadRequest, detail),
        SweepOutcome::Cancelled(CancelReason::DeadlineExpired) => {
            Resolution::verdict(QueryStatus::Expired, "deadline expired during simulation")
        }
        SweepOutcome::Cancelled(CancelReason::Interrupted) => Resolution::verdict(
            QueryStatus::Unavailable,
            "simulation abandoned by shutdown drain",
        ),
        SweepOutcome::Quarantined(e) => Resolution::verdict(
            QueryStatus::Unavailable,
            format!("simulation failed: {}", e.message),
        ),
        SweepOutcome::Skipped(_) => unreachable!("the retry core never skips"),
    }
}

/// The durable profile store: a [`CheckpointStore`] (stage `profile`, chip
/// column = the canonical key text) hydrated into an in-memory map at
/// open. Lookups are answered from the map; inserts write through to the
/// append log immediately (surviving kill -9 after the line flush) and
/// become commit-barrier-durable at the next [`ProfileStore::commit`].
pub struct ProfileStore {
    store: CheckpointStore,
    cache: Mutex<HashMap<String, String>>,
}

impl ProfileStore {
    /// Opens (or creates) the store at `path`, verifying its header
    /// against the serving fleet's fingerprint — a store computed against
    /// a differently-shaped fleet is rejected, exactly like a checkpoint
    /// resume. A salvageably-damaged file self-heals at open (tail rows
    /// are dropped and re-computed on demand).
    pub fn open(
        path: &Path,
        scale: &Scale,
        scale_label: &str,
    ) -> Result<ProfileStore, CheckpointError> {
        let header = CheckpointHeader {
            target: "serve".to_string(),
            scale: scale_label.to_string(),
            fingerprint: scale.fleet.fingerprint(),
            fault_seed: scale.fleet.fault.map(|f| f.seed),
            shard: None,
        };
        let store = CheckpointStore::open(path, header)?;
        let mut cache = HashMap::new();
        for (stage, key, data) in store.sorted_rows() {
            if stage != STAGE {
                continue;
            }
            if let Some(value) = data.get("v").and_then(JsonValue::as_str) {
                cache.insert(key.to_string(), value.to_string());
            }
        }
        Ok(ProfileStore {
            store,
            cache: Mutex::new(cache),
        })
    }

    /// The cached value for a canonical key, if this point was ever
    /// computed (this run or any previous one).
    pub fn hit(&self, canonical: &str) -> Option<String> {
        self.cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(canonical)
            .cloned()
    }

    /// Records a computed value: visible to subsequent lookups immediately,
    /// appended (write+flush) to the log, committed at the next barrier.
    pub fn insert(&self, canonical: &str, value: &str) {
        self.cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(canonical.to_string(), value.to_string());
        self.store.record(
            STAGE,
            canonical,
            &JsonObject::new().str("v", value).finish(),
        );
    }

    /// Number of cached profile points.
    pub fn len(&self) -> usize {
        self.cache.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the store holds no points yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs the durable commit barrier (temp file + fsync + rename).
    pub fn commit(&self) {
        self.store.commit();
    }

    /// Takes the latched write error, if appending or committing failed.
    pub fn take_write_error(&self) -> Option<crate::fleet::checkpoint::WriteFailure> {
        self.store.take_write_error()
    }
}

/// One admitted compute job.
struct Job {
    key: ProfileKey,
    canonical: String,
    deadline: Option<Instant>,
    reply: mpsc::Sender<Resolution>,
}

enum Popped {
    Job(Box<Job>),
    Empty,
    Closed,
}

/// The bounded admission queue: `submit` never blocks (a full or closed
/// queue rejects, which the caller turns into a typed shed), `pop` blocks
/// with a timeout so workers notice shutdown.
struct Admission {
    inner: Mutex<(VecDeque<Box<Job>>, bool)>,
    cond: Condvar,
    capacity: usize,
}

impl Admission {
    fn new(capacity: usize) -> Admission {
        Admission {
            inner: Mutex::new((VecDeque::new(), false)),
            cond: Condvar::new(),
            capacity,
        }
    }

    /// Admits a job, or returns it when the queue is full (shed as
    /// `Overloaded`) or closed (shed as `Unavailable` — the server is
    /// draining).
    fn submit(&self, job: Box<Job>) -> Result<(), Box<Job>> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.1 || inner.0.len() >= self.capacity {
            return Err(job);
        }
        inner.0.push_back(job);
        self.cond.notify_one();
        Ok(())
    }

    fn pop(&self, timeout: Duration) -> Popped {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let (mut inner, _) = self
            .cond
            .wait_timeout_while(inner, timeout, |(q, closed)| q.is_empty() && !*closed)
            .unwrap_or_else(|e| e.into_inner());
        match inner.0.pop_front() {
            Some(job) => Popped::Job(job),
            None if inner.1 => Popped::Closed,
            None => Popped::Empty,
        }
    }

    /// Closes admission: queued jobs still drain, new submissions reject.
    fn close(&self) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).1 = true;
        self.cond.notify_all();
    }

    fn is_empty(&self) -> bool {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .0
            .is_empty()
    }
}

/// Configuration of one [`run`] invocation.
pub struct ServeConfig {
    /// Experiment scale for on-demand computation (fleet seed, search
    /// parameters, fault injection, retry budget).
    pub scale: Scale,
    /// Scale label recorded in the store header (`quick` / `full`).
    pub scale_label: String,
    /// Profile store path.
    pub store_path: std::path::PathBuf,
    /// Listen address (`host:port`; port 0 picks a free one — the bound
    /// address is printed as `serve: listening on <addr>`).
    pub listen: String,
    /// Compute worker threads.
    pub workers: usize,
    /// Admission queue capacity; a full queue sheds with `Overloaded`.
    /// Capacity 0 sheds every miss — a cache-only server.
    pub queue_depth: usize,
    /// How long a shutdown waits for in-flight requests before cancelling
    /// the remaining simulations.
    pub drain_deadline: Duration,
    /// On-demand simulation budget: past this many computations the server
    /// degrades (cache hits only). `None` is unlimited.
    pub sim_budget: Option<u64>,
    /// Upper bound a connection handler waits for a compute verdict
    /// (deadline-less requests): past it the client gets `Expired`.
    pub max_wait: Duration,
    /// Idle-connection timeout (slow-loris guard): a connection that
    /// completes no frame this long is closed.
    pub idle_timeout: Duration,
    /// The external interrupt flag (SIGINT/SIGTERM latch) that triggers
    /// the drain.
    pub interrupt: &'static AtomicBool,
}

impl ServeConfig {
    /// Defaults for `scale` at `store_path`, listening on an ephemeral
    /// port, draining against `interrupt`.
    pub fn new(
        scale: Scale,
        store_path: std::path::PathBuf,
        interrupt: &'static AtomicBool,
    ) -> ServeConfig {
        ServeConfig {
            scale,
            scale_label: "quick".to_string(),
            store_path,
            listen: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 64,
            drain_deadline: Duration::from_secs(5),
            sim_budget: None,
            max_wait: Duration::from_secs(60),
            idle_timeout: Duration::from_secs(30),
            interrupt,
        }
    }
}

/// What one [`run`] did — the numbers behind the exit-code decision and
/// the shutdown footer.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ServeSummary {
    /// Queries answered (any status).
    pub queries: u64,
    /// Answered from the profile store.
    pub cache_hits: u64,
    /// Computed on demand (successfully).
    pub computed: u64,
    /// Shed with `Overloaded`.
    pub shed: u64,
    /// Expired (client deadline or wait budget).
    pub expired: u64,
    /// Answered `Degraded` (budget exhausted / worker pool lost).
    pub degraded: u64,
    /// Answered `Unavailable`.
    pub unavailable: u64,
    /// Rejected as `BadRequest`.
    pub bad_request: u64,
    /// Profile points in the store at shutdown.
    pub store_points: u64,
    /// The drain deadline forced abandoning in-flight work.
    pub forced_abandon: bool,
    /// The store latched a write error (its content may be incomplete).
    pub write_error: Option<String>,
}

struct Counters {
    queries: AtomicU64,
    cache_hits: AtomicU64,
    computed: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    degraded: AtomicU64,
    unavailable: AtomicU64,
    bad_request: AtomicU64,
}

impl Counters {
    fn new() -> Counters {
        Counters {
            queries: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            computed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            unavailable: AtomicU64::new(0),
            bad_request: AtomicU64::new(0),
        }
    }

    fn bump(&self, status: QueryStatus, cached: bool) {
        self.queries.fetch_add(1, Ordering::SeqCst);
        pud_observe::counter("serve.queries").incr();
        let (local, global) = match status {
            QueryStatus::Ok if cached => (&self.cache_hits, "serve.cache_hits"),
            QueryStatus::Ok => (&self.computed, "serve.computed"),
            QueryStatus::Overloaded => (&self.shed, "serve.shed"),
            QueryStatus::Expired => (&self.expired, "serve.expired"),
            QueryStatus::Degraded => (&self.degraded, "serve.degraded"),
            QueryStatus::Unavailable => (&self.unavailable, "serve.unavailable"),
            QueryStatus::BadRequest => (&self.bad_request, "serve.bad_request"),
        };
        local.fetch_add(1, Ordering::SeqCst);
        pud_observe::counter(global).incr();
    }
}

struct Shared {
    scale: Scale,
    store: ProfileStore,
    admission: Admission,
    counters: Counters,
    draining: AtomicBool,
    /// Jobs popped by a worker and not yet replied.
    in_flight: AtomicUsize,
    /// Live compute workers; zero (without draining) means degraded.
    workers_alive: AtomicUsize,
    /// Simulation attempts consumed against `sim_budget`.
    sim_spent: AtomicU64,
    sim_budget: Option<u64>,
    max_wait: Duration,
    idle_timeout: Duration,
}

impl Shared {
    fn degraded(&self) -> Option<&'static str> {
        if self.workers_alive.load(Ordering::SeqCst) == 0 {
            return Some("worker pool lost");
        }
        if let Some(budget) = self.sim_budget {
            if self.sim_spent.load(Ordering::SeqCst) >= budget {
                return Some("simulation budget exhausted");
            }
        }
        None
    }
}

/// Decrements a counter on drop — keeps `in_flight`/connection accounting
/// exact even across unwinds.
struct CountGuard<'a>(&'a AtomicUsize);

impl Drop for CountGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn worker_loop(shared: &Shared) {
    let _alive = CountGuard(&shared.workers_alive);
    loop {
        match shared.admission.pop(Duration::from_millis(100)) {
            Popped::Closed => return,
            Popped::Empty => continue,
            Popped::Job(job) => {
                shared.in_flight.fetch_add(1, Ordering::SeqCst);
                let _in_flight = CountGuard(&shared.in_flight);
                let resolution = serve_job(shared, &job);
                // A gone client (handler timed out and closed) is fine —
                // the verdict is simply dropped with it.
                let _ = job.reply.send(resolution);
            }
        }
    }
}

fn serve_job(shared: &Shared, job: &Job) -> Resolution {
    // Another worker may have computed the same point while this job
    // queued; a second computation would return the identical bytes, so
    // answering from the store is both correct and cheaper.
    if let Some(value) = shared.store.hit(&job.canonical) {
        return Resolution {
            cached: true,
            ..Resolution::ok(value, 0)
        };
    }
    if ABANDON.load(Ordering::SeqCst) {
        return Resolution::verdict(
            QueryStatus::Unavailable,
            "simulation abandoned by shutdown drain",
        );
    }
    let remaining = match job.deadline {
        Some(deadline) => {
            let now = Instant::now();
            if now >= deadline {
                return Resolution::verdict(QueryStatus::Expired, "deadline expired while queued");
            }
            Some(deadline - now)
        }
        None => None,
    };
    // Reserve one unit of simulation budget; refusal degrades.
    if let Some(budget) = shared.sim_budget {
        let reserved = shared
            .sim_spent
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |spent| {
                (spent < budget).then_some(spent + 1)
            });
        if reserved.is_err() {
            return Resolution::verdict(QueryStatus::Degraded, "simulation budget exhausted");
        }
    }
    // The per-request token: the client's deadline plus the process-wide
    // abandon latch, installed thread-locally so concurrent workers never
    // stomp each other (or a process-global campaign supervisor).
    let mut token = CancelToken::new().with_interrupt_flag(&ABANDON);
    if let Some(remaining) = remaining {
        token = token.with_deadline(remaining);
    }
    let _guard = supervisor::install_local(token);
    let resolution = resolve_with_retry(&shared.scale, &job.key);
    if resolution.status == QueryStatus::Ok {
        shared.store.insert(&job.canonical, &resolution.value);
    }
    resolution
}

fn answer(shared: &Shared, key_text: &str, deadline_ms: u64) -> Resolution {
    let _span = pud_observe::span("serve.request_ns");
    let key = match ProfileKey::parse(key_text) {
        Ok(key) => key,
        Err(detail) => return Resolution::verdict(QueryStatus::BadRequest, detail),
    };
    let canonical = key.canonical();
    // Cache hits answer inline on the connection thread: they never queue,
    // never consume simulation budget, and keep working while degraded or
    // draining.
    if let Some(value) = shared.store.hit(&canonical) {
        return Resolution {
            cached: true,
            ..Resolution::ok(value, 0)
        };
    }
    if shared.draining.load(Ordering::SeqCst) {
        return Resolution::verdict(QueryStatus::Unavailable, "server draining");
    }
    if let Some(why) = shared.degraded() {
        return Resolution::verdict(QueryStatus::Degraded, why);
    }
    let deadline = (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms));
    let (reply, verdict) = mpsc::channel();
    let job = Box::new(Job {
        key,
        canonical,
        deadline,
        reply,
    });
    if shared.admission.submit(job).is_err() {
        let status = if shared.draining.load(Ordering::SeqCst) {
            // close() raced the drain check above.
            return Resolution::verdict(QueryStatus::Unavailable, "server draining");
        } else {
            QueryStatus::Overloaded
        };
        return Resolution::verdict(status, "admission queue full; retry later");
    }
    // Wait bounded: the client deadline (plus grace so the worker's own
    // Expired verdict wins the race), capped by the handler budget. Never
    // indefinite.
    let wait = match deadline {
        Some(d) => (d.saturating_duration_since(Instant::now()) + Duration::from_millis(250))
            .min(shared.max_wait),
        None => shared.max_wait,
    };
    match verdict.recv_timeout(wait) {
        Ok(resolution) => resolution,
        Err(mpsc::RecvTimeoutError::Timeout) => Resolution::verdict(
            QueryStatus::Expired,
            "no verdict within the handler wait budget",
        ),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            Resolution::verdict(QueryStatus::Unavailable, "worker pool lost")
        }
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    // A frame is several small writes; leaving Nagle on turns every cache
    // hit into a delayed-ACK round trip (~40 ms each way).
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let frames = FrameStream::spawn(read_half);
    let mut writer = &stream;
    let mut last_activity = Instant::now();
    loop {
        if ABANDON.load(Ordering::SeqCst) {
            break;
        }
        match frames.next_within(Duration::from_millis(200)) {
            None => {
                if shared.draining.load(Ordering::SeqCst) {
                    break;
                }
                if last_activity.elapsed() >= shared.idle_timeout {
                    // Slow-loris guard: a connection making no frame
                    // progress is closed, freeing its handler thread.
                    break;
                }
            }
            Some(Heartbeat::Frame(Frame::Query {
                id,
                key,
                deadline_ms,
            })) => {
                last_activity = Instant::now();
                let resolution = answer(shared, &key, deadline_ms);
                shared.counters.bump(resolution.status, resolution.cached);
                if resolution.response(id).write_to(&mut writer).is_err() {
                    break;
                }
            }
            Some(Heartbeat::Frame(_)) => {
                // Coordinator-protocol frames have no business here: a
                // typed rejection, then hang up.
                let _ = Resolution::verdict(QueryStatus::BadRequest, "unexpected frame type")
                    .response(0)
                    .write_to(&mut writer);
                break;
            }
            Some(Heartbeat::Eof) => break,
            Some(Heartbeat::Err(e)) => {
                // Malformed framing (bad length word, junk payload, torn
                // frame): reply typed if the socket still works, close
                // either way. The offending byte offset is in `e`.
                let _ = Resolution::verdict(QueryStatus::BadRequest, e.to_string())
                    .response(0)
                    .write_to(&mut writer);
                break;
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Runs the query server until `config.interrupt` latches, then drains and
/// commits the store. Returns the summary (the caller maps it to exit
/// codes); `Err` only for startup failures (store open, bind).
///
/// Prints exactly one line to stdout before serving:
/// `serve: listening on <addr>` — machine-readable so tests and CI can
/// bind port 0 and discover the real address.
pub fn run(config: ServeConfig) -> Result<ServeSummary, String> {
    ABANDON.store(false, Ordering::SeqCst);
    let store = ProfileStore::open(&config.store_path, &config.scale, &config.scale_label)
        .map_err(|e| {
            format!(
                "cannot open profile store {}: {e}",
                config.store_path.display()
            )
        })?;
    let preloaded = store.len();
    let listener = TcpListener::bind(&config.listen)
        .map_err(|e| format!("cannot bind {}: {e}", config.listen))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot read bound address: {e}"))?;
    println!("serve: listening on {local}");
    let _ = std::io::stdout().flush();
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot set listener non-blocking: {e}"))?;
    eprintln!(
        "serve: profile store {} ({preloaded} point(s) preloaded)",
        config.store_path.display()
    );

    let shared = Arc::new(Shared {
        scale: config.scale,
        store,
        admission: Admission::new(config.queue_depth),
        counters: Counters::new(),
        draining: AtomicBool::new(false),
        in_flight: AtomicUsize::new(0),
        workers_alive: AtomicUsize::new(0),
        sim_spent: AtomicU64::new(0),
        sim_budget: config.sim_budget,
        max_wait: config.max_wait,
        idle_timeout: config.idle_timeout,
    });
    let mut workers = Vec::new();
    for i in 0..config.workers.max(1) {
        let shared = Arc::clone(&shared);
        shared.workers_alive.fetch_add(1, Ordering::SeqCst);
        workers.push(
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .map_err(|e| format!("cannot spawn worker: {e}"))?,
        );
    }
    let active_conns = Arc::new(AtomicUsize::new(0));
    loop {
        if config.interrupt.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                pud_observe::counter("serve.accepted").incr();
                let shared = Arc::clone(&shared);
                let conns = Arc::clone(&active_conns);
                conns.fetch_add(1, Ordering::SeqCst);
                let spawned = std::thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || {
                        let _guard = CountGuard(&conns);
                        handle_connection(&shared, stream);
                    });
                if spawned.is_err() {
                    active_conns.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => {
                eprintln!("serve: accept error: {e}");
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
    drop(listener);

    // Drain: no new admissions, queued and in-flight requests answered,
    // connections closed as they go idle — all under the drain deadline.
    eprintln!(
        "serve: draining ({} connection(s), {} in flight)",
        active_conns.load(Ordering::SeqCst),
        shared.in_flight.load(Ordering::SeqCst),
    );
    shared.draining.store(true, Ordering::SeqCst);
    shared.admission.close();
    let drain_start = Instant::now();
    let mut forced = false;
    while active_conns.load(Ordering::SeqCst) > 0
        || shared.in_flight.load(Ordering::SeqCst) > 0
        || !shared.admission.is_empty()
    {
        if drain_start.elapsed() >= config.drain_deadline {
            forced = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    if forced {
        // Past the deadline: cancel in-flight simulations through their
        // tokens and give the cancellation a short grace to land.
        eprintln!("serve: drain deadline exceeded — abandoning in-flight work");
        ABANDON.store(true, Ordering::SeqCst);
        let grace = Instant::now();
        while (active_conns.load(Ordering::SeqCst) > 0
            || shared.in_flight.load(Ordering::SeqCst) > 0)
            && grace.elapsed() < Duration::from_secs(2)
        {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    for worker in workers {
        let _ = worker.join();
    }
    // The store is the shutdown's one durable artifact: barrier-commit it
    // and surface any latched write error to the caller.
    shared.store.commit();
    let write_error = shared.store.take_write_error().map(|e| e.to_string());
    let summary = ServeSummary {
        queries: shared.counters.queries.load(Ordering::SeqCst),
        cache_hits: shared.counters.cache_hits.load(Ordering::SeqCst),
        computed: shared.counters.computed.load(Ordering::SeqCst),
        shed: shared.counters.shed.load(Ordering::SeqCst),
        expired: shared.counters.expired.load(Ordering::SeqCst),
        degraded: shared.counters.degraded.load(Ordering::SeqCst),
        unavailable: shared.counters.unavailable.load(Ordering::SeqCst),
        bad_request: shared.counters.bad_request.load(Ordering::SeqCst),
        store_points: shared.store.len() as u64,
        forced_abandon: forced,
        write_error,
    };
    eprintln!(
        "serve: {} query(ies) answered ({} cache hits, {} computed, {} shed), \
         {} point(s) committed{}",
        summary.queries,
        summary.cache_hits,
        summary.computed,
        summary.shed,
        summary.store_points,
        if summary.forced_abandon {
            " — drain forced"
        } else {
            ""
        },
    );
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pud_dram::DataPattern;

    fn quick_key(pattern: &str) -> ProfileKey {
        ProfileKey::parse(&format!("family=SK Hynix-A-4Gb;chip=0;pattern={pattern}"))
            .expect("valid key")
    }

    #[test]
    fn keys_parse_and_canonicalize_stably() {
        let key = quick_key("rh-ds");
        assert_eq!(
            key.canonical(),
            "family=SK Hynix-A-4Gb;chip=0;pattern=rh-ds;dp=0x55;temp_cc=8000;aggon_ps=0"
        );
        // Canonical text round-trips to the same key.
        let again = ProfileKey::parse(&key.canonical()).unwrap();
        assert_eq!(again, key);
        assert_eq!(again.canonical(), key.canonical());
        // Field order and whitespace do not matter; defaults fill in.
        let shuffled = ProfileKey::parse("pattern=rh-ds; family=SK Hynix-A-4Gb ;chip=0").unwrap();
        assert_eq!(shuffled.canonical(), key.canonical());
        // SiMRA defaults to the all-zeros aggressor pattern.
        let simra = quick_key("simra-4");
        assert!(matches!(simra.dp, DpSpec::Fixed(DataPattern::ZEROS)));
        // The on-time bound is inclusive: tREFW itself is a valid key.
        let refw = ProfileKey::parse(&format!("{};aggon_ps=64000000000", key.canonical()));
        assert_eq!(refw.map(|k| k.aggon_ps), Ok(64_000_000_000));
    }

    #[test]
    fn malformed_keys_are_rejected_with_reasons() {
        for (text, needle) in [
            ("", "missing field family"),
            (
                "family=No Such-Z-0Gb;chip=0;pattern=rh-ds",
                "unknown module family",
            ),
            ("family=SK Hynix-A-4Gb;pattern=rh-ds", "missing field chip"),
            ("family=SK Hynix-A-4Gb;chip=0", "missing field pattern"),
            (
                "family=SK Hynix-A-4Gb;chip=0;pattern=warp",
                "unknown pattern class",
            ),
            (
                "family=SK Hynix-A-4Gb;chip=0;pattern=simra-3",
                "unknown pattern class",
            ),
            (
                "family=SK Hynix-A-4Gb;chip=0;pattern=rh-ds;dp=0x13",
                "unknown data pattern",
            ),
            (
                "family=SK Hynix-A-4Gb;chip=0;pattern=rh-ds;temp_cc=999999",
                "temp_cc",
            ),
            (
                "family=SK Hynix-A-4Gb;chip=0;pattern=rh-ds;aggon_ps=64000000001",
                "aggon_ps must be an integer in 0..=64000000000",
            ),
            (
                "family=SK Hynix-A-4Gb;chip=0;pattern=rh-ds;bogus=1",
                "unknown key field",
            ),
            ("just words", "not key=value"),
        ] {
            let err = ProfileKey::parse(text).expect_err(text);
            assert!(err.contains(needle), "{text:?}: {err}");
        }
    }

    #[test]
    fn resolution_is_deterministic_and_fresh_per_call() {
        let scale = Scale::quick();
        let key = quick_key("rh-ds");
        let a = resolve_with_retry(&scale, &key);
        let b = resolve_with_retry(&scale, &key);
        assert_eq!(a.status, QueryStatus::Ok, "{}", a.detail);
        assert_eq!(a, b, "fresh chips must give byte-identical values");
        assert!(a.value.contains("hc_first="), "{}", a.value);
    }

    #[test]
    fn simra_on_a_non_simra_family_is_a_bad_request() {
        let scale = Scale::quick();
        let key = ProfileKey::parse("family=Samsung-C-4Gb;chip=0;pattern=simra-4")
            .expect("parses; capability is a resolve-time question");
        let r = resolve_with_retry(&scale, &key);
        assert_eq!(r.status, QueryStatus::BadRequest);
        assert!(r.detail.contains("multi-row activation"), "{}", r.detail);
    }

    #[test]
    fn transient_chip_faults_retry_to_the_fault_free_value() {
        let clean = Scale::quick();
        let key = quick_key("comra-ds");
        let reference = resolve_with_retry(&clean, &key);
        assert_eq!(reference.status, QueryStatus::Ok);
        // Seed 103 is the curated CI fault seed; crank transients to full
        // probability so this chip certainly draws one.
        let mut faulty = Scale::quick();
        faulty.fleet.fault = Some(pud_bender::fault::FaultConfig {
            seed: 103,
            transient_permille: 1000,
            permanent_permille: 0,
        });
        let retried = resolve_with_retry(&faulty, &key);
        assert_eq!(retried.status, QueryStatus::Ok, "{}", retried.detail);
        assert!(retried.retries > 0, "full transient probability must retry");
        assert_eq!(retried.value, reference.value, "retried value identical");
    }

    #[test]
    fn expired_deadline_resolves_as_expired_not_a_hang() {
        let scale = Scale::quick();
        let key = quick_key("rh-ds");
        let token = CancelToken::new().with_deadline(Duration::from_secs(0));
        let _guard = supervisor::install_local(token);
        let r = resolve_with_retry(&scale, &key);
        assert_eq!(r.status, QueryStatus::Expired, "{:?}", r);
    }

    #[test]
    fn profile_store_round_trips_across_reopen() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("pud-serve-store-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let scale = Scale::quick();
        {
            let store = ProfileStore::open(&path, &scale, "quick").expect("open fresh");
            assert!(store.is_empty());
            store.insert("k1", "victim=1 hc_first=2");
            store.insert("k2", "victim=3 hc_first=none");
            assert_eq!(store.hit("k1").as_deref(), Some("victim=1 hc_first=2"));
            store.commit();
            assert!(store.take_write_error().is_none());
        }
        {
            let store = ProfileStore::open(&path, &scale, "quick").expect("reopen");
            assert_eq!(store.len(), 2);
            assert_eq!(store.hit("k2").as_deref(), Some("victim=3 hc_first=none"));
            assert_eq!(store.hit("k3"), None);
        }
        // A differently-shaped fleet is rejected, not silently mixed.
        let mut other = Scale::quick();
        other.fleet.seed ^= 1;
        assert!(ProfileStore::open(&path, &other, "quick").is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn admission_queue_bounds_sheds_and_closes() {
        let adm = Admission::new(2);
        let job = |n: u64| {
            let (reply, _rx) = mpsc::channel();
            Box::new(Job {
                key: quick_key("rh-ds"),
                canonical: format!("k{n}"),
                deadline: None,
                reply,
            })
        };
        assert!(adm.submit(job(1)).is_ok());
        assert!(adm.submit(job(2)).is_ok());
        assert!(adm.submit(job(3)).is_err(), "capacity 2 sheds the third");
        assert!(matches!(adm.pop(Duration::from_millis(10)), Popped::Job(_)));
        assert!(adm.submit(job(4)).is_ok(), "popped slot frees capacity");
        adm.close();
        assert!(adm.submit(job(5)).is_err(), "closed queue rejects");
        // Queued jobs still drain after close; then Closed.
        assert!(matches!(adm.pop(Duration::from_millis(10)), Popped::Job(_)));
        assert!(matches!(adm.pop(Duration::from_millis(10)), Popped::Job(_)));
        assert!(matches!(adm.pop(Duration::from_millis(10)), Popped::Closed));
    }
}
