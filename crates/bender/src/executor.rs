//! Command-stream executor: compiles (possibly timing-violating) DDR4
//! command sequences, replays them against the device model, and drives
//! the disturbance engine.
//!
//! This is the reproduction's analog of the DRAM Bender FPGA: test programs
//! are executed command by command with picosecond bookkeeping, and the
//! *semantics of timing violations emerge here* — a PRE→ACT gap below the
//! violation threshold after a fully restored row performs an in-DRAM copy
//! (CoMRA), while an ACT‑PRE‑ACT burst with both delays violated activates
//! a whole SiMRA row group (on chips that support it).

use std::sync::Arc;

use pud_disturb::{
    AggressionKind, BatchStats, Bitflip, DataSummary, DisturbEngine, FlipClass, HammerEvent,
    RecordId, VictimForecast,
};
use pud_dram::{
    Bank, BankId, Chip, ChipGeometry, DataPattern, ModuleProfile, Picos, RowAddr, RowData,
};
use pud_observe::{Counter, SharedSink, TraceEvent, TraceKind};

use crate::command::DramCommand;
use crate::compile::{CompiledOp, CompiledProgram, ResolvedCmd};
use crate::env::TestEnv;
use crate::error::ExecError;
use crate::fault::{FaultConfig, FaultPlan, FaultState};
use crate::program::{Step, TestProgram};
use crate::simra_decode::simra_group_into;

/// PRE→ACT gaps below this violate `t_RP` enough to leave charge on the
/// bitlines (enabling CoMRA / SiMRA behaviour).
const TRP_VIOLATION_NS: f64 = 13.0;
/// ACT→PRE durations above this count as full charge restoration (the row
/// was open for ~`t_RAS`), turning a following violated ACT into a CoMRA
/// copy rather than a SiMRA group activation.
const CHARGE_RESTORE_NS: f64 = 30.0;
/// Same-side aggressor gaps above this indicate an extended `t_AggOFF`
/// (far double-sided pattern) rather than a tight single-sided loop.
const FAR_GAP_NS: f64 = 40.0;
/// REF commands per refresh window (DDR4: tREFW / tREFI = 64 ms / 7.8 µs).
const REFS_PER_WINDOW: f64 = 8192.0;

/// Observes bus activity, modelling in-DRAM maintenance logic (TRR).
///
/// The observer sees exactly what the chip sees: the *logical* row address
/// of each ACT command — which is why SiMRA bypasses TRR: a 32-row
/// activation presents only two addresses on the bus (§7, Observation 26).
///
/// Observers are `Send`: an executor (with its observer installed) must be
/// movable to a fleet-sweep worker thread. Observers are still driven from
/// exactly one thread at a time.
pub trait ActivityObserver: Send {
    /// Called for every ACT command.
    fn on_act(&mut self, bank: BankId, logical_row: RowAddr);
    /// Called for every REF command; appends the logical rows to
    /// preventively refresh (TRR victim refreshes) to `victims`, which the
    /// caller passes empty and owns, so a steady stream of REFs allocates
    /// nothing.
    fn on_ref(&mut self, bank_hint: BankId, victims: &mut Vec<(BankId, RowAddr)>);
}

/// One read-disturbance bitflip observed during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlipRecord {
    /// Bank of the victim row.
    pub bank: BankId,
    /// Physical address of the victim row.
    pub phys_row: RowAddr,
    /// Logical address of the victim row.
    pub logical_row: RowAddr,
    /// Flipped column.
    pub col: u32,
    /// Value the bit flipped to.
    pub to: bool,
    /// Flip class responsible.
    pub class: FlipClass,
}

/// Opaque snapshot of an executor's lifetime fault bookkeeping (plan,
/// command clock, consumed transients). Lets a paged-out chip carry its
/// fault history across executor teardown/rebuild — see
/// [`Executor::fault_carry`] / [`Executor::restore_fault_carry`].
#[derive(Debug, Clone, Default)]
pub struct FaultCarry(pub(crate) Option<FaultState>);

/// Result of executing one test program.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Bitflips produced during the run, in order of occurrence.
    pub flips: Vec<FlipRecord>,
    /// Row images captured by RD commands, in order.
    pub reads: Vec<RowData>,
    /// Wall-clock duration of the program.
    pub elapsed: Picos,
    /// ACT commands issued.
    pub acts: u64,
}

/// The closed form of one recorded trial: whether its victim flips when
/// the same single counted loop runs at any other count above 3, from the
/// same prepared device state. Built by [`Executor::try_run_forecast`],
/// answered by [`Executor::try_forecast`].
#[derive(Debug, Clone)]
pub struct LoopForecast {
    body: Vec<Step>,
    env: TestEnv,
    victim: VictimForecast,
}

/// The victim a forecast-recording run watches, and what `bulk_replay`
/// saw of it at the start of the bulk phase.
#[derive(Debug)]
struct Watch {
    bank: BankId,
    victim: RowAddr,
    at_bulk: Option<AtBulk>,
}

#[derive(Debug)]
struct AtBulk {
    /// `None` if the victim flipped during the explicit iterations or
    /// has flipped cells on record.
    forecast: Option<VictimForecast>,
    /// Every row the steady-state iteration disturbs: the rows whose
    /// data the bulk phase may flip, count-dependently.
    steady_victims: Vec<(BankId, RowAddr)>,
}

#[derive(Debug, Clone, Default)]
struct BankState {
    /// Physically open rows (sorted).
    open: Vec<RowAddr>,
    open_since: Picos,
    /// Logical address of the most recent ACT (for decode purposes).
    open_cmd_logical: Option<RowAddr>,
    last_pre: Option<Picos>,
    /// Physical + logical row of the episode closed by the last PRE, how
    /// long it was open, and the physical row's engine record.
    closed: Option<(RowAddr, RowAddr, Picos, RecordId)>,
    /// Single activation awaiting emission (see [`PendingSingle`]).
    pending: Option<PendingSingle>,
}

/// A closed single-row activation whose hammer emission is deferred until
/// the next command reveals whether it was the first half of a CoMRA or
/// SiMRA pair (in which case the pair event subsumes it).
#[derive(Debug, Clone, Copy)]
struct PendingSingle {
    row: RowAddr,
    id: RecordId,
    start: Picos,
    end: Picos,
}

/// What an ACT opened, with the engine records of the rows it involves.
/// A SiMRA group's members are the bank's open rows.
#[derive(Debug, Clone, Copy)]
enum Episode {
    Single {
        row: RowAddr,
        id: RecordId,
    },
    ComraPair {
        src: RowAddr,
        src_id: RecordId,
        dst: RowAddr,
        dst_id: RecordId,
        pre_to_act: Picos,
    },
    Simra {
        first_id: RecordId,
        act_to_pre: Picos,
        pre_to_act: Picos,
    },
}

/// The last SiMRA group decoded, kept for the next group activation:
/// every operation of an evasion loop repeats the same address pair.
#[derive(Debug, Default)]
struct SimraMemo {
    /// `(bank, first logical, second logical, partial)` the group was
    /// decoded for.
    key: Option<(BankId, RowAddr, RowAddr, bool)>,
    /// Whether the pair activates a group at all.
    found: bool,
    /// The members, physical and sorted (every other one on a partial
    /// activation), and their engine records.
    members: Vec<RowAddr>,
    ids: Vec<RecordId>,
    /// Decode buffer: the group's logical rows.
    logical: Vec<RowAddr>,
}

/// Cached handles into the metrics registry, fetched once per executor so
/// the command loop never takes the registry lock. Which registry depends
/// on the fetching thread: the thread's shard while a
/// [`pud_observe::ShardGuard`] is installed, the global registry otherwise
/// — see [`Executor::rebind_metrics`].
#[derive(Debug, Clone)]
struct ExecMetrics {
    acts: Arc<Counter>,
    pres: Arc<Counter>,
    reads: Arc<Counter>,
    writes: Arc<Counter>,
    refs: Arc<Counter>,
    timing_violations: Arc<Counter>,
    comra_copies: Arc<Counter>,
    simra_groups: Arc<Counter>,
    partial_activations: Arc<Counter>,
    trr_interventions: Arc<Counter>,
    flips: Arc<Counter>,
    bulk_steps: Arc<Counter>,
    bulk_events: Arc<Counter>,
}

impl ExecMetrics {
    fn from_global() -> ExecMetrics {
        ExecMetrics {
            acts: pud_observe::counter("bender.acts"),
            pres: pud_observe::counter("bender.pres"),
            reads: pud_observe::counter("bender.reads"),
            writes: pud_observe::counter("bender.writes"),
            refs: pud_observe::counter("bender.refs"),
            timing_violations: pud_observe::counter("bender.timing_violations"),
            comra_copies: pud_observe::counter("bender.comra_copies"),
            simra_groups: pud_observe::counter("bender.simra_groups"),
            partial_activations: pud_observe::counter("bender.partial_activations"),
            trr_interventions: pud_observe::counter("bender.trr_interventions"),
            flips: pud_observe::counter("bender.flips"),
            bulk_steps: pud_observe::counter("bender.bulk_steps"),
            bulk_events: pud_observe::counter("bender.bulk_events"),
        }
    }
}

/// DRAM Bender-style executor bound to one chip.
pub struct Executor {
    chip: Chip,
    engine: DisturbEngine,
    env: TestEnv,
    observer: Option<Box<dyn ActivityObserver>>,
    clock: Picos,
    acts: u64,
    banks: Vec<BankState>,
    episodes: Vec<Option<Episode>>,
    simra: SimraMemo,
    refresh_acc: f64,
    refresh_ptr: u32,
    refs_seen: u64,
    /// While set, `apply_event` appends each event and its victim's record
    /// to `recorded`, a buffer reused by every bulk step.
    recording: bool,
    recorded: Vec<(HammerEvent, RecordId)>,
    watch: Option<Watch>,
    report: RunReport,
    metrics: ExecMetrics,
    trace: Option<SharedSink>,
    fault: Option<FaultState>,
    cancel_countdown: u32,
    /// True while a compiled replay is in flight: `apply_event` then
    /// routes through the engine's batching caches (the interpreter
    /// oracle leaves it off and uses the uncached engine). The caches
    /// persist across runs — every entry is either immutable or
    /// invalidated on data writes.
    batched: bool,
    /// Reusable flip buffer: keeps `apply_event` allocation-free.
    flip_scratch: Vec<Bitflip>,
    /// Reusable buffer for the observer's TRR victim refreshes.
    trr_victims: Vec<(BankId, RowAddr)>,
}

/// Commands executed between two invocations of the registered
/// cancellation probe (see [`crate::set_cancel_check`]) — the grace bound
/// for cancelling inside one long, non-batchable command stream.
const CANCEL_CHECK_INTERVAL: u32 = 4096;

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("clock", &self.clock)
            .field("acts", &self.acts)
            .field("env", &self.env)
            .finish_non_exhaustive()
    }
}

impl Executor {
    /// Creates an executor for chip `chip_index` of `profile`.
    pub fn new(
        profile: &ModuleProfile,
        geometry: ChipGeometry,
        chip_index: u32,
        seed: u64,
    ) -> Executor {
        let chip = Chip::new(geometry, profile.mapping(), profile.cell_layout());
        let engine = DisturbEngine::new(profile, geometry, chip_index, seed);
        let banks = (0..geometry.banks).map(|_| BankState::default()).collect();
        let episodes = (0..geometry.banks).map(|_| None).collect();
        Executor {
            chip,
            engine,
            env: TestEnv::characterization(),
            observer: None,
            clock: Picos::ZERO,
            acts: 0,
            banks,
            episodes,
            simra: SimraMemo::default(),
            refresh_acc: 0.0,
            refresh_ptr: 0,
            refs_seen: 0,
            recording: false,
            recorded: Vec::new(),
            watch: None,
            report: RunReport::default(),
            metrics: ExecMetrics::from_global(),
            // Attach to the process-wide sink (if one is installed) at
            // construction; `None` keeps the emit sites a single branch.
            trace: pud_observe::global_sink(),
            fault: None,
            cancel_countdown: CANCEL_CHECK_INTERVAL,
            batched: false,
            flip_scratch: Vec::new(),
            trr_victims: Vec::new(),
        }
    }

    /// Cache statistics of the compiled replay's batching state.
    pub fn batch_stats(&self) -> BatchStats {
        self.engine.batch_stats()
    }

    /// Installs a resolved fault schedule (see [`crate::fault`]), replacing
    /// any previous one and resetting the lifetime command counter.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(FaultState::new(plan));
    }

    /// Derives this chip's fault schedule from a seeded campaign
    /// configuration and installs it. No-op for chips that draw no faults.
    /// Returns whether a plan was installed.
    pub fn enable_faults(
        &mut self,
        config: &FaultConfig,
        family_key: &str,
        chip_index: u32,
    ) -> bool {
        match FaultPlan::derive(config, family_key, chip_index, self.chip.geometry()) {
            Some(plan) => {
                self.install_fault_plan(plan);
                true
            }
            None => false,
        }
    }

    /// The installed fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref().map(FaultState::plan)
    }

    /// Lifetime commands issued to the chip, tracked only while a fault
    /// plan is installed.
    pub fn fault_commands(&self) -> Option<u64> {
        self.fault.as_ref().map(FaultState::commands)
    }

    /// Advances the fault clock by `n` commands and raises the fault that
    /// fires within the span, if any. The single branch on `self.fault`
    /// keeps the fault-free hot path free.
    #[inline]
    fn check_fault(&mut self, n: u64) -> Result<(), ExecError> {
        let Some(state) = self.fault.as_mut() else {
            return Ok(());
        };
        match state.advance(n) {
            None => Ok(()),
            Some((kind, at_cmd)) => {
                pud_observe::counter(&format!("faults.injected.{}", kind.name())).incr();
                self.trace(TraceKind::FaultInjected {
                    fault: kind.name(),
                    at_cmd,
                });
                Err(ExecError::Fault { kind, at_cmd })
            }
        }
    }

    /// Snapshots the executor's lifetime fault bookkeeping so a paged-out
    /// chip can be rematerialized without resetting its fault clock (a
    /// reset would replay already-consumed transient faults).
    pub fn fault_carry(&self) -> FaultCarry {
        FaultCarry(self.fault.clone())
    }

    /// Restores fault bookkeeping captured by [`Executor::fault_carry`],
    /// replacing whatever [`Executor::enable_faults`] installed.
    pub fn restore_fault_carry(&mut self, carry: FaultCarry) {
        self.fault = carry.0;
    }

    /// Forces any stuck-at cells of `phys` back to their stuck values —
    /// called after every write path, modelling cells that never hold the
    /// written data.
    fn apply_stuck(&mut self, bank: BankId, phys: RowAddr) {
        let Some(state) = &self.fault else { return };
        let mut cells = state
            .plan()
            .stuck
            .iter()
            .filter(|c| c.bank == bank.0 && c.row == phys.0)
            .peekable();
        if cells.peek().is_none() {
            return;
        }
        let Ok(b) = self.chip.bank_mut(bank) else {
            return;
        };
        let row = b.row_mut_or(phys, DataPattern::ZEROS);
        let mut forced = 0u64;
        for c in cells {
            if row.bit(c.col) != c.value {
                row.set_bit(c.col, c.value);
                forced += 1;
            }
        }
        if forced > 0 {
            pud_observe::counter("faults.injected.stuck_bits").add(forced);
            self.engine.invalidate_summary(bank, phys);
        }
    }

    /// Re-fetches the cached metric handles against the calling thread's
    /// current registry.
    ///
    /// A fleet-sweep worker calls this after claiming a chip so the hot
    /// command loop updates its thread-local shard instead of contending on
    /// the global registry; the sweep calls it again (from the main thread,
    /// after the shards drain) to point the handles back at the global
    /// registry.
    pub fn rebind_metrics(&mut self) {
        self.metrics = ExecMetrics::from_global();
    }

    /// Attaches a trace sink, replacing any previous one.
    pub fn set_trace_sink(&mut self, sink: SharedSink) {
        self.trace = Some(sink);
    }

    /// Detaches the trace sink, returning it (restores the null fast path).
    pub fn take_trace_sink(&mut self) -> Option<SharedSink> {
        self.trace.take()
    }

    /// A clone of the attached trace sink, if any, without detaching it.
    pub fn trace_sink_ref(&self) -> Option<SharedSink> {
        self.trace.clone()
    }

    /// Emits one trace event if a sink is attached. With no sink this is a
    /// single `Option` check — the overhead budget of the hot loops.
    #[inline]
    fn trace(&self, kind: TraceKind) {
        if let Some(sink) = &self.trace {
            let ev = TraceEvent {
                t_ns: self.clock.as_ns(),
                kind,
            };
            sink.lock().expect("trace sink poisoned").record(&ev);
        }
    }

    /// The device under test.
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// The disturbance engine (for analysis and white-box assertions).
    pub fn engine(&self) -> &DisturbEngine {
        &self.engine
    }

    /// The current environment.
    pub fn env(&self) -> TestEnv {
        self.env
    }

    /// Replaces the environment (temperature, refresh behaviour).
    pub fn set_env(&mut self, env: TestEnv) {
        self.env = env;
    }

    /// Installs an activity observer (e.g. a TRR model).
    pub fn set_observer(&mut self, observer: Box<dyn ActivityObserver>) {
        self.observer = Some(observer);
    }

    /// Removes the activity observer, returning it.
    pub fn take_observer(&mut self) -> Option<Box<dyn ActivityObserver>> {
        self.observer.take()
    }

    /// Total elapsed time across all runs.
    pub fn elapsed(&self) -> Picos {
        self.clock
    }

    /// Resets all transient state between experiments: accumulated
    /// disturbance, pattern-detection history, and bank episode state.
    ///
    /// Equivalent to letting the module sit through a full refresh window
    /// on the real infrastructure. Row *data* (including flipped bits) is
    /// preserved.
    pub fn quiesce(&mut self) {
        // Clears the accumulated disturbance and every victim's side
        // history, which the engine keeps beside it.
        self.engine.restore_all();
        for st in &mut self.banks {
            *st = BankState::default();
        }
        for ep in &mut self.episodes {
            *ep = None;
        }
    }

    /// Host-side row write: fills the row and restores its charge (clearing
    /// accumulated disturbance), as re-initializing a victim row does on the
    /// real infrastructure.
    ///
    /// # Panics
    ///
    /// Panics if the bank or row is out of range.
    pub fn write_row(&mut self, bank: BankId, logical: RowAddr, pattern: DataPattern) {
        let phys = self.chip.to_physical(logical);
        self.chip
            .bank_mut(bank)
            .expect("valid bank")
            .fill_row(phys, pattern);
        self.engine.rewrite(bank, phys);
        self.apply_stuck(bank, phys);
    }

    /// Host-side row read (no bus activity).
    pub fn read_row(&self, bank: BankId, logical: RowAddr) -> Option<RowData> {
        let phys = self.chip.to_physical(logical);
        self.chip.bank(bank).ok()?.row(phys).cloned()
    }

    /// Executes a test program, returning what happened.
    ///
    /// Infallible wrapper over [`Executor::try_run`] for the many call
    /// sites that never construct invalid programs and run without fault
    /// injection.
    ///
    /// # Panics
    ///
    /// Raises any [`ExecError`] as a panic *payload* (via
    /// [`std::panic::panic_any`]) rather than a formatted message: the
    /// fleet sweep catches the unwind, downcasts the payload back to the
    /// typed error, and feeds it into its retry/quarantine policy. Errors
    /// occur when the environment enforces the refresh-window bound
    /// ([`TestEnv::characterization_strict`]) and the program runs longer
    /// than `t_REFW` with refresh disabled (§3.1), when the program
    /// references banks or rows outside the chip geometry, or when an
    /// injected fault fires (see [`crate::fault`]).
    pub fn run(&mut self, program: &TestProgram) -> RunReport {
        match self.try_run(program) {
            Ok(report) => report,
            Err(e) => std::panic::panic_any(e),
        }
    }

    /// Executes a test program, surfacing invalid programs and injected
    /// faults as typed errors instead of panics.
    ///
    /// A program that fails validation, or whose span crosses a scheduled
    /// fault, is rejected *before any command executes* — mirroring the
    /// real infrastructure, where a failed run's readout is discarded
    /// wholesale. Rejected runs therefore mutate no device state (beyond
    /// the fault clock), which is what makes retrying a transient fault
    /// reproduce the fault-free measurement. Accepted programs are
    /// compiled onto this chip's row mapping and replayed.
    pub fn try_run(&mut self, program: &TestProgram) -> Result<RunReport, ExecError> {
        self.admit(program)?;
        let compiled = CompiledProgram::compile(program, &self.chip);
        Ok(self.measure(true, |exec| exec.run_ops(&compiled.ops)))
    }

    /// [`Executor::try_run`] that also records the closed form of the
    /// program's loop for the physical row `victim` of `bank`, so that
    /// [`Executor::try_forecast`] can answer the same loop at other counts
    /// without replaying it.
    ///
    /// The forecast is `None` — the run itself is unaffected — unless the
    /// program is one counted loop of more than three iterations over a
    /// batchable body, no activity observer is installed, refresh is off,
    /// the victim does not flip during the two explicit iterations, and
    /// the victim's tail events (from the closing flush) do not take their
    /// aggressor summary from a row the steady-state iteration disturbs,
    /// whose data would depend on the count.
    pub fn try_run_forecast(
        &mut self,
        program: &TestProgram,
        bank: BankId,
        victim: RowAddr,
    ) -> Result<(RunReport, Option<LoopForecast>), ExecError> {
        self.admit(program)?;
        let compiled = CompiledProgram::compile(program, &self.chip);
        let Some((_, body)) = self.forecastable(program) else {
            return Ok((self.measure(true, |exec| exec.run_ops(&compiled.ops)), None));
        };
        self.watch = Some(Watch {
            bank,
            victim,
            at_bulk: None,
        });
        let mut tail_source = None;
        let report = self.measure(true, |exec| {
            exec.run_ops(&compiled.ops);
            // `measure` flushes the pending activations next: record that
            // tail, and the row whose summary the victim's bank flushes.
            tail_source = exec.banks[bank.0 as usize].pending.map(|p| (bank, p.row));
            exec.recorded.clear();
            exec.recording = true;
        });
        self.recording = false;
        let tail = std::mem::take(&mut self.recorded);
        let at_bulk = self.watch.take().and_then(|w| w.at_bulk);
        let forecast = at_bulk.and_then(|at| {
            let mut forecast = at.forecast?;
            let tail: Vec<&HammerEvent> = tail
                .iter()
                .map(|(e, _)| e)
                .filter(|e| e.bank == bank && e.victim == victim)
                .collect();
            if !tail.is_empty() && tail_source.is_some_and(|s| at.steady_victims.contains(&s)) {
                return None;
            }
            for ev in tail {
                self.engine.forecast_tail(&mut forecast, ev);
            }
            Some(LoopForecast {
                body: body.to_vec(),
                env: self.env,
                victim: forecast,
            })
        });
        Ok((report, forecast))
    }

    /// Admits each `prelude` program and then `program`, in that order,
    /// exactly as [`Executor::try_run`] does — the cancellation probe,
    /// validation (the refresh-window bound included) and the fault
    /// clock — then answers from `forecast` whether the victim flips in
    /// `program`, without executing a command.
    ///
    /// `Ok(None)`, with nothing admitted, when `program` is not the
    /// forecast's loop at a count above 3 under the recorded environment;
    /// run it instead. The answer equals the flip outcome of a replay only
    /// while `program` starts from the state the recording started from:
    /// the caller re-establishes it between trials (see
    /// `pudhammer::hcfirst::prepare`) and runs the same `prelude`, none
    /// of which flipped the victim, before the recording.
    pub fn try_forecast<'p>(
        &mut self,
        prelude: impl IntoIterator<Item = &'p TestProgram>,
        program: &TestProgram,
        forecast: &LoopForecast,
    ) -> Result<Option<bool>, ExecError> {
        let Some((count, body)) = self.forecastable(program) else {
            return Ok(None);
        };
        if body != forecast.body.as_slice() || self.env != forecast.env {
            return Ok(None);
        }
        for stage in prelude {
            self.admit(stage)?;
        }
        self.admit(program)?;
        // `bulk_replay` applies the steady-state events `count - 2` times.
        Ok(Some(forecast.victim.flips_after(count - 2)))
    }

    /// The count and body of `program` if it is one bulk-replayed loop on
    /// an executor whose runs a [`LoopForecast`] can stand in for.
    fn forecastable<'p>(&self, program: &'p TestProgram) -> Option<(u64, &'p [Step])> {
        if self.observer.is_some() || self.env.refresh_enabled {
            return None;
        }
        match program.steps() {
            [Step::Loop { count, body }]
                if *count > 3 && body.iter().all(Step::is_batchable_cmd) =>
            {
                Some((*count, body))
            }
            _ => None,
        }
    }

    /// Reference semantics for [`Executor::try_run`]: the same validation
    /// and fault clock, then a walk of the program tree with the uncached
    /// disturbance engine. Every observable output — report, trace events,
    /// row data, accumulated disturbance, fault errors — must match
    /// `try_run` on an identically seeded executor; the differential tests
    /// hold the compiled replay to that. Not a production path.
    #[doc(hidden)]
    pub fn interpret(&mut self, program: &TestProgram) -> Result<RunReport, ExecError> {
        self.admit(program)?;
        Ok(self.measure(false, |exec| exec.run_steps(program.steps())))
    }

    /// The run-time checks every program passes before its first command:
    /// cancellation, validation, and the fault clock.
    fn admit(&mut self, program: &TestProgram) -> Result<(), ExecError> {
        crate::cancel_check();
        self.validate(program)?;
        self.check_fault(program.cmd_count())
    }

    /// Runs `body` as one program, with hammer events routed through the
    /// batching caches when `batched`, and reports what it did.
    fn measure(&mut self, batched: bool, body: impl FnOnce(&mut Executor)) -> RunReport {
        self.report = RunReport::default();
        let start_clock = self.clock;
        let start_acts = self.acts;
        self.batched = batched;
        body(self);
        self.flush_all_pending();
        self.batched = false;
        self.report.elapsed = self.clock - start_clock;
        self.report.acts = self.acts - start_acts;
        std::mem::take(&mut self.report)
    }

    /// Invariant checks on a caller-supplied program (formerly in-line
    /// `assert!`s): the refresh-window execution bound and geometry bounds
    /// on every referenced bank and row.
    fn validate(&self, program: &TestProgram) -> Result<(), ExecError> {
        if self.env.enforce_refresh_window && !self.env.refresh_enabled {
            let refw = Picos::from_ns(pud_disturb::calib::T_REFW_NS);
            if program.duration() > refw {
                return Err(ExecError::RefreshWindowExceeded {
                    duration: program.duration(),
                    refw,
                });
            }
        }
        self.validate_steps(program.steps())
    }

    fn validate_steps(&self, steps: &[Step]) -> Result<(), ExecError> {
        let geometry = self.chip.geometry();
        let check_bank = |bank: BankId| -> Result<(), ExecError> {
            if bank.0 >= geometry.banks {
                return Err(ExecError::InvalidProgram {
                    reason: format!("bank {} out of range (chip has {})", bank.0, geometry.banks),
                });
            }
            Ok(())
        };
        for step in steps {
            match step {
                Step::Cmd(tc) => match tc.cmd {
                    DramCommand::Act { bank, row } => {
                        check_bank(bank)?;
                        if row.0 >= geometry.rows_per_bank() {
                            return Err(ExecError::InvalidProgram {
                                reason: format!(
                                    "row {} out of range (bank has {} rows)",
                                    row.0,
                                    geometry.rows_per_bank()
                                ),
                            });
                        }
                    }
                    DramCommand::Pre { bank }
                    | DramCommand::Rd { bank }
                    | DramCommand::Wr { bank, .. } => check_bank(bank)?,
                    DramCommand::PreAll | DramCommand::Ref | DramCommand::Nop => {}
                },
                Step::Loop { body, .. } => self.validate_steps(body)?,
            }
        }
        Ok(())
    }

    fn run_steps(&mut self, steps: &[Step]) {
        for step in steps {
            match step {
                Step::Cmd(tc) => {
                    self.exec_resolved(ResolvedCmd::resolve(tc.cmd, &self.chip));
                    self.clock = self.clock.saturating_add(tc.delay_after);
                }
                Step::Loop { count, body } => self.run_loop(*count, body),
            }
        }
    }

    fn run_loop(&mut self, count: u64, body: &[Step]) {
        if count <= 3 || !body.iter().all(Step::is_batchable_cmd) {
            for _ in 0..count {
                self.run_steps(body);
            }
            return;
        }
        let body_time = body
            .iter()
            .fold(Picos::ZERO, |acc, s| acc.saturating_add(s.duration()));
        let body_acts: u64 = body.iter().map(Step::act_count).sum();
        // Batchable bodies contain only Cmd steps.
        let body_cmds = body.len() as u64;
        self.bulk_replay(count, body_time, body_acts, body_cmds, |exec| {
            exec.run_steps(body)
        });
    }

    /// Walks a flat op buffer (`run_steps` over compiled slots).
    fn run_ops(&mut self, ops: &[CompiledOp]) {
        let mut i = 0;
        while i < ops.len() {
            match ops[i] {
                CompiledOp::Cmd { cmd, delay_after } => {
                    self.exec_resolved(cmd);
                    self.clock = self.clock.saturating_add(delay_after);
                    i += 1;
                }
                CompiledOp::Block {
                    count,
                    len,
                    batchable,
                } => {
                    let body = &ops[i + 1..i + 1 + len];
                    self.run_block(count, body, batchable);
                    i += 1 + len;
                }
            }
        }
    }

    /// `run_loop` over a compiled block, with the batchability predicate
    /// precomputed at compile time.
    fn run_block(&mut self, count: u64, body: &[CompiledOp], batchable: bool) {
        if count <= 3 || !batchable {
            for _ in 0..count {
                self.run_ops(body);
            }
            return;
        }
        // Batchable bodies contain only Cmd slots.
        let (mut body_time, mut body_acts) = (Picos::ZERO, 0u64);
        for op in body {
            if let CompiledOp::Cmd { cmd, delay_after } = op {
                body_time = body_time.saturating_add(*delay_after);
                body_acts += matches!(cmd, ResolvedCmd::Act { .. }) as u64;
            }
        }
        let body_cmds = body.len() as u64;
        self.bulk_replay(count, body_time, body_acts, body_cmds, |exec| {
            exec.run_ops(body)
        });
    }

    /// Runs a batchable loop body `count` (> 3) times: one warm-up
    /// iteration (side-history effects), one recorded steady-state
    /// iteration, then the recorded events replayed in bulk for the
    /// remaining `count - 2` iterations.
    fn bulk_replay(
        &mut self,
        count: u64,
        body_time: Picos,
        body_acts: u64,
        body_cmds: u64,
        mut iterate: impl FnMut(&mut Executor),
    ) {
        iterate(self);
        self.recorded.clear();
        self.recording = true;
        iterate(self);
        self.recording = false;
        let recorded = std::mem::take(&mut self.recorded);
        self.metrics.bulk_steps.incr();
        self.metrics.bulk_events.add(recorded.len() as u64);
        if let Some(watch) = self.watch.as_mut().filter(|w| w.at_bulk.is_none()) {
            let (bank, victim) = (watch.bank, watch.victim);
            let flipped = self
                .report
                .flips
                .iter()
                .any(|f| f.bank == bank && f.phys_row == victim);
            let data = self.chip.bank(bank).ok().and_then(|b| b.row(victim));
            let forecast = data
                .filter(|_| !flipped)
                .and_then(|d| self.engine.forecast(bank, victim, d))
                .map(|mut forecast| {
                    for (ev, _) in recorded
                        .iter()
                        .filter(|(e, _)| e.bank == bank && e.victim == victim)
                    {
                        self.engine.forecast_steady(&mut forecast, ev);
                    }
                    forecast
                });
            watch.at_bulk = Some(AtBulk {
                forecast,
                steady_victims: recorded.iter().map(|(e, _)| (e.bank, e.victim)).collect(),
            });
        }
        let remaining = count - 2;
        for &(ev, id) in &recorded {
            let mut bulk = ev;
            bulk.repeat = ev.repeat.saturating_mul(remaining);
            self.apply_event(&bulk, id);
        }
        self.clock = self
            .clock
            .saturating_add(body_time.saturating_mul(remaining));
        self.acts += body_acts * remaining;
        self.metrics.acts.add(body_acts * remaining);
        // The replayed iterations never reach `exec_resolved`; account
        // their elided commands here.
        let elided_cmds = body_cmds * remaining;
        pud_observe::live::add_commands(elided_cmds);
        pud_observe::profile::work_commands(elided_cmds);
        // Per-command events are elided for replayed iterations; one batch
        // marker keeps the trace accountable for them.
        self.trace(TraceKind::LoopBatch {
            iterations: remaining,
            acts: body_acts * remaining,
        });
        // Every recorded victim's side history was written during the
        // recorded iteration; the replayed ones end now.
        let now = self.clock;
        for &(_, id) in &recorded {
            self.engine.side_mut(id).last_end = now;
        }
        self.recorded = recorded;
    }

    /// Executes one command with its row address already resolved.
    fn exec_resolved(&mut self, cmd: ResolvedCmd) {
        self.cancel_countdown -= 1;
        if self.cancel_countdown == 0 {
            self.cancel_countdown = CANCEL_CHECK_INTERVAL;
            crate::cancel_check();
        }
        // Telemetry (one relaxed load each when off): the live counter
        // feeds the `--progress` cmds/s readout, the profiler attributes
        // the command to the innermost span.
        pud_observe::live::add_commands(1);
        pud_observe::profile::work_commands(1);
        match cmd {
            ResolvedCmd::Act {
                bank,
                logical,
                phys,
            } => {
                self.trace(TraceKind::Act {
                    bank: bank.0,
                    row: logical.0,
                });
                self.do_act(bank, logical, phys);
            }
            ResolvedCmd::Pre { bank } => {
                self.metrics.pres.incr();
                self.trace(TraceKind::Pre { bank: bank.0 });
                self.do_pre(bank);
            }
            ResolvedCmd::PreAll => {
                for b in 0..self.banks.len() as u8 {
                    self.metrics.pres.incr();
                    self.trace(TraceKind::Pre { bank: b });
                    self.do_pre(BankId(b));
                }
            }
            ResolvedCmd::Rd { bank } => {
                self.metrics.reads.incr();
                self.trace(TraceKind::Rd { bank: bank.0 });
                self.do_rd(bank);
            }
            ResolvedCmd::Wr { bank, pattern } => {
                self.metrics.writes.incr();
                self.trace(TraceKind::Wr { bank: bank.0 });
                self.do_wr(bank, pattern);
            }
            ResolvedCmd::Ref => {
                self.metrics.refs.incr();
                self.trace(TraceKind::Ref);
                self.do_ref();
                self.refs_seen += 1;
                if self.refs_seen.is_multiple_of(REFS_PER_WINDOW as u64) {
                    self.trace(TraceKind::RefreshWindow {
                        refs: self.refs_seen,
                    });
                }
            }
            ResolvedCmd::Nop => {}
        }
    }

    fn do_act(&mut self, bank: BankId, logical: RowAddr, phys: RowAddr) {
        let now = self.clock;
        if let Some(obs) = self.observer.as_mut() {
            obs.on_act(bank, logical);
        }
        self.acts += 1;
        self.metrics.acts.incr();
        let b = bank.0 as usize;
        if !self.banks[b].open.is_empty() {
            // Implicit close of a still-open episode.
            self.do_pre(bank);
        }
        // The bank's open-row buffer (empty after the close above) is
        // reused, so an activation allocates nothing.
        let mut open_rows = std::mem::take(&mut self.banks[b].open);
        open_rows.push(phys);
        let id = self.engine.record(bank, phys);
        let mut episode = Episode::Single { row: phys, id };
        let mut consumed_pending = false;
        let st = &self.banks[b];
        if let (Some(pre_t), Some((prev_phys, prev_logical, prev_on, prev_id))) =
            (st.last_pre, st.closed)
        {
            let gap = now - pre_t;
            if gap.as_ns() < TRP_VIOLATION_NS && prev_phys != phys {
                self.metrics.timing_violations.incr();
                self.trace(TraceKind::TimingViolation {
                    bank: bank.0,
                    gap_ns: gap.as_ns(),
                });
                if prev_on.as_ns() >= CHARGE_RESTORE_NS {
                    // CoMRA: the bitlines still carry the source row's data;
                    // activating the destination copies it (RowClone in COTS
                    // chips, §4.1). Works only within a subarray.
                    if self.chip.geometry().same_subarray(prev_phys, phys) {
                        self.copy_row(bank, prev_phys, phys);
                        self.metrics.comra_copies.incr();
                        self.trace(TraceKind::ComraCopy {
                            bank: bank.0,
                            src: prev_phys.0,
                            dst: phys.0,
                        });
                        episode = Episode::ComraPair {
                            src: prev_phys,
                            src_id: prev_id,
                            dst: phys,
                            dst_id: id,
                            pre_to_act: gap,
                        };
                        // The pair event subsumes the source activation.
                        consumed_pending = true;
                    }
                } else if self.engine.model().manufacturer().supports_simra() {
                    // SiMRA attempt: both delays violated. Chips from
                    // manufacturers that ignore heavily violating commands
                    // (footnote 2) fall through to a normal activation.
                    let partial = prev_on.as_ns() < pud_disturb::calib::SIMRA_PARTIAL_ACT_NS;
                    if self.decode_simra(bank, prev_logical, logical, partial) {
                        let group = std::mem::take(&mut self.simra);
                        if partial {
                            self.metrics.partial_activations.incr();
                        }
                        self.metrics.simra_groups.incr();
                        self.trace(TraceKind::SimraGroup {
                            bank: bank.0,
                            first: group.members[0].0,
                            rows: group.members.len().min(u16::MAX as usize) as u16,
                            partial,
                        });
                        self.charge_share(bank, &group.members, &group.ids, prev_phys);
                        open_rows.clone_from(&group.members);
                        episode = Episode::Simra {
                            first_id: group.ids[0],
                            act_to_pre: prev_on,
                            pre_to_act: gap,
                        };
                        self.simra = group;
                        // The group event subsumes the first activation.
                        consumed_pending = true;
                    }
                }
            }
        }
        if consumed_pending {
            self.banks[b].pending = None;
        } else {
            self.flush_pending(bank);
        }
        // Activation restores the charge of every opened row, clearing any
        // disturbance accumulated on it while it was a victim.
        if matches!(episode, Episode::Simra { .. }) {
            for &m in &self.simra.ids {
                self.engine.restore_record(m);
            }
        } else {
            self.engine.restore_record(id);
        }
        let st = &mut self.banks[b];
        st.open = open_rows;
        st.open_since = now;
        st.open_cmd_logical = Some(logical);
        self.episodes[b] = Some(episode);
    }

    /// Decodes the group `ACT r1 – PRE – ACT r2` activates in `bank` into
    /// `self.simra` (physical members, every other one if `partial`, and
    /// their engine records), unless it already holds that group. Returns
    /// whether the pair activates a group.
    fn decode_simra(&mut self, bank: BankId, r1: RowAddr, r2: RowAddr, partial: bool) -> bool {
        let key = Some((bank, r1, r2, partial));
        let memo = &mut self.simra;
        if memo.key == key {
            return memo.found;
        }
        memo.key = key;
        memo.found = simra_group_into(self.chip.geometry(), r1, r2, &mut memo.logical);
        memo.members.clear();
        memo.members
            .extend(memo.logical.iter().map(|&r| self.chip.to_physical(r)));
        memo.members.sort_unstable();
        if partial {
            // Partial activation engages only every other member
            // (Observation 20).
            let mut i = 0;
            memo.members.retain(|_| {
                i += 1;
                i % 2 == 1
            });
        }
        memo.ids.clear();
        for &r in &memo.members {
            memo.ids.push(self.engine.record(bank, r));
        }
        memo.found
    }

    fn do_pre(&mut self, bank: BankId) {
        let now = self.clock;
        let b = bank.0 as usize;
        let st = &mut self.banks[b];
        if st.open.is_empty() {
            st.last_pre = Some(now);
            return;
        }
        let t_on = now - st.open_since;
        let open_logical = st.open_cmd_logical;
        let mut open = std::mem::take(&mut st.open);
        st.last_pre = Some(now);
        let episode = self.episodes[b].take();
        let closed = match episode {
            Some(Episode::Single { row, id }) => {
                // Defer emission: the next ACT may reveal this activation
                // was the first half of a CoMRA/SiMRA operation.
                let st = &mut self.banks[b];
                debug_assert!(st.pending.is_none(), "pending flushed on ACT");
                st.pending = Some(PendingSingle {
                    row,
                    id,
                    start: now - t_on,
                    end: now,
                });
                Some((row, open_logical.unwrap_or(RowAddr(row.0)), t_on, id))
            }
            Some(Episode::ComraPair {
                src,
                src_id,
                dst,
                dst_id,
                pre_to_act,
            }) => {
                self.emit_comra(bank, src, src_id, dst, pre_to_act, t_on, now);
                Some((dst, open_logical.unwrap_or(RowAddr(dst.0)), t_on, dst_id))
            }
            Some(Episode::Simra {
                first_id,
                act_to_pre,
                pre_to_act,
            }) => {
                self.emit_simra(bank, &open, first_id, act_to_pre, pre_to_act, t_on, now);
                None
            }
            None => {
                let first_open = open[0];
                let id = self.engine.record(bank, first_open);
                Some((
                    first_open,
                    open_logical.unwrap_or(RowAddr(first_open.0)),
                    t_on,
                    id,
                ))
            }
        };
        open.clear();
        let st = &mut self.banks[b];
        st.open = open;
        st.closed = closed;
    }

    fn do_rd(&mut self, bank: BankId) {
        self.flush_pending(bank);
        let st = &self.banks[bank.0 as usize];
        let cols = self.chip.geometry().cols_per_row;
        let data = st
            .open
            .first()
            .and_then(|&r| self.chip.bank(bank).ok().and_then(|b| b.row(r)).cloned())
            .unwrap_or_else(|| RowData::filled(cols, DataPattern::ZEROS));
        self.report.reads.push(data);
    }

    fn do_wr(&mut self, bank: BankId, pattern: DataPattern) {
        self.flush_pending(bank);
        let open = self.banks[bank.0 as usize].open.clone();
        for r in open {
            self.chip
                .bank_mut(bank)
                .expect("valid bank")
                .fill_row(r, pattern);
            self.engine.rewrite(bank, r);
            self.apply_stuck(bank, r);
        }
    }

    fn do_ref(&mut self) {
        self.flush_all_pending();
        // REF implies precharging all banks.
        for b in 0..self.banks.len() as u8 {
            self.do_pre(BankId(b));
        }
        if !self.env.refresh_enabled {
            return;
        }
        // Each REF refreshes 1/8192 of the rows in every bank.
        let rows_per_bank = self.chip.geometry().rows_per_bank();
        self.refresh_acc += f64::from(rows_per_bank) / REFS_PER_WINDOW;
        while self.refresh_acc >= 1.0 {
            self.refresh_acc -= 1.0;
            let row = RowAddr(self.refresh_ptr % rows_per_bank);
            self.refresh_ptr = (self.refresh_ptr + 1) % rows_per_bank;
            for b in 0..self.banks.len() as u8 {
                self.engine.restore(BankId(b), row);
            }
        }
        if let Some(mut obs) = self.observer.take() {
            let mut victims = std::mem::take(&mut self.trr_victims);
            obs.on_ref(BankId(0), &mut victims);
            for &(bank, logical) in &victims {
                let phys = self.chip.to_physical(logical);
                self.engine.restore(bank, phys);
                self.metrics.trr_interventions.incr();
                self.trace(TraceKind::TrrIntervention {
                    bank: bank.0,
                    row: logical.0,
                });
            }
            victims.clear();
            self.trr_victims = victims;
            self.observer = Some(obs);
        }
    }

    fn copy_row(&mut self, bank: BankId, src: RowAddr, dst: RowAddr) {
        let cols = self.chip.geometry().cols_per_row;
        let data = self
            .chip
            .bank(bank)
            .ok()
            .and_then(|b| b.row(src))
            .cloned()
            .unwrap_or_else(|| RowData::filled(cols, DataPattern::ZEROS));
        self.chip
            .bank_mut(bank)
            .expect("valid bank")
            .write_row(dst, data)
            .expect("copy within geometry");
        self.engine.invalidate_summary(bank, dst);
        self.apply_stuck(bank, dst);
    }

    fn charge_share(
        &mut self,
        bank: BankId,
        members: &[RowAddr],
        ids: &[RecordId],
        first: RowAddr,
    ) {
        if members.is_empty() {
            return;
        }
        // A repeated operation on a settled group — every member written
        // and holding the same data — deposits what every member already
        // holds (equal votes outnumber the one tiebreak row of an even
        // group): skip the vote and the rewrite, and keep the summaries.
        let settled = {
            let Executor { chip, engine, .. } = self;
            let b = chip.bank(bank).expect("valid bank");
            let first_data = row_data(b, engine, ids[0], members[0]);
            first_data.is_some()
                && members
                    .iter()
                    .zip(ids)
                    .skip(1)
                    .all(|(&r, &id)| row_data(b, engine, id, r) == first_data)
        };
        if !settled {
            let cols = self.chip.geometry().cols_per_row;
            // Even group: the first-activated row's charge breaks ties.
            let tiebreak = members.len().is_multiple_of(2).then_some(first);
            let voters = members.len() + usize::from(tiebreak.is_some());
            // Rows never written read as zeros: they vote without being
            // materialized.
            let b = self.chip.bank(bank).expect("valid bank");
            let present: Vec<&RowData> = members
                .iter()
                .copied()
                .chain(tiebreak)
                .filter_map(|r| b.row(r))
                .collect();
            let result = RowData::majority_with_zeros(cols, &present, voters - present.len());
            for (&r, &id) in members.iter().zip(ids) {
                self.chip
                    .bank_mut(bank)
                    .expect("valid bank")
                    .write_row(r, result.clone())
                    .expect("group within geometry");
                self.engine.invalidate_summary_record(id);
            }
        }
        for &r in members {
            self.apply_stuck(bank, r);
        }
    }

    /// The data summary of aggressor `row`, whose engine record is `id`.
    fn aggressor_summary(&mut self, bank: BankId, row: RowAddr, id: RecordId) -> DataSummary {
        let Executor {
            chip,
            engine,
            batched,
            ..
        } = self;
        let b = chip.bank(bank).expect("valid bank");
        let unwritten = DataSummary {
            ones_fraction: 0.5,
            checker_fraction: 0.5,
        };
        if !*batched {
            // The interpreter oracle scans one bit at a time, the
            // reference the replay's word-parallel scan matches.
            return b.row(row).map_or(unwritten, DataSummary::from_row_per_bit);
        }
        // During compiled replay existing rows go through the record's
        // summary cache (shared with the engine's victim summaries — same
        // record, same data, same invalidation). Missing rows stay
        // uncached: they can come into existence without an invalidation
        // call, so their default must never stick.
        match row_data(b, engine, id, row) {
            Some(r) => engine.summary_or_else(id, || DataSummary::from_row(r)),
            None => unwritten,
        }
    }

    fn flush_pending(&mut self, bank: BankId) {
        if let Some(p) = self.banks[bank.0 as usize].pending.take() {
            self.emit_single(bank, p.row, p.id, p.start, p.end);
        }
    }

    fn flush_all_pending(&mut self) {
        for b in 0..self.banks.len() as u8 {
            self.flush_pending(BankId(b));
        }
    }

    fn emit_single(
        &mut self,
        bank: BankId,
        agg: RowAddr,
        agg_id: RecordId,
        start: Picos,
        now: Picos,
    ) {
        let t_on = now - start;
        let geometry = *self.chip.geometry();
        let summary = self.aggressor_summary(bank, agg, agg_id);
        for (delta, dist) in [(-1i64, 1u32), (1, 1), (-2, 2), (2, 2)] {
            let Some(victim) = agg.offset(delta) else {
                continue;
            };
            if victim.0 >= geometry.rows_per_bank() || !geometry.same_subarray(agg, victim) {
                continue;
            }
            // Aggressor physically below the victim ⇒ side -1.
            let side: i8 = if delta > 0 { -1 } else { 1 };
            let id = self.engine.record(bank, victim);
            let hist = self.engine.side_mut(id);
            let kind = if hist.last_side != 0 && hist.last_side != side {
                // Alternation completed: one double-sided hammer cycle.
                // Emit on the below-side completion only, so each pair of
                // activations counts as exactly one hammer (§4.2).
                if side == -1 {
                    Some(AggressionKind::RowHammerDouble)
                } else {
                    None
                }
            } else if hist.last_side == side
                && Picos(start.0.saturating_sub(hist.last_end.0)).as_ns() >= FAR_GAP_NS
            {
                Some(AggressionKind::RowHammerFarDouble)
            } else {
                Some(AggressionKind::RowHammerSingle)
            };
            hist.last_side = side;
            hist.last_end = now;
            if let Some(kind) = kind {
                let ev = HammerEvent {
                    bank,
                    victim,
                    kind,
                    t_aggon: t_on,
                    temperature: self.env.temperature,
                    aggressor_data: summary,
                    distance: dist,
                    repeat: 1,
                };
                self.apply_event(&ev, id);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_comra(
        &mut self,
        bank: BankId,
        src: RowAddr,
        src_id: RecordId,
        dst: RowAddr,
        pre_to_act: Picos,
        t_on: Picos,
        now: Picos,
    ) {
        let geometry = *self.chip.geometry();
        let summary = self.aggressor_summary(bank, src, src_id);
        let reversed = src > dst;
        let sandwiched = (src.0.abs_diff(dst.0) == 2).then(|| RowAddr(src.0.min(dst.0) + 1));
        // At most the ±1/±2 neighbours of the two rows.
        let mut victims = [(RowAddr(0), 0u32); 8];
        let mut n = 0;
        for agg in [src, dst] {
            for (delta, dist) in [(-1i64, 1u32), (1, 1), (-2, 2), (2, 2)] {
                let Some(v) = agg.offset(delta) else { continue };
                if v == src
                    || v == dst
                    || v.0 >= geometry.rows_per_bank()
                    || !geometry.same_subarray(agg, v)
                {
                    continue;
                }
                match victims[..n].iter_mut().find(|(row, _)| *row == v) {
                    Some((_, d)) => *d = (*d).min(dist),
                    None => {
                        victims[n] = (v, dist);
                        n += 1;
                    }
                }
            }
        }
        for &(victim, dist) in &victims[..n] {
            let kind = if Some(victim) == sandwiched {
                AggressionKind::ComraDouble {
                    pre_to_act,
                    reversed,
                }
            } else {
                AggressionKind::ComraSingle {
                    pre_to_act,
                    reversed,
                }
            };
            let ev = HammerEvent {
                bank,
                victim,
                kind,
                t_aggon: t_on,
                temperature: self.env.temperature,
                aggressor_data: summary,
                distance: dist,
                repeat: 1,
            };
            let id = self.engine.record(bank, victim);
            self.apply_event(&ev, id);
            let hist = self.engine.side_mut(id);
            hist.last_side = if victim > src { -1 } else { 1 };
            hist.last_end = now;
        }
    }

    /// Emits the events of the group activation of `rows` (sorted; the
    /// first one's engine record is `first_id`).
    #[allow(clippy::too_many_arguments)]
    fn emit_simra(
        &mut self,
        bank: BankId,
        rows: &[RowAddr],
        first_id: RecordId,
        act_to_pre: Picos,
        pre_to_act: Picos,
        t_on: Picos,
        now: Picos,
    ) {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]));
        let geometry = *self.chip.geometry();
        let summary = self.aggressor_summary(bank, rows[0], first_id);
        let n_rows = rows.len().min(255) as u8;
        let lo = rows[0].0.saturating_sub(2);
        let hi = rows[rows.len() - 1].0 + 2;
        for v in lo..=hi.min(geometry.rows_per_bank() - 1) {
            let victim = RowAddr(v);
            if rows.binary_search(&victim).is_ok() {
                continue;
            }
            if !geometry.same_subarray(rows[0], victim) {
                continue;
            }
            let below1 = victim
                .offset(-1)
                .is_some_and(|r| rows.binary_search(&r).is_ok());
            let above1 = victim
                .offset(1)
                .is_some_and(|r| rows.binary_search(&r).is_ok());
            let near2 = victim
                .offset(-2)
                .is_some_and(|r| rows.binary_search(&r).is_ok())
                || victim
                    .offset(2)
                    .is_some_and(|r| rows.binary_search(&r).is_ok());
            let (kind, dist) = if below1 && above1 {
                (
                    AggressionKind::SimraDouble {
                        n_rows,
                        act_to_pre,
                        pre_to_act,
                    },
                    1,
                )
            } else if below1 || above1 {
                (
                    AggressionKind::SimraSingle {
                        n_rows,
                        act_to_pre,
                        pre_to_act,
                    },
                    1,
                )
            } else if near2 {
                (
                    AggressionKind::SimraSingle {
                        n_rows,
                        act_to_pre,
                        pre_to_act,
                    },
                    2,
                )
            } else {
                continue;
            };
            let ev = HammerEvent {
                bank,
                victim,
                kind,
                t_aggon: t_on,
                temperature: self.env.temperature,
                aggressor_data: summary,
                distance: dist,
                repeat: 1,
            };
            let id = self.engine.record(bank, victim);
            self.apply_event(&ev, id);
            let hist = self.engine.side_mut(id);
            hist.last_side = if below1 { -1 } else { 1 };
            hist.last_end = now;
        }
    }

    /// Applies `ev` to its victim, whose engine record is `id`.
    fn apply_event(&mut self, ev: &HammerEvent, id: RecordId) {
        if self.recording {
            self.recorded.push((*ev, id));
        }
        let Executor {
            chip,
            engine,
            flip_scratch,
            batched,
            ..
        } = self;
        let bank = chip.bank_mut(ev.bank).expect("event banks are valid");
        flip_scratch.clear();
        if *batched {
            // The record keeps the slot of the victim's data: no probe of
            // the bank's row map after the first event.
            let slot = match engine.data_slot(id) {
                Some(slot) if bank.holds(slot) => slot,
                _ => {
                    let slot = bank.slot_or(ev.victim, DataPattern::ZEROS);
                    engine.set_data_slot(id, slot);
                    slot
                }
            };
            let victim_data = bank.row_at_mut(slot).expect("a live slot");
            engine.hammer_batched_record(id, ev, victim_data, flip_scratch);
        } else {
            let victim_data = bank.row_mut_or(ev.victim, DataPattern::ZEROS);
            engine.hammer_record(id, ev, victim_data, flip_scratch);
        }
        if !self.flip_scratch.is_empty() {
            self.metrics.flips.add(self.flip_scratch.len() as u64);
            let logical = self.chip.to_logical(ev.victim);
            for f in &self.flip_scratch {
                self.report.flips.push(FlipRecord {
                    bank: ev.bank,
                    phys_row: ev.victim,
                    logical_row: logical,
                    col: f.col,
                    to: f.to,
                    class: f.class,
                });
            }
        }
    }
}

/// The data of row `row` of `bank` (`None` if never written), through the
/// slot kept in its engine record `id`: a bank map probe only the first
/// time, which caches the slot.
fn row_data<'b>(
    bank: &'b Bank,
    engine: &mut DisturbEngine,
    id: RecordId,
    row: RowAddr,
) -> Option<&'b RowData> {
    let slot = match engine.data_slot(id) {
        Some(slot) if bank.holds(slot) => slot,
        _ => {
            let slot = bank.slot(row)?;
            engine.set_data_slot(id, slot);
            slot
        }
    };
    bank.row_at(slot)
}
