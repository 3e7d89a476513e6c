//! Differential test of the executor's one production path against its
//! reference semantics. `Executor::try_run` compiles a program and replays
//! it through the batched disturbance caches; `Executor::interpret` walks
//! the program tree with the uncached engine. On identically seeded
//! executors the two must agree on everything observable: the
//! `RunReport`, the trace events each side sends to its own ring sink,
//! every row's data and accumulated disturbance, and — under a fault plan
//! — the sequence of `ExecError`s.
//!
//! The HC_first search answers most of its checks from a recorded closed
//! form instead of replaying them (`hcfirst::Trial`); the last two tests
//! hold each such check to a freshly prepared, fully simulated trial.
//!
//! The TRR evasion programs are built as one loop over their refresh
//! windows plus a remainder window; a test holds each to the unrolled
//! window sequence it stands for, on both paths.

use std::sync::{Arc, Mutex};

use pudhammer_suite::bender::fault::{
    FaultConfig, FaultKind, FaultPlan, StuckCell, TransientFault,
};
use pudhammer_suite::bender::{
    ActivityObserver, ExecError, Executor, RunReport, Step, TestEnv, TestProgram,
};
use pudhammer_suite::disturb::calib::{
    ACTS_PER_TREFI, COMRA_PRE_ACT_NS, SIMRA_DELAY_NS, T_RAS_NS, T_RP_NS,
};
use pudhammer_suite::dram::profiles::{self, TESTED_MODULES};
use pudhammer_suite::dram::{BankId, DataPattern, ModuleProfile, Picos, RowAddr, RowData};
use pudhammer_suite::hammer::experiments::combined::FRACTIONS;
use pudhammer_suite::hammer::experiments::simra::ds_targets;
use pudhammer_suite::hammer::fleet::{ChipUnderTest, Fleet, FleetConfig};
use pudhammer_suite::hammer::hcfirst::{measure_hc_first, prepare, HcSearch, Trial};
use pudhammer_suite::hammer::patterns::{self, Kernel, PatternClass};
use pudhammer_suite::observe::{RingBufferSink, ShardGuard, TraceEvent};
use pudhammer_suite::trr::{patterns as trr_patterns, SamplingTrr, SamplingTrrConfig};

/// One executor per path, built from the same profile, chip and seed, each
/// tracing into its own ring.
struct Pair {
    compiled: Executor,
    oracle: Executor,
    rings: [Arc<Mutex<RingBufferSink>>; 2],
}

impl Pair {
    fn new(profile: &ModuleProfile, chip_index: u32, seed: u64) -> Pair {
        let geometry = FleetConfig::quick().geometry;
        let rings = [(); 2].map(|_| Arc::new(Mutex::new(RingBufferSink::new(1 << 20))));
        let mut compiled = Executor::new(profile, geometry, chip_index, seed);
        let mut oracle = Executor::new(profile, geometry, chip_index, seed);
        compiled.set_trace_sink(rings[0].clone());
        oracle.set_trace_sink(rings[1].clone());
        Pair {
            compiled,
            oracle,
            rings,
        }
    }

    /// Applies the same host-side set-up to both executors.
    fn each(&mut self, mut f: impl FnMut(&mut Executor)) {
        f(&mut self.compiled);
        f(&mut self.oracle);
    }

    /// Writes `victim_dp` over the ±2 neighbourhood of every physical row
    /// in `aggressors`, then `aggressor_dp` over the aggressors.
    fn init(
        &mut self,
        bank: BankId,
        aggressors: &[RowAddr],
        victim_dp: DataPattern,
        aggressor_dp: DataPattern,
    ) {
        let rows = self.compiled.chip().geometry().rows_per_bank();
        self.each(|e| {
            for &a in aggressors {
                for r in a.0.saturating_sub(2)..=(a.0 + 2).min(rows - 1) {
                    e.write_row(bank, e.chip().to_logical(RowAddr(r)), victim_dp);
                }
            }
            for &a in aggressors {
                e.write_row(bank, e.chip().to_logical(a), aggressor_dp);
            }
        });
    }

    /// Runs `program` on both paths, asserts they agree on every
    /// observable, and returns the (shared) outcome.
    fn run(&mut self, program: &TestProgram, what: &str) -> Result<RunReport, ExecError> {
        let got = self.compiled.try_run(program);
        let want = self.oracle.interpret(program);
        match (&got, &want) {
            (Ok(g), Ok(w)) => {
                assert_eq!(g.flips, w.flips, "{what}: flips");
                assert_eq!(g.reads, w.reads, "{what}: reads");
                assert_eq!(g.elapsed, w.elapsed, "{what}: elapsed");
                assert_eq!(g.acts, w.acts, "{what}: acts");
            }
            _ => assert_eq!(got.as_ref().err(), want.as_ref().err(), "{what}: outcome"),
        }
        let [c, o] = [&self.rings[0], &self.rings[1]].map(drain);
        assert_eq!(c.len(), o.len(), "{what}: trace length");
        assert!(c == o, "{what}: trace events diverge");
        self.assert_state_matches(what);
        got
    }

    /// Row data and accumulated disturbance of every row in every bank.
    fn assert_state_matches(&self, what: &str) {
        let geometry = *self.compiled.chip().geometry();
        for b in 0..geometry.banks {
            let bank = BankId(b);
            let c = self.compiled.chip().bank(bank).expect("valid bank");
            let o = self.oracle.chip().bank(bank).expect("valid bank");
            for r in 0..geometry.rows_per_bank() {
                let row = RowAddr(r);
                assert!(c.row(row) == o.row(row), "{what}: data of row {b}/{r}");
                assert_eq!(
                    self.compiled.engine().accumulated(bank, row),
                    self.oracle.engine().accumulated(bank, row),
                    "{what}: accumulated disturbance of row {b}/{r}"
                );
            }
        }
        assert_eq!(self.compiled.elapsed(), self.oracle.elapsed(), "{what}");
        assert_eq!(
            self.compiled.fault_commands(),
            self.oracle.fault_commands(),
            "{what}: fault clock"
        );
    }
}

fn drain(ring: &Arc<Mutex<RingBufferSink>>) -> Vec<TraceEvent> {
    let mut ring = ring.lock().expect("ring poisoned");
    assert_eq!(ring.dropped(), 0, "ring must hold the full event stream");
    let events = ring.to_vec();
    ring.clear();
    events
}

/// Deepest loop nesting of `steps`.
fn nesting(steps: &[Step]) -> u32 {
    steps
        .iter()
        .map(|s| match s {
            Step::Cmd(_) => 0,
            Step::Loop { body, .. } => 1 + nesting(body),
        })
        .max()
        .unwrap_or(0)
}

#[test]
fn driver_kernels_match_the_oracle() {
    // Every kernel constructor the drivers and the server use, on every
    // family of the quick fleet, at the default and a RowPress on-time,
    // at hammer counts below, at and far beyond the loop-batching cutoff.
    let config = FleetConfig::quick();
    let mut fleet = Fleet::build(config);
    let mut runs_with_flips = 0;
    for chip in &mut fleet.chips {
        let bank = chip.bank();
        let victims = chip.victim_rows();
        let sas = chip.tested_subarrays();
        let supports_simra = chip.profile.supports_simra();
        let c = chip.exec().chip();
        let mut kernels: Vec<Kernel> = Vec::new();
        for &v in victims.iter().step_by(victims.len().div_ceil(3)) {
            kernels.extend(patterns::rowhammer_ds_for(c, v));
            kernels.extend(patterns::rowhammer_ss_for(c, v));
            kernels.extend(patterns::comra_ds_for(c, v, false));
            kernels.extend(patterns::comra_ds_for(c, v, true));
            kernels.extend(patterns::comra_ss_for(
                c,
                v,
                patterns::DEFAULT_FAR_OFFSET,
                false,
            ));
        }
        if supports_simra {
            for n in [2, 4, 8, 16, 32] {
                kernels.extend(patterns::simra_ds_kernels(c, sas[1], n).first().copied());
            }
        }
        let pressed: Vec<Kernel> = kernels
            .iter()
            .map(|k| k.with_t_aggon(Picos::from_ns(7800.0)))
            .collect();
        kernels.extend(pressed);
        let aggressors: Vec<Vec<RowAddr>> = kernels
            .iter()
            .map(|k| {
                patterns::simra_members(c, k)
                    .unwrap_or_else(|| k.aggressors().iter().map(|&a| c.to_physical(a)).collect())
            })
            .collect();

        let mut pair = Pair::new(chip.profile, chip.chip_index, config.seed);
        for (kernel, aggs) in kernels.iter().zip(&aggressors) {
            let (victim_dp, aggressor_dp) = match kernel {
                Kernel::Simra { .. } => (DataPattern::ONES, DataPattern::ZEROS),
                _ => (DataPattern::CHECKER_AA, DataPattern::CHECKER_55),
            };
            for count in [1, 3, 4, 2_000, 300_000] {
                pair.init(bank, aggs, victim_dp, aggressor_dp);
                let what = format!("{} {kernel:?} x{count}", chip.profile.key());
                let report = pair
                    .run(&kernel.program(bank, count), &what)
                    .expect("kernel programs are valid");
                runs_with_flips += usize::from(!report.flips.is_empty());
            }
        }
    }
    assert!(runs_with_flips > 0, "the kernels must reach HC_first");
}

#[test]
fn trr_programs_with_refresh_and_nested_loops_match_the_oracle() {
    // A sampling TRR observer on each side, refresh on: REF commands sweep
    // rows and trigger TRR victim refreshes between hammer bursts.
    let profile = profiles::most_simra_vulnerable();
    let mut pair = Pair::new(profile, 0, 24);
    pair.each(|e| {
        e.set_env(TestEnv::with_refresh());
        e.set_observer(Box::new(SamplingTrr::new(
            SamplingTrrConfig::default(),
            profile.mapping(),
            0xC0FFEE,
        )));
    });
    let bank = BankId(0);
    let logical = |pair: &Pair, phys: u32| pair.compiled.chip().to_logical(RowAddr(phys));
    let (a, b, dummy) = (logical(&pair, 20), logical(&pair, 22), logical(&pair, 60));
    let simra = patterns::simra_for_mask(RowAddr(64), 0b0110);
    let Kernel::Simra { r1, r2, .. } = simra else {
        unreachable!("simra_for_mask builds a SiMRA kernel")
    };
    // Nested: hammer bursts and reads inside a refresh-interleaved loop.
    let mut nested = TestProgram::new();
    nested.repeat(40, |outer| {
        outer.repeat(3, |mid| {
            mid.repeat(50, |inner| {
                inner
                    .act(bank, a, Picos::from_ns(36.0))
                    .pre(bank, Picos::from_ns(15.0))
                    .act(bank, b, Picos::from_ns(36.0))
                    .pre(bank, Picos::from_ns(15.0));
            });
            mid.act(bank, dummy, Picos::from_ns(36.0))
                .rd(bank, Picos::from_ns(15.0))
                .pre(bank, Picos::from_ns(15.0));
        });
        outer.refresh(Picos::from_ns(350.0));
    });
    let programs = [
        (
            "rowhammer evasion",
            trr_patterns::rowhammer_evasion(bank, &[a, b], dummy, 3_000),
        ),
        (
            "comra evasion",
            trr_patterns::comra_evasion(bank, a, b, dummy, 2_000),
        ),
        (
            "simra evasion",
            trr_patterns::simra_evasion(bank, r1, r2, 2_000),
        ),
        ("nested refresh loops", nested),
    ];
    for (what, program) in &programs {
        pair.init(
            bank,
            &[
                RowAddr(20),
                RowAddr(22),
                RowAddr(60),
                RowAddr(66),
                RowAddr(70),
            ],
            DataPattern::CHECKER_AA,
            DataPattern::CHECKER_55,
        );
        pair.run(program, what).expect("TRR programs are valid");
    }
}

/// Reference builders: the evasion patterns as flat window sequences, one
/// burst loop, REF and dummy windows per refresh window, the way
/// `trr::patterns` built them before they became window loops.
mod flat {
    use super::*;

    fn t_ras() -> Picos {
        Picos::from_ns(T_RAS_NS)
    }

    fn t_rp() -> Picos {
        Picos::from_ns(T_RP_NS)
    }

    fn t_rfc() -> Picos {
        Picos::from_ns(350.0)
    }

    fn dummy_windows(p: &mut TestProgram, bank: BankId, dummy: RowAddr) {
        for _ in 0..3 {
            p.repeat(ACTS_PER_TREFI, |body| {
                body.act(bank, dummy, t_ras()).pre(bank, t_rp());
            });
            p.refresh(t_rfc());
        }
    }

    pub fn rowhammer(bank: BankId, aggs: &[RowAddr], dummy: RowAddr, hammers: u64) -> TestProgram {
        let per_window = (ACTS_PER_TREFI / aggs.len() as u64).max(1);
        let mut p = TestProgram::new();
        let mut done = 0;
        while done < hammers {
            let burst = per_window.min(hammers - done);
            p.repeat(burst, |body| {
                for &a in aggs {
                    body.act(bank, a, t_ras()).pre(bank, t_rp());
                }
            });
            p.refresh(t_rfc());
            dummy_windows(&mut p, bank, dummy);
            done += burst;
        }
        p
    }

    pub fn comra(
        bank: BankId,
        src: RowAddr,
        dst: RowAddr,
        dummy: RowAddr,
        pairs: u64,
    ) -> TestProgram {
        let mut p = TestProgram::new();
        let mut done = 0;
        while done < pairs {
            let burst = (ACTS_PER_TREFI / 2).min(pairs - done);
            p.repeat(burst, |body| {
                body.act(bank, src, t_ras())
                    .pre(bank, Picos::from_ns(COMRA_PRE_ACT_NS))
                    .act(bank, dst, t_ras())
                    .pre(bank, t_rp());
            });
            p.refresh(t_rfc());
            dummy_windows(&mut p, bank, dummy);
            done += burst;
        }
        p
    }

    pub fn simra(bank: BankId, r1: RowAddr, r2: RowAddr, ops: u64) -> TestProgram {
        let d = Picos::from_ns(SIMRA_DELAY_NS);
        let mut p = TestProgram::new();
        let mut done = 0;
        while done < ops {
            let burst = (ACTS_PER_TREFI / 2).min(ops - done);
            p.repeat(burst, |body| {
                body.act(bank, r1, d)
                    .pre(bank, d)
                    .act(bank, r2, t_ras())
                    .pre(bank, t_rp());
            });
            p.refresh(t_rfc());
            done += burst;
        }
        p
    }
}

/// What an observer is asked and answers, in order.
#[derive(Debug, Clone, PartialEq)]
enum Seen {
    Act(BankId, RowAddr),
    Ref(Vec<(BankId, RowAddr)>),
}

/// A sampling TRR that logs every `on_act` and every `on_ref` answer.
struct Logged {
    trr: SamplingTrr,
    log: Arc<Mutex<Vec<Seen>>>,
}

impl ActivityObserver for Logged {
    fn on_act(&mut self, bank: BankId, logical_row: RowAddr) {
        self.log.lock().unwrap().push(Seen::Act(bank, logical_row));
        self.trr.on_act(bank, logical_row);
    }

    fn on_ref(&mut self, bank_hint: BankId, victims: &mut Vec<(BankId, RowAddr)>) {
        self.trr.on_ref(bank_hint, victims);
        self.log.lock().unwrap().push(Seen::Ref(victims.clone()));
    }
}

/// Everything observable of one TRR run.
#[derive(Debug, PartialEq)]
struct TrrRun {
    flips: Vec<pudhammer_suite::bender::FlipRecord>,
    reads: Vec<RowData>,
    elapsed: Picos,
    acts: u64,
    trace: Vec<TraceEvent>,
    seen: Vec<Seen>,
    rows: Vec<Option<RowData>>,
    accumulated: Vec<(f64, f64)>,
}

/// Runs `program` on a fresh executor with refresh on and a logged
/// sampling TRR, compiled (`try_run`) or interpreted, after writing
/// `victim_dp` around and `aggressor_dp` over the physical `aggressors`.
fn trr_run(
    program: &TestProgram,
    aggressors: &[RowAddr],
    (victim_dp, aggressor_dp): (DataPattern, DataPattern),
    compiled: bool,
) -> TrrRun {
    let profile = profiles::most_simra_vulnerable();
    let geometry = FleetConfig::quick().geometry;
    let mut exec = Executor::new(profile, geometry, 0, 24);
    let ring = Arc::new(Mutex::new(RingBufferSink::new(1 << 20)));
    exec.set_trace_sink(ring.clone());
    let log = Arc::new(Mutex::new(Vec::new()));
    exec.set_env(TestEnv::with_refresh());
    exec.set_observer(Box::new(Logged {
        trr: SamplingTrr::new(SamplingTrrConfig::default(), profile.mapping(), 0xC0FFEE),
        log: log.clone(),
    }));
    let bank = BankId(0);
    for &a in aggressors {
        for r in a.0.saturating_sub(2)..=a.0 + 2 {
            exec.write_row(bank, exec.chip().to_logical(RowAddr(r)), victim_dp);
        }
    }
    for &a in aggressors {
        exec.write_row(bank, exec.chip().to_logical(a), aggressor_dp);
    }
    let report = if compiled {
        exec.try_run(program)
    } else {
        exec.interpret(program)
    }
    .expect("TRR programs are valid");
    let rows_per_bank = geometry.rows_per_bank();
    let trace = drain(&ring);
    let seen = log.lock().unwrap().clone();
    TrrRun {
        flips: report.flips,
        reads: report.reads,
        elapsed: report.elapsed,
        acts: report.acts,
        trace,
        seen,
        rows: (0..rows_per_bank)
            .map(|r| exec.chip().bank(bank).unwrap().row(RowAddr(r)).cloned())
            .collect(),
        accumulated: (0..rows_per_bank)
            .map(|r| exec.engine().accumulated(bank, RowAddr(r)))
            .collect(),
    }
}

#[test]
fn window_loop_evasion_programs_match_their_flat_window_sequences() {
    // Physical rows; the quick fleet's most SiMRA-vulnerable family maps
    // them to logical addresses below. Every count leaves a remainder
    // window (78 ACT pairs or 156/k hammers per window), and one RowHammer
    // count is an exact multiple.
    let profile = profiles::most_simra_vulnerable();
    let chip = Executor::new(profile, FleetConfig::quick().geometry, 0, 24);
    let logical = |phys: u32| chip.chip().to_logical(RowAddr(phys));
    let bank = BankId(0);
    let (a, b, c, dummy) = (logical(20), logical(22), logical(24), logical(60));
    // A SiMRA-4 group sandwiching the family's most vulnerable row.
    let (_, hero) = chip
        .engine()
        .model()
        .hero_row()
        .expect("chip 0 has the hero row");
    let hero_sa = chip
        .chip()
        .geometry()
        .subarray_of(hero)
        .expect("hero in range");
    let simra = patterns::simra_ds_kernels(chip.chip(), hero_sa, 4)
        .into_iter()
        .find(|k| patterns::simra_victims(chip.chip(), k).0.contains(&hero))
        .expect("a SiMRA-4 group sandwiches the hero row");
    let Kernel::Simra { r1, r2, .. } = simra else {
        unreachable!("simra_ds_kernels builds SiMRA kernels")
    };
    let members = patterns::simra_members(chip.chip(), &simra).expect("a SiMRA group");
    let checker = (DataPattern::CHECKER_AA, DataPattern::CHECKER_55);
    let cases = [
        (
            "1-sided rowhammer",
            trr_patterns::rowhammer_evasion(bank, &[a], dummy, 500),
            flat::rowhammer(bank, &[a], dummy, 500),
            vec![RowAddr(20), RowAddr(60)],
            checker,
        ),
        (
            "3-sided rowhammer",
            trr_patterns::rowhammer_evasion(bank, &[a, b, c], dummy, 3_000),
            flat::rowhammer(bank, &[a, b, c], dummy, 3_000),
            vec![RowAddr(20), RowAddr(22), RowAddr(24), RowAddr(60)],
            checker,
        ),
        (
            "2-sided rowhammer, whole windows",
            trr_patterns::rowhammer_evasion(bank, &[a, b], dummy, 780),
            flat::rowhammer(bank, &[a, b], dummy, 780),
            vec![RowAddr(20), RowAddr(22), RowAddr(60)],
            checker,
        ),
        (
            "comra",
            trr_patterns::comra_evasion(bank, a, b, dummy, 2_000),
            flat::comra(bank, a, b, dummy, 2_000),
            vec![RowAddr(20), RowAddr(22), RowAddr(60)],
            checker,
        ),
        (
            "simra",
            trr_patterns::simra_evasion(bank, r1, r2, 2_000),
            flat::simra(bank, r1, r2, 2_000),
            members,
            // SiMRA flips 1→0: all-ones victims, all-zeros group.
            (DataPattern::ONES, DataPattern::ZEROS),
        ),
    ];
    let mut any_flips = false;
    for (what, windowed, unrolled, aggressors, patterns) in &cases {
        assert!(
            windowed.steps().len() <= 10,
            "{what}: {} steps",
            windowed.steps().len()
        );
        assert_eq!(windowed.act_count(), unrolled.act_count(), "{what}: acts");
        assert_eq!(windowed.cmd_count(), unrolled.cmd_count(), "{what}: cmds");
        assert_eq!(windowed.duration(), unrolled.duration(), "{what}: duration");
        for compiled in [true, false] {
            let got = trr_run(windowed, aggressors, *patterns, compiled);
            let want = trr_run(unrolled, aggressors, *patterns, compiled);
            assert!(
                got.seen
                    .iter()
                    .any(|s| matches!(s, Seen::Ref(v) if !v.is_empty())),
                "{what}: TRR must refresh victims"
            );
            any_flips |= !got.flips.is_empty();
            assert!(
                got == want,
                "{what} (compiled: {compiled}) diverges from its flat reference"
            );
        }
    }
    assert!(any_flips, "the SiMRA program must flip bits under TRR");
}

/// SplitMix64: a seeded, dependency-free source of program shapes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// Delays spanning SiMRA (3 ns), CoMRA (7.5 ns), the violation threshold,
/// nominal timings, tRFC and RowPress on-times.
const DELAYS_NS: [f64; 9] = [1.0, 3.0, 7.5, 12.9, 13.5, 15.0, 36.0, 350.0, 7800.0];
const PATTERNS: [DataPattern; 4] = [
    DataPattern::ZEROS,
    DataPattern::ONES,
    DataPattern::CHECKER_55,
    DataPattern::CHECKER_AA,
];

/// Appends one random command. `hammer_only` restricts the mix to the
/// commands a batchable loop body may hold (ACT/PRE/PREA/NOP).
fn random_cmd(rng: &mut Rng, p: &mut TestProgram, rows: &[RowAddr], hammer_only: bool) {
    let bank = BankId(rng.below(2) as u8);
    let delay = Picos::from_ns(rng.pick(&DELAYS_NS));
    match rng.below(if hammer_only { 6 } else { 9 }) {
        0..=2 => p.act(bank, rng.pick(rows), delay),
        3 => p.pre(bank, delay),
        4 => p.pre_all(delay),
        5 => p.wait(delay),
        6 => p.rd(bank, delay),
        7 => p.wr(bank, rng.pick(&PATTERNS), delay),
        _ => p.refresh(delay),
    };
}

/// A random program whose loops nest exactly `depth` deep along one spine,
/// with random commands and shallow side loops around it. Loop counts are
/// clamped so the interpreter executes at most about `budget` commands per
/// level; batchable loops (replayed in bulk) may count far higher.
fn random_program(rng: &mut Rng, rows: &[RowAddr], depth: u32, budget: u64) -> TestProgram {
    let mut p = TestProgram::new();
    let hammer_only = rng.below(3) == 0;
    let items = 1 + rng.below(4);
    let spine = rng.below(items);
    for i in 0..items {
        let body_depth = if depth > 0 && i == spine {
            Some(depth - 1)
        } else if depth > 0 && rng.below(4) == 0 {
            Some(rng.below(u64::from(depth.min(3))) as u32)
        } else {
            None
        };
        let Some(body_depth) = body_depth else {
            random_cmd(rng, &mut p, rows, hammer_only);
            continue;
        };
        let body = random_program(rng, rows, body_depth, budget / 2);
        let per_iter = body.cmd_count().max(1);
        let batchable = body.steps().iter().all(Step::is_batchable_cmd);
        let mut count = rng.pick(&[1, 2, 3, 4, 5, 17, 1_000, 100_000]);
        if !batchable {
            count = count.min((budget / per_iter).max(1));
        }
        p.repeat(count, |b| {
            b.extend(&body);
        });
    }
    p
}

#[test]
fn random_programs_nested_up_to_depth_22_match_the_oracle() {
    let mut total_flips = 0;
    for seed in 0..36u64 {
        let profile = &TESTED_MODULES[seed as usize % TESTED_MODULES.len()];
        let mut pair = Pair::new(profile, 0, seed);
        let mut rng = Rng(seed);
        // Logical rows straddling a 32-row SiMRA block boundary and a
        // subarray boundary (128), so ACT pairs hit CoMRA copies, SiMRA
        // groups and subarray edges.
        let rows: Vec<RowAddr> = (14..=42).chain(124..=132).map(RowAddr).collect();
        let phys: Vec<RowAddr> = rows
            .iter()
            .map(|&r| pair.compiled.chip().to_physical(r))
            .collect();
        for bank in [BankId(0), BankId(1)] {
            pair.init(
                bank,
                &phys,
                DataPattern::CHECKER_AA,
                DataPattern::CHECKER_55,
            );
        }
        // Deep programs first (depth 20 was past the old compiler's nesting
        // cap), then shallower ones on the state they leave behind.
        for (i, depth) in [20 + (seed % 3) as u32, rng.below(6) as u32, 1]
            .into_iter()
            .enumerate()
        {
            let program = random_program(&mut rng, &rows, depth, 4_000);
            assert_eq!(nesting(program.steps()), depth);
            let what = format!("seed {seed} program {i} (depth {depth})");
            let report = pair.run(&program, &what).expect("programs are valid");
            total_flips += report.flips.len();
        }
    }
    assert!(total_flips > 0, "random programs must reach HC_first");
}

#[test]
fn fault_plan_fires_identically_on_both_paths() {
    // One plan on both sides: transient faults, stuck cells forced after
    // every write, and a chip death. The fault clock advances by each
    // program's full command count, bulk-replayed iterations included.
    let profile = &TESTED_MODULES[1];
    let mut pair = Pair::new(profile, 0, 103);
    let plan = FaultPlan {
        transients: vec![
            TransientFault {
                kind: FaultKind::CommandTimeout,
                at_cmd: 150,
            },
            TransientFault {
                kind: FaultKind::BusGlitch,
                at_cmd: 60_000,
            },
            TransientFault {
                kind: FaultKind::ActDrop,
                at_cmd: 60_001,
            },
        ],
        dead_after: Some(1_500_000),
        stuck: vec![
            StuckCell {
                bank: 0,
                row: 21,
                col: 3,
                value: true,
            },
            StuckCell {
                bank: 0,
                row: 22,
                col: 7,
                value: false,
            },
        ],
    };
    pair.each(|e| e.install_fault_plan(plan.clone()));
    let bank = BankId(0);
    let a = pair.compiled.chip().to_logical(RowAddr(20));
    let b = pair.compiled.chip().to_logical(RowAddr(22));
    let mut errors = Vec::new();
    for round in 0..16u64 {
        let count = [100, 5_000, 40_000, 250_000][round as usize % 4];
        let mut program = TestProgram::new();
        // Rewrite the aggressor through the command path (stuck cells are
        // forced on it), then hammer and read the victim's neighbour.
        program
            .act(bank, b, Picos::from_ns(36.0))
            .wr(bank, DataPattern::CHECKER_55, Picos::from_ns(15.0))
            .pre(bank, Picos::from_ns(15.0));
        program.repeat(count, |body| {
            body.act(bank, a, Picos::from_ns(36.0))
                .pre(bank, Picos::from_ns(15.0))
                .act(bank, b, Picos::from_ns(36.0))
                .pre(bank, Picos::from_ns(15.0));
        });
        program
            .act(bank, b, Picos::from_ns(36.0))
            .rd(bank, Picos::from_ns(15.0))
            .pre(bank, Picos::from_ns(15.0));
        pair.init(
            bank,
            &[RowAddr(20), RowAddr(22)],
            DataPattern::CHECKER_AA,
            DataPattern::CHECKER_55,
        );
        if let Err(e) = pair.run(&program, &format!("round {round} x{count}")) {
            errors.push(e);
        }
    }
    let kinds: Vec<FaultKind> = errors
        .iter()
        .map(|e| match e {
            ExecError::Fault { kind, .. } => *kind,
            other => panic!("unexpected error {other:?}"),
        })
        .collect();
    assert_eq!(
        kinds[..3],
        [
            FaultKind::CommandTimeout,
            FaultKind::BusGlitch,
            FaultKind::ActDrop
        ]
    );
    assert!(kinds.len() > 3, "the chip must die before the last round");
    assert!(kinds[3..].iter().all(|&k| k == FaultKind::ChipDead));
}

/// Every `(kernel, victim)` the drivers and the server build on `chip`:
/// the `PatternClass::kernel_for` classes and the other `patterns::*_for`
/// constructors around the first victim that hosts them, the SiMRA class
/// targets, and single-sided SiMRA groups with an edge victim.
fn hc_first_targets(chip: &mut ChipUnderTest) -> Vec<(Kernel, RowAddr)> {
    let victims = chip.victim_rows();
    let c = chip.exec().chip();
    let victim = *victims
        .iter()
        .find(|&&v| patterns::rowhammer_ds_for(c, v).is_some())
        .expect("some victim hosts double-sided kernels");
    let classes = [
        PatternClass::RhDs,
        PatternClass::RhSs,
        PatternClass::ComraDs,
        PatternClass::ComraSs,
    ];
    let kernels = classes
        .iter()
        .map(|class| class.kernel_for(c, victim))
        .chain([
            patterns::rowhammer_far_ds_for(c, victim, patterns::DEFAULT_FAR_OFFSET),
            patterns::comra_ds_for(c, victim, true),
            patterns::comra_ss_for(c, victim, patterns::DEFAULT_FAR_OFFSET, true),
        ]);
    let mut targets: Vec<(Kernel, RowAddr)> = kernels
        .map(|k| (k.expect("the victim hosts every kernel"), victim))
        .collect();
    if chip.profile.supports_simra() {
        for n in [2, 4, 8, 16] {
            targets.push(PatternClass::Simra(n).target(chip).expect("SiMRA target"));
        }
        let sa = chip.tested_subarrays()[0];
        let c = chip.exec().chip();
        for n in [2, 8, 32] {
            let kernel = patterns::simra_ss_kernels(c, sa, n)[0];
            let (_, edge) = patterns::simra_victims(c, &kernel);
            targets.push((kernel, edge[0]));
        }
    }
    targets
}

/// A trial's prelude of `(stage, count)`, the kernel whose count is
/// searched after it, and the victim.
type StagedTrial = (Vec<(Kernel, u64)>, Kernel, RowAddr);

/// The §6 staged trials on `chip`'s quick-scale Fig. 21–23 victims:
/// double-sided RowHammer after a CoMRA, a SiMRA and a CoMRA→SiMRA
/// prelude at each of [`FRACTIONS`] of every stage's own HC_first, the
/// HC_firsts measured on the chip's executor with `dp`.
fn staged_targets(chip: &mut ChipUnderTest, dp: DataPattern) -> Vec<StagedTrial> {
    let bank = chip.bank();
    let mut staged = Vec::new();
    let cap = FleetConfig::quick().victims_per_subarray as usize * 6;
    for (simra, victim) in ds_targets(chip, 4, cap) {
        let c = chip.exec().chip();
        let (Some(rh), Some(comra)) = (
            patterns::rowhammer_ds_for(c, victim),
            patterns::comra_ds_for(c, victim, false),
        ) else {
            continue;
        };
        let search = HcSearch::default();
        let mut hc = |k: &Kernel| {
            measure_hc_first(chip.exec(), bank, k, victim, dp, dp.negated(), &search)
                .expect("the stage flips the victim within the cap")
        };
        let (hc_comra, hc_simra) = (hc(&comra), hc(&simra));
        for fr in FRACTIONS {
            let at = |h: u64| ((h as f64) * fr) as u64;
            let (c, s) = ((comra, at(hc_comra)), (simra, at(hc_simra)));
            for prelude in [vec![c], vec![s], vec![c, s]] {
                staged.push((prelude, rh, victim));
            }
        }
    }
    staged
}

/// Whether `victim` flips within `prelude` and then `count` hammers of
/// `kernel` on `exec`, prepared and simulated from scratch: each stage
/// with a nonzero count has its aggressors rewritten with `dp` and runs
/// in turn, and a flip in a stage ends the trial.
fn simulated_trial(
    exec: &mut Executor,
    bank: BankId,
    prelude: &[(Kernel, u64)],
    kernel: &Kernel,
    victim: RowAddr,
    dp: DataPattern,
    count: u64,
) -> Result<bool, ExecError> {
    prepare(exec, bank, kernel, victim, dp, dp.negated());
    let flipped = |report: RunReport| report.flips.iter().any(|f| f.phys_row == victim);
    for (stage, stage_count) in prelude.iter().filter(|(_, c)| *c > 0) {
        for a in stage.aggressors() {
            exec.write_row(bank, a, dp);
        }
        if flipped(exec.try_run(&stage.program(bank, *stage_count))?) {
            return Ok(true);
        }
    }
    Ok(flipped(exec.try_run(&kernel.program(bank, count))?))
}

/// The closed-form trials of one test and the simulated oracle they are
/// held to, on two executors of the same chip.
struct Oracle {
    closed: Executor,
    simulated: Executor,
    bank: BankId,
    trials: u64,
    crossings: u64,
    /// Checks of at most 3 hammers: simulated by design.
    short: u64,
}

impl Oracle {
    /// Records a closed form at the search cap, bisects the crossing n*
    /// on it, then holds the checks at 4, 5, n*-1, n*, n*+1 and the cap
    /// to simulated trials.
    fn hold(
        &mut self,
        prelude: &[(Kernel, u64)],
        kernel: &Kernel,
        victim: RowAddr,
        dp: DataPattern,
        what: &str,
    ) {
        let max = HcSearch::default().max_hammers;
        let mut trial = Trial::new(
            &mut self.closed,
            self.bank,
            prelude,
            kernel,
            victim,
            dp,
            dp.negated(),
        );
        let mut check = |count| trial.try_check(count).expect("no fault plan");
        self.trials += 1;
        let mut counts = vec![4, 5, max];
        if check(max) {
            let (mut lo, mut hi) = if check(4) { (3, 4) } else { (4, max) };
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                *(if check(mid) { &mut hi } else { &mut lo }) = mid;
            }
            self.crossings += 1;
            counts.extend([hi - 1, hi, hi + 1]);
        }
        self.short += counts.iter().filter(|&&c| c <= 3).count() as u64;
        for count in counts {
            let want = simulated_trial(
                &mut self.simulated,
                self.bank,
                prelude,
                kernel,
                victim,
                dp,
                count,
            );
            let what = format!("{what} {kernel:?} victim {victim:?} dp {dp:?} x{count}");
            assert_eq!(check(count), want.expect("no fault plan"), "{what}");
        }
    }
}

#[test]
fn closed_form_hc_first_checks_match_simulated_trials() {
    // Chip 0 of every quick family, every driver and server kernel at the
    // default and a RowPress on-time, all four tested data patterns; on
    // the SiMRA-capable families also the Fig. 21–23 staged trials. Each
    // trial records its closed form at the search cap; the crossing n* is
    // then bisected on the closed form, and 4, 5, n*-1, n*, n*+1 and the
    // cap are each checked against a simulated trial.
    let config = FleetConfig::quick();
    let mut fleet = Fleet::build(config);
    let dp = DataPattern::CHECKER_55;
    // The stage HC_firsts are measured before the shard that counts the
    // trials' replays is installed.
    let staged_per_chip: Vec<_> = fleet
        .chips
        .iter_mut()
        .filter(|c| c.chip_index == 0)
        .map(|chip| match chip.profile.supports_simra() {
            true => staged_targets(chip, dp),
            false => Vec::new(),
        })
        .collect();
    let guard = ShardGuard::install();
    let (mut trials, mut crossings, mut short, mut staged) = (0u64, 0u64, 0u64, 0u64);
    let chips = fleet.chips.iter_mut().filter(|c| c.chip_index == 0);
    for (chip, staged_trials) in chips.zip(staged_per_chip) {
        let targets = hc_first_targets(chip);
        let new_exec = || Executor::new(chip.profile, config.geometry, 0, config.seed);
        let mut oracle = Oracle {
            closed: new_exec(),
            simulated: new_exec(),
            bank: chip.bank(),
            trials: 0,
            crossings: 0,
            short: 0,
        };
        let key = chip.profile.key();
        for (kernel, victim) in targets {
            for kernel in [kernel, kernel.with_t_aggon(Picos::from_ns(7800.0))] {
                for dp in DataPattern::TESTED {
                    oracle.hold(&[], &kernel, victim, dp, &key);
                }
            }
        }
        for (prelude, kernel, victim) in staged_trials {
            oracle.hold(&prelude, &kernel, victim, dp, &format!("{key} {prelude:?}"));
            staged += 1;
        }
        trials += oracle.trials;
        crossings += oracle.crossings;
        short += oracle.short;
    }
    assert!(staged >= 4 * 9, "{staged} staged trials");
    assert!(
        crossings * 2 > trials,
        "{crossings} of {trials} trials cross"
    );
    // Each trial simulates its recording at the cap and its checks of at
    // most 3 hammers: every other check is answered in closed form.
    let replays = guard.registry().counter("hcfirst.replays").get();
    assert_eq!(replays, trials + short, "one recording per trial");
}

#[test]
fn closed_form_checks_raise_the_same_errors() {
    // A `--fault-seed 103` plan on both sides (chip 0 of every quick
    // family, with one Fig. 21 staged trial each), then the refresh-window
    // bound of the strict environment: every check must fail, or pass
    // with the same answer, exactly where the simulated trial does.
    let config = FleetConfig::quick();
    let faults = FaultConfig::from_seed(103);
    let mut fleet = Fleet::build(config);
    let mut errors = Vec::new();
    let counts = [1, 4, 16, 64, 256, 1024, 4096, 16384, 3000, 5000, 65536];
    let (mut staged, mut staged_errors) = (0, 0);
    for chip in fleet.chips.iter_mut().filter(|c| c.chip_index == 0) {
        let bank = chip.bank();
        let new_exec = || {
            let mut e = Executor::new(chip.profile, config.geometry, 0, config.seed);
            e.enable_faults(&faults, &chip.profile.key(), 0);
            e
        };
        let (mut closed, mut simulated) = (new_exec(), new_exec());
        if closed.fault_plan().is_none() {
            continue;
        }
        let mut trials: Vec<StagedTrial> = hc_first_targets(chip)[..3]
            .iter()
            .map(|&(kernel, victim)| (Vec::new(), kernel, victim))
            .collect();
        // Fig. 21's staged trial: CoMRA at half its HC_first, then
        // double-sided RowHammer.
        let (rh, victim) = (trials[0].1, trials[0].2);
        let dp = DataPattern::CHECKER_55;
        let comra = patterns::comra_ds_for(chip.exec().chip(), victim, false)
            .expect("the victim hosts a CoMRA kernel");
        let hc = measure_hc_first(
            chip.exec(),
            bank,
            &comra,
            victim,
            dp,
            dp.negated(),
            &HcSearch::default(),
        )
        .expect("CoMRA flips the victim within the cap");
        trials.push((vec![(comra, hc / 2)], rh, victim));
        staged += 1;
        for (prelude, kernel, victim) in &trials {
            for dp in DataPattern::TESTED {
                let mut trial = Trial::new(
                    &mut closed,
                    bank,
                    prelude,
                    kernel,
                    *victim,
                    dp,
                    dp.negated(),
                );
                for count in counts {
                    let got = trial.try_check(count);
                    let want =
                        simulated_trial(&mut simulated, bank, prelude, kernel, *victim, dp, count);
                    let what = format!(
                        "{} {prelude:?} {kernel:?} dp {dp:?} x{count}",
                        chip.profile.key()
                    );
                    assert_eq!(got, want, "{what}");
                    staged_errors += usize::from(!prelude.is_empty() && got.is_err());
                    errors.extend(got.err());
                }
            }
        }
        assert_eq!(closed.fault_commands(), simulated.fault_commands());
    }
    assert!(staged > 0, "seed 103 plans faults");
    assert!(staged_errors > 0, "a fault hits a staged trial");
    let fault = |transient: bool| {
        errors
            .iter()
            .any(|e| matches!(e, ExecError::Fault { kind, .. } if kind.is_transient() == transient))
    };
    assert!(fault(true), "seed 103 injects transient faults");
    assert!(fault(false), "seed 103 kills a chip");

    let new_exec = || {
        let mut e = Executor::new(&TESTED_MODULES[1], config.geometry, 0, config.seed);
        e.set_env(TestEnv::characterization_strict());
        e
    };
    let (mut closed, mut simulated) = (new_exec(), new_exec());
    let bank = BankId(0);
    let victim = RowAddr(40);
    let kernel = patterns::rowhammer_ds_for(closed.chip(), victim)
        .expect("row 40 hosts a double-sided kernel")
        .with_t_aggon(Picos::from_ns(7800.0));
    let dp = DataPattern::CHECKER_55;
    let mut trial = Trial::new(&mut closed, bank, &[], &kernel, victim, dp, dp.negated());
    let mut exceeded = 0;
    for count in [4, 1000, 100_000, 2000, 10_000] {
        let got = trial.try_check(count);
        let want = simulated_trial(&mut simulated, bank, &[], &kernel, victim, dp, count);
        assert_eq!(got, want, "strict x{count}");
        exceeded += usize::from(matches!(got, Err(ExecError::RefreshWindowExceeded { .. })));
    }
    assert_eq!(
        exceeded, 2,
        "100k and 10k cycles of 7.8 us on-time exceed tREFW"
    );
}
