//! Micro-benchmarks of the simulator kernels: the disturbance engine's
//! hammer path, the HC_first bisection and its closed-form check, the
//! executor's batched hammer loops and its construction, two Fig. 24 TRR
//! evasion runs (8-sided RowHammer and SiMRA-16), the victim data summary, SiMRA charge sharing, and one
//! memory-system simulation slice.
//!
//! Runs on the dependency-free `pud_bench::run_micro` runner; each bench's
//! per-iteration timings also land in the `bench.*` histograms of the
//! global `pud-observe` registry, dumped at the end.

use std::hint::black_box;
use std::time::{Duration, Instant};

use pud_bench::run_micro;
use pud_bender::{ops, Executor, TestEnv};
use pud_disturb::{AggressionKind, DataSummary, DisturbEngine, HammerEvent};
use pud_dram::{
    profiles::{self, TESTED_MODULES},
    BankId, ChipGeometry, DataPattern, RowAddr, RowData,
};
use pud_trr::{patterns as trr_patterns, SamplingTrr, SamplingTrrConfig};
use pudhammer::fleet::{sweep, ChipUnderTest, Fleet, FleetConfig};
use pudhammer::hcfirst::{measure_hc_first, HcSearch, Trial, WarmStart};
use pudhammer::patterns::{
    rowhammer_ds_for, simra_ds_kernels, simra_members, simra_victims, Kernel,
};
use pudhammer::wcdp::find_wcdp;

const SAMPLES: u64 = 10;

/// Shortest sample the timing gate accepts: a ~3 µs replay timed once per
/// sample let timer granularity and scheduler noise swing its ratio from
/// 13x to 23x between runs.
const MIN_SAMPLE: Duration = Duration::from_micros(300);

/// Inner iterations that make one sample of `f` last at least
/// [`MIN_SAMPLE`], counted by running `f` for that long.
fn inner_for<T>(mut f: impl FnMut() -> T) -> u64 {
    let start = Instant::now();
    let mut n = 0;
    while start.elapsed() < MIN_SAMPLE {
        black_box(f());
        n += 1;
    }
    n
}

fn bench_engine_hammer() {
    let profile = &TESTED_MODULES[1];
    let mut engine = DisturbEngine::new(profile, ChipGeometry::scaled_for_tests(), 0, 42);
    let mut victim = RowData::filled(1024, DataPattern::CHECKER_AA);
    let ev = HammerEvent::reference(
        BankId(0),
        RowAddr(10),
        AggressionKind::RowHammerDouble,
        DataSummary::from_pattern(DataPattern::CHECKER_55),
        100,
    );
    run_micro("engine_hammer_batch100", SAMPLES, 100, || {
        let mut flips = Vec::new();
        engine.hammer(black_box(&ev), &mut victim, &mut flips);
        engine.restore(BankId(0), RowAddr(10));
        black_box(flips)
    });
}

fn bench_executor_loop() {
    let profile = &TESTED_MODULES[1];
    let mut exec = Executor::new(profile, ChipGeometry::scaled_for_tests(), 0, 42);
    let bank = BankId(0);
    let a = exec.chip().to_logical(RowAddr(20));
    let b_row = exec.chip().to_logical(RowAddr(22));
    let program = ops::double_sided_rowhammer(bank, a, b_row, ops::t_ras(), 10_000);
    // Same program through the compiled replay and through the interpreter
    // oracle. Their outputs are bit-identical (see
    // `tests/compiled_equivalence.rs`); only the speed may differ.
    let mut compiled_run = || {
        exec.quiesce();
        black_box(exec.run(black_box(&program)))
    };
    let inner = inner_for(&mut compiled_run);
    let compiled = run_micro("executor_ds_rowhammer_10k", SAMPLES, inner, compiled_run);
    let mut interp_run = || {
        exec.quiesce();
        black_box(exec.interpret(black_box(&program)).expect("valid program"))
    };
    let inner = inner_for(&mut interp_run);
    let interp = run_micro(
        "executor_ds_rowhammer_10k_interp",
        SAMPLES,
        inner,
        interp_run,
    );
    let speedup = interp / compiled;
    println!("[executor_compiled] compiled replay speedup: {speedup:.1}x over interpreter");
    // CI sets PUD_BENCH_MIN_SPEEDUP to fail the job on a fast-path
    // regression; unset (local runs), the measurement is informational.
    if let Some(min) = std::env::var("PUD_BENCH_MIN_SPEEDUP")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
    {
        assert!(
            speedup >= min,
            "compiled-replay speedup {speedup:.1}x fell below the required {min:.1}x \
             (compiled {compiled:.0} ns vs interpreter {interp:.0} ns per run)"
        );
    }
}

/// Building a chip's executor, as every served miss and every per-chip
/// driver does. The family's calibration solve is memoized, so past the
/// warm-up this is the chip model's construction alone (informational).
fn bench_executor_new() {
    let profile = &TESTED_MODULES[1];
    let geometry = ChipGeometry::scaled_for_tests();
    let mut chip = 0u32;
    run_micro("executor_new", SAMPLES, 100, || {
        chip = (chip + 1) % 16;
        black_box(Executor::new(profile, geometry, black_box(chip), 42))
    });
}

/// One Fig. 24 run at quick scale: the 8-sided RowHammer evasion pattern
/// (200K hammers per aggressor) under the sampling TRR with refresh on,
/// compile included (informational).
fn bench_fig24_rh8_trr_run() {
    let profile = profiles::most_simra_vulnerable();
    let geometry = ChipGeometry::scaled_for_tests();
    let bank = BankId(0);
    let probe = Executor::new(profile, geometry, 0, 42);
    let (_, hero) = probe
        .engine()
        .model()
        .hero_row()
        .expect("chip 0 has the hero row");
    let aggressors: Vec<RowAddr> = (0..4)
        .flat_map(|i| [RowAddr(hero.0 - (2 * i + 1)), RowAddr(hero.0 + (2 * i + 1))])
        .map(|a| probe.chip().to_logical(a))
        .collect();
    let dummy = probe.chip().to_logical(RowAddr(5));
    run_micro("fig24_rh8_trr_run", SAMPLES, 1, || {
        let mut exec = Executor::new(profile, geometry, 0, 42);
        exec.set_env(TestEnv::with_refresh());
        exec.set_observer(Box::new(SamplingTrr::new(
            SamplingTrrConfig::default(),
            profile.mapping(),
            0xC0FFEE,
        )));
        let program = trr_patterns::rowhammer_evasion(bank, &aggressors, dummy, 200_000);
        black_box(exec.run(&program))
    });
}

/// One Fig. 24 run at quick scale: SiMRA-16 on the group sandwiching the
/// hero row (200K group activations, all-ones victims, all-zero members)
/// under the sampling TRR with refresh on, compile included
/// (informational).
fn bench_fig24_simra16_trr_run() {
    let profile = profiles::most_simra_vulnerable();
    let geometry = ChipGeometry::scaled_for_tests();
    let bank = BankId(0);
    let probe = Executor::new(profile, geometry, 0, 42);
    let (_, hero) = probe
        .engine()
        .model()
        .hero_row()
        .expect("chip 0 has the hero row");
    let hero_sa = geometry.subarray_of(hero).expect("hero in range");
    let kernel = simra_ds_kernels(probe.chip(), hero_sa, 16)
        .into_iter()
        .find(|k| simra_victims(probe.chip(), k).0.contains(&hero))
        .expect("a SiMRA-16 group sandwiches the hero row");
    let members = simra_members(probe.chip(), &kernel).expect("a SiMRA group");
    let Kernel::Simra { r1, r2, .. } = kernel else {
        unreachable!("simra_ds_kernels builds SiMRA kernels")
    };
    let (lo, hi) = (members[0].0 - 2, members[members.len() - 1].0 + 2);
    run_micro("fig24_simra16_trr_run", SAMPLES, 1, || {
        let mut exec = Executor::new(profile, geometry, 0, 42);
        exec.set_env(TestEnv::with_refresh());
        exec.set_observer(Box::new(SamplingTrr::new(
            SamplingTrrConfig::default(),
            profile.mapping(),
            0xC0FFEE,
        )));
        for r in lo..=hi {
            let row = RowAddr(r);
            let dp = if members.contains(&row) {
                DataPattern::ZEROS
            } else {
                DataPattern::ONES
            };
            exec.write_row(bank, exec.chip().to_logical(row), dp);
        }
        let program = trr_patterns::simra_evasion(bank, r1, r2, 200_000);
        black_box(exec.run(&program))
    });
}

fn bench_hc_first_search() {
    let profile = &TESTED_MODULES[1];
    let mut exec = Executor::new(profile, ChipGeometry::scaled_for_tests(), 0, 42);
    let victim = RowAddr(33);
    let kernel = rowhammer_ds_for(exec.chip(), victim).expect("victim has neighbours");
    let search = HcSearch::default();
    run_micro("hc_first_bisection", SAMPLES, 1, || {
        black_box(measure_hc_first(
            &mut exec,
            BankId(0),
            &kernel,
            victim,
            DataPattern::CHECKER_55,
            DataPattern::CHECKER_AA,
            &search,
        ))
    });
    // One check once the search has recorded its closed form: program
    // build, admission and the engine's float operations, no replay.
    let (aggressor_dp, victim_dp) = (DataPattern::CHECKER_55, DataPattern::CHECKER_AA);
    let mut trial = Trial::new(
        &mut exec,
        BankId(0),
        &[],
        &kernel,
        victim,
        aggressor_dp,
        victim_dp,
    );
    trial.try_check(4).expect("valid program");
    run_micro("hc_first_closed_form_check", SAMPLES, 1000, || {
        black_box(trial.try_check(black_box(50_000)).expect("valid program"))
    });
}

/// One chip's worth of sweep work: a four-pattern WCDP search on the
/// chip's first victim, which also exercises the warm-started HC_first
/// bracket (patterns two to four usually land in the previous bracket).
fn sweep_work(_: usize, chip: &mut ChipUnderTest) {
    let bank = chip.bank();
    let victim = chip.victim_rows()[0];
    let kernel = rowhammer_ds_for(chip.exec().chip(), victim).expect("victim has neighbours");
    black_box(find_wcdp(
        chip.exec(),
        bank,
        &kernel,
        victim,
        &HcSearch::default(),
        &mut WarmStart::new(),
    ));
}

fn bench_fleet_sweep_serial_vs_parallel() {
    let mut fleet = Fleet::build(FleetConfig::quick());
    let serial = run_micro("fleet_sweep_serial", SAMPLES, 1, || {
        sweep::sweep(1, &mut fleet.chips, sweep_work)
    });
    let parallel = run_micro("fleet_sweep_parallel4", SAMPLES, 1, || {
        sweep::sweep(4, &mut fleet.chips, sweep_work)
    });
    let snap = pud_observe::snapshot();
    let hits = snap.counter("hcfirst.warm.hits").unwrap_or(0);
    let misses = snap.counter("hcfirst.warm.misses").unwrap_or(0);
    let total = (hits + misses).max(1);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "[fleet_sweep] 4-thread speedup: {:.2}x over serial on {cores} core(s) \
         (the attainable ceiling is min(4, cores)x); \
         warm-start hit rate {:.0}% ({hits}/{total})",
        serial / parallel,
        hits as f64 / total as f64 * 100.0,
    );
}

/// A paper-width row of seeded random bits.
fn random_row(seed: u64) -> RowData {
    let mut row = RowData::filled(8192, DataPattern::ZEROS);
    for col in 0..8192u32 {
        let word = pud_disturb::rng::mix_all(&[seed, u64::from(col / 64)]);
        row.set_bit(col, (word >> (col % 64)) & 1 == 1);
    }
    row
}

/// A victim's data summary over its first 512 bits: the word-parallel
/// scan the compiled replay uses against the per-bit reference the
/// interpreter oracle keeps (informational; the two are bit-equal).
fn bench_data_summary() {
    let row = random_row(7);
    let fast = run_micro("data_summary_512", SAMPLES, 10_000, || {
        DataSummary::from_row(black_box(&row))
    });
    let per_bit = run_micro("data_summary_512_per_bit", SAMPLES, 10_000, || {
        DataSummary::from_row_per_bit(black_box(&row))
    });
    println!(
        "[data_summary_512] word-parallel scan: {:.1}x over per-bit",
        per_bit / fast
    );
}

/// The charge-sharing kernel alone: the majority of a SiMRA-32 group plus
/// its tiebreaking row, 33 random paper-width rows.
fn bench_row_majority() {
    let rows: Vec<RowData> = (0..33).map(random_row).collect();
    let refs: Vec<&RowData> = rows.iter().collect();
    run_micro("row_majority_33x8192", SAMPLES, 100, || {
        black_box(RowData::majority(black_box(&refs)))
    });
}

/// One SiMRA-32 activation at paper scale through the executor: decode,
/// charge sharing across the 32 rows, and the group's disturbance event.
fn bench_simra32_activation() {
    let profile = &TESTED_MODULES[1];
    let geometry = ChipGeometry::paper_scale();
    let mut exec = Executor::new(profile, geometry, 0, 42);
    let bank = BankId(0);
    let base = RowAddr(geometry.rows_per_subarray * 4);
    let mask = pud_bender::simra_decode::contiguous_mask(32);
    for i in 0..32u32 {
        exec.write_row(bank, RowAddr(base.0 + i), DataPattern(i as u8 * 8 + 1));
    }
    let program = ops::simra_mask(bank, base, mask, 1);
    run_micro("simra32_activation_paper_scale", SAMPLES, 100, || {
        exec.quiesce();
        black_box(exec.run(black_box(&program)))
    });
}

fn bench_memsim_slice() {
    let mix = &pud_memsim::workload::build_mixes(1, 3)[0];
    run_micro("memsim_20k_instr", SAMPLES, 1, || {
        black_box(pud_memsim::fig25::run_single(
            mix,
            1_000,
            pud_memsim::Mitigation::PracPoWeighted,
            20_000,
            9,
        ))
    });
}

fn main() {
    bench_engine_hammer();
    bench_executor_loop();
    bench_executor_new();
    bench_fig24_rh8_trr_run();
    bench_fig24_simra16_trr_run();
    bench_hc_first_search();
    bench_fleet_sweep_serial_vs_parallel();
    bench_data_summary();
    bench_row_majority();
    bench_simra32_activation();
    bench_memsim_slice();
    eprintln!();
    eprint!(
        "{}",
        pud_observe::export::render_text(&pud_observe::snapshot())
    );
}
