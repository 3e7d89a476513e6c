//! Behavioural tests of the command-stream executor: pattern detection,
//! loop batching, refresh bookkeeping, and device-state transitions.

use pud_bender::{ops, DramCommand, ExecError, Executor, TestEnv, TestProgram};
use pud_dram::{profiles::TESTED_MODULES, BankId, ChipGeometry, DataPattern, Picos, RowAddr};

fn executor() -> Executor {
    Executor::new(&TESTED_MODULES[1], ChipGeometry::scaled_for_tests(), 0, 77)
}

fn executor_seeded(seed: u64) -> Executor {
    Executor::new(
        &TESTED_MODULES[1],
        ChipGeometry::scaled_for_tests(),
        0,
        seed,
    )
}

#[test]
fn loop_batching_matches_unrolled_execution() {
    // The same double-sided kernel executed as one 1000-iteration loop and
    // as 1000 separate runs must accumulate identical disturbance.
    let bank = BankId(0);
    let a = RowAddr(20);
    let b = RowAddr(22);
    let mut batched = executor();
    let mut unrolled = executor();
    let a_log = batched.chip().to_logical(a);
    let b_log = batched.chip().to_logical(b);
    for e in [&mut batched, &mut unrolled] {
        e.write_row(bank, a_log, DataPattern::CHECKER_55);
        e.write_row(bank, b_log, DataPattern::CHECKER_55);
    }
    batched.run(&ops::double_sided_rowhammer(
        bank,
        a_log,
        b_log,
        ops::t_ras(),
        1000,
    ));
    let single = ops::double_sided_rowhammer(bank, a_log, b_log, ops::t_ras(), 1);
    for _ in 0..1000 {
        unrolled.run(&single);
    }
    let victim = RowAddr(21);
    let (acc_b, _) = batched.engine().accumulated(bank, victim);
    let (acc_u, _) = unrolled.engine().accumulated(bank, victim);
    assert!(acc_b > 0.0);
    let rel = (acc_b - acc_u).abs() / acc_u;
    // The batched warm-up differs by at most a couple of boundary cycles.
    assert!(rel < 0.01, "batched {acc_b} vs unrolled {acc_u}");
}

#[test]
fn double_sided_weight_exceeds_single_sided() {
    let bank = BankId(0);
    let mut ds = executor();
    let mut ss = executor();
    let victim = RowAddr(21);
    let a = ds.chip().to_logical(RowAddr(20));
    let b = ds.chip().to_logical(RowAddr(22));
    ds.run(&ops::double_sided_rowhammer(bank, a, b, ops::t_ras(), 1000));
    ss.run(&ops::single_sided_rowhammer(bank, a, ops::t_ras(), 1000));
    let (acc_ds, _) = ds.engine().accumulated(bank, victim);
    let (acc_ss, _) = ss.engine().accumulated(bank, victim);
    // Per cycle, double-sided is ~1.0 and single-sided ~0.267 (calibrated
    // to Fig. 7); the ds pattern also uses twice the activations.
    let ratio = acc_ds / acc_ss;
    assert!(
        (3.0..5.0).contains(&ratio),
        "ds/ss accumulation ratio {ratio}"
    );
}

#[test]
fn far_aggressor_gap_is_detected() {
    // Alternating a far row with the aggressor doubles t_AggOFF: the victim
    // accumulates at the far-ds rate (0.371/cycle vs 0.267 for ss).
    let bank = BankId(0);
    let mut far = executor();
    let mut ss = executor();
    let victim = RowAddr(21);
    let a = far.chip().to_logical(RowAddr(20));
    let far_row = far.chip().to_logical(RowAddr(60));
    far.run(&ops::double_sided_rowhammer(
        bank,
        a,
        far_row,
        ops::t_ras(),
        1000,
    ));
    ss.run(&ops::single_sided_rowhammer(bank, a, ops::t_ras(), 1000));
    let (acc_far, _) = far.engine().accumulated(bank, victim);
    let (acc_ss, _) = ss.engine().accumulated(bank, victim);
    let ratio = acc_far / acc_ss;
    assert!(
        (1.2..1.6).contains(&ratio),
        "far/ss accumulation ratio {ratio} (expect ~1.39)"
    );
}

#[test]
fn activation_of_victim_restores_its_charge() {
    let bank = BankId(0);
    let mut exec = executor();
    let a = exec.chip().to_logical(RowAddr(20));
    let victim_phys = RowAddr(21);
    let victim_log = exec.chip().to_logical(victim_phys);
    exec.run(&ops::single_sided_rowhammer(bank, a, ops::t_ras(), 500));
    assert!(exec.engine().accumulated(bank, victim_phys).0 > 0.0);
    // Activating the victim itself restores it.
    let mut p = TestProgram::new();
    p.act(bank, victim_log, ops::t_ras()).pre(bank, ops::t_rp());
    exec.run(&p);
    assert_eq!(exec.engine().accumulated(bank, victim_phys).0, 0.0);
}

#[test]
fn periodic_refresh_sweeps_rows() {
    let bank = BankId(0);
    let mut exec = executor();
    exec.set_env(TestEnv::with_refresh());
    let a = exec.chip().to_logical(RowAddr(20));
    exec.run(&ops::single_sided_rowhammer(bank, a, ops::t_ras(), 500));
    let victim = RowAddr(21);
    assert!(exec.engine().accumulated(bank, victim).0 > 0.0);
    // One full refresh window's worth of REFs covers every row.
    let mut p = TestProgram::new();
    p.repeat(8192, |b| {
        b.refresh(Picos::from_ns(350.0));
    });
    exec.run(&p);
    assert_eq!(
        exec.engine().accumulated(bank, victim).0,
        0.0,
        "a full REF sweep restores every row"
    );
}

#[test]
fn refresh_disabled_preserves_disturbance() {
    let bank = BankId(0);
    let mut exec = executor(); // characterization env: refresh off
    let a = exec.chip().to_logical(RowAddr(20));
    exec.run(&ops::single_sided_rowhammer(bank, a, ops::t_ras(), 500));
    let before = exec.engine().accumulated(bank, RowAddr(21)).0;
    let mut p = TestProgram::new();
    p.repeat(8192, |b| {
        b.refresh(Picos::from_ns(350.0));
    });
    exec.run(&p);
    assert_eq!(exec.engine().accumulated(bank, RowAddr(21)).0, before);
}

#[test]
fn act_on_open_bank_implicitly_precharges() {
    let bank = BankId(0);
    let mut exec = executor();
    let mut p = TestProgram::new();
    // Two ACTs with no PRE in between (nominal gap, so no PuD semantics).
    p.act(bank, RowAddr(10), Picos::from_ns(50.0))
        .act(bank, RowAddr(30), Picos::from_ns(50.0))
        .pre(bank, ops::t_rp());
    let report = exec.run(&p);
    assert_eq!(report.acts, 2);
}

#[test]
fn rd_captures_open_row_and_wr_overwrites_group() {
    let bank = BankId(0);
    let mut exec = executor();
    exec.write_row(bank, RowAddr(8), DataPattern::CHECKER_55);
    let mut prog = TestProgram::new();
    prog.act(bank, RowAddr(8), Picos::from_ns(36.0))
        .rd(bank, Picos::from_ns(15.0))
        .wr(bank, DataPattern::ONES, Picos::from_ns(15.0))
        .pre(bank, ops::t_rp());
    let report = exec.run(&prog);
    assert_eq!(report.reads.len(), 1);
    assert!(report.reads[0].matches_pattern(DataPattern::CHECKER_55));
    assert!(exec
        .read_row(bank, RowAddr(8))
        .unwrap()
        .matches_pattern(DataPattern::ONES));
}

#[test]
fn simra_write_probe_overwrites_whole_group() {
    // §5.2 reverse-engineering primitive: ACT-PRE-ACT then WR overwrites
    // every simultaneously activated row.
    let bank = BankId(0);
    let mut exec = executor();
    let g = *exec.chip().geometry();
    for r in 0..32u32 {
        exec.write_row(bank, RowAddr(32 + r), DataPattern::ZEROS);
    }
    let d = Picos::from_ns(3.0);
    let (r1, r2) = pud_bender::simra_decode::pair_for_mask(RowAddr(40), 0b101);
    let mut prog = TestProgram::new();
    prog.act(bank, r1, d)
        .pre(bank, d)
        .act(bank, r2, ops::t_ras())
        .wr(bank, DataPattern::CHECKER_55, Picos::from_ns(10.0))
        .pre(bank, ops::t_rp());
    exec.run(&prog);
    let group = pud_bender::simra_decode::simra_group(&g, r1, r2).unwrap();
    assert_eq!(group.len(), 4);
    for row in group {
        assert!(
            exec.read_row(bank, row)
                .unwrap()
                .matches_pattern(DataPattern::CHECKER_55),
            "group member {row} not overwritten"
        );
    }
}

#[test]
fn elapsed_time_tracks_program_duration() {
    let bank = BankId(0);
    let mut exec = executor();
    let prog = ops::single_sided_rowhammer(bank, RowAddr(10), ops::t_ras(), 1000);
    let report = exec.run(&prog);
    assert_eq!(report.elapsed, prog.duration());
    assert_eq!(report.acts, 1000);
}

#[test]
fn quiesce_clears_pattern_history_but_keeps_data() {
    let bank = BankId(0);
    let mut exec = executor_seeded(3);
    exec.write_row(bank, RowAddr(8), DataPattern::CHECKER_55);
    let a = exec.chip().to_logical(RowAddr(20));
    exec.run(&ops::single_sided_rowhammer(bank, a, ops::t_ras(), 100));
    exec.quiesce();
    assert_eq!(exec.engine().accumulated(bank, RowAddr(21)).0, 0.0);
    assert!(exec
        .read_row(bank, RowAddr(8))
        .unwrap()
        .matches_pattern(DataPattern::CHECKER_55));
}

#[test]
fn reports_are_per_run() {
    let bank = BankId(0);
    let mut exec = executor();
    let prog = ops::single_sided_rowhammer(bank, RowAddr(10), ops::t_ras(), 10);
    let r1 = exec.run(&prog);
    let r2 = exec.run(&prog);
    assert_eq!(r1.acts, 10);
    assert_eq!(r2.acts, 10);
    assert_eq!(r2.elapsed, prog.duration());
}

#[test]
fn open_row_survives_until_precharge() {
    let mut exec = executor();
    let bank = BankId(0);
    let mut program = TestProgram::new();
    program.act(bank, RowAddr(4), Picos::from_ns(36.0)).wr(
        bank,
        DataPattern::ONES,
        Picos::from_ns(10.0),
    );
    exec.run(&program);
    // The bank was left open by the WR sequence (no PRE): a later RD in a
    // separate run still captures the open row.
    let mut after = TestProgram::new();
    after.rd(bank, Picos::from_ns(5.0)).pre(bank, ops::t_rp());
    let report = exec.run(&after);
    assert!(report.reads[0].matches_pattern(DataPattern::ONES));
    let _ = DramCommand::PreAll; // exported command surface stays usable
}

#[test]
fn strict_env_accepts_in_window_programs() {
    let mut exec = executor();
    let mut env = TestEnv::characterization_strict();
    env.refresh_enabled = false;
    exec.set_env(env);
    let prog = ops::single_sided_rowhammer(BankId(0), RowAddr(10), ops::t_ras(), 10_000);
    let report = exec.run(&prog);
    assert_eq!(report.acts, 10_000);
}

#[test]
fn strict_env_rejects_out_of_window_programs() {
    // ~1.3M double-sided cycles at ~102 ns each exceed the 64 ms window.
    let mut exec = executor();
    exec.set_env(TestEnv::characterization_strict());
    let prog =
        ops::double_sided_rowhammer(BankId(0), RowAddr(10), RowAddr(12), ops::t_ras(), 1_300_000);
    let err = exec.try_run(&prog).expect_err("out-of-window must fail");
    assert!(matches!(err, ExecError::RefreshWindowExceeded { .. }));
    assert!(!err.is_transient());
    assert!(err.to_string().contains("exceeds the refresh window"));
}

#[test]
fn out_of_geometry_programs_are_rejected_as_invalid() {
    let mut exec = executor();
    let geometry = *exec.chip().geometry();
    let mut prog = TestProgram::new();
    prog.act(BankId(geometry.banks), RowAddr(0), Picos::from_ns(36.0));
    let err = exec.try_run(&prog).expect_err("bad bank must fail");
    assert!(matches!(err, ExecError::InvalidProgram { .. }));
    assert!(err.to_string().contains("bank"));
    let mut prog = TestProgram::new();
    prog.repeat(2, |b| {
        b.act(
            BankId(0),
            RowAddr(geometry.rows_per_bank()),
            Picos::from_ns(36.0),
        );
    });
    let err = exec.try_run(&prog).expect_err("bad row must fail");
    assert!(err.to_string().contains("row"));
    // Validation is the one geometry check, for every command kind at any
    // loop depth, and the interpreter oracle shares it.
    let mut prog = TestProgram::new();
    prog.repeat(2, |outer| {
        outer.repeat(2, |b| {
            b.wr(BankId(200), DataPattern::ONES, Picos::from_ns(15.0));
        });
    });
    let err = exec.try_run(&prog).expect_err("bad WR bank must fail");
    assert!(matches!(err, ExecError::InvalidProgram { .. }));
    assert_eq!(
        exec.interpret(&prog).expect_err("oracle rejects it too"),
        err
    );
}

#[test]
fn run_raises_exec_errors_as_typed_panic_payloads() {
    let mut exec = executor();
    exec.set_env(TestEnv::characterization_strict());
    let prog =
        ops::double_sided_rowhammer(BankId(0), RowAddr(10), RowAddr(12), ops::t_ras(), 1_300_000);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exec.run(&prog)))
        .expect_err("run must unwind");
    let err = payload
        .downcast::<ExecError>()
        .expect("payload is the typed error");
    assert!(matches!(*err, ExecError::RefreshWindowExceeded { .. }));
}

#[test]
fn compiled_replay_is_bit_identical_to_interpreter() {
    // One composite program touching every command kind the compiler
    // lowers: writes, a batchable double-sided loop, CoMRA timing
    // violations, RD capture, and a nested loop. The compiled replay and
    // the interpreter must agree on every observable output.
    let bank = BankId(0);
    let mut compiled_exec = executor_seeded(9);
    let mut interp_exec = executor_seeded(9);
    // Aggressors at physical rows 20 and 22 sandwich physical row 21.
    let a = compiled_exec.chip().to_logical(RowAddr(20));
    let b_row = compiled_exec.chip().to_logical(RowAddr(22));
    let far = compiled_exec.chip().to_logical(RowAddr(40));
    let dst = compiled_exec.chip().to_logical(RowAddr(60));
    let mut program = TestProgram::new();
    // Seed the aggressors with a known pattern through WR commands so the
    // whole experiment, writes included, flows through one program.
    program
        .act(bank, a, ops::t_ras())
        .wr(bank, DataPattern::CHECKER_55, Picos::from_ns(15.0))
        .pre(bank, ops::t_rp())
        .act(bank, b_row, ops::t_ras())
        .wr(bank, DataPattern::CHECKER_55, Picos::from_ns(15.0))
        .pre(bank, ops::t_rp());
    program.repeat(500_000, |b| {
        b.act(bank, a, ops::t_ras())
            .pre(bank, ops::t_rp())
            .act(bank, b_row, ops::t_ras())
            .pre(bank, ops::t_rp());
    });
    program.repeat(3, |inner| {
        inner.repeat(500, |b| {
            b.act(bank, far, ops::t_ras()).pre(bank, ops::t_rp());
        });
        inner
            .act(bank, far, ops::t_ras())
            .rd(bank, Picos::from_ns(15.0))
            .pre(bank, ops::t_rp());
    });
    // RowClone-style copy: ACT src - tRAS - PRE - 7.5 ns - ACT dst.
    program
        .act(bank, a, ops::t_ras())
        .pre(bank, Picos::from_ns(7.5))
        .act(bank, dst, ops::t_ras())
        .pre(bank, ops::t_rp());
    let rc = compiled_exec.run(&program);
    let ri = interp_exec.interpret(&program).expect("valid program");
    assert_eq!(rc.flips, ri.flips);
    assert_eq!(rc.reads, ri.reads);
    assert_eq!(rc.elapsed, ri.elapsed);
    assert_eq!(rc.acts, ri.acts);
    assert!(!rc.flips.is_empty(), "500K ds cycles exceed any HC_first");
    for row in 18..=24 {
        assert_eq!(
            compiled_exec.read_row(bank, RowAddr(row)),
            interp_exec.read_row(bank, RowAddr(row)),
            "row {row} data diverged"
        );
    }
    let (acc_c, _) = compiled_exec.engine().accumulated(bank, RowAddr(21));
    let (acc_i, _) = interp_exec.engine().accumulated(bank, RowAddr(21));
    assert_eq!(acc_c, acc_i, "accumulated disturbance diverged");
    let stats = compiled_exec.batch_stats();
    assert!(
        stats.hits() > 0,
        "compiled path must serve lookups from the batch caches"
    );
    assert_eq!(interp_exec.batch_stats().hits(), 0);
}

#[test]
fn strict_env_allows_long_programs_when_refresh_is_on() {
    let mut exec = executor();
    let mut env = TestEnv::with_refresh();
    env.enforce_refresh_window = true;
    exec.set_env(env);
    let mut prog = TestProgram::new();
    prog.repeat(1_300_000, |b| {
        b.act(BankId(0), RowAddr(10), ops::t_ras())
            .pre(BankId(0), ops::t_rp());
    });
    // With refresh enabled the window bound does not apply.
    let report = exec.run(&prog);
    assert_eq!(report.acts, 1_300_000);
}

/// `n` distinct seeded patterns.
fn distinct_patterns(n: usize, seed: u64) -> Vec<DataPattern> {
    let mut bytes: Vec<u8> = Vec::with_capacity(n);
    let mut draw = 0u64;
    while bytes.len() < n {
        let b = pud_disturb::rng::mix_all(&[seed, draw]) as u8;
        draw += 1;
        if !bytes.contains(&b) {
            bytes.push(b);
        }
    }
    bytes.into_iter().map(DataPattern).collect()
}

/// Bit-by-bit majority of the voters' bytes: the expected charge-sharing
/// outcome of a SiMRA group, independent of the executor.
fn byte_majority(voters: &[u8]) -> u8 {
    (0..8).fold(0u8, |acc, bit| {
        let ones = voters.iter().filter(|&&v| (v >> bit) & 1 == 1).count();
        acc | (u8::from(ones > voters.len() / 2) << bit)
    })
}

#[test]
fn simra_charge_sharing_computes_the_majority_at_paper_scale() {
    let bank = BankId(1);
    let profile = &TESTED_MODULES[1];
    assert!(profile.supports_simra());
    let g = ChipGeometry::paper_scale();
    for n in [2u8, 4, 8, 16, 32] {
        for case in 0..3u64 {
            let mut exec = Executor::new(profile, g, 0, 0xC5 + case);
            let base = RowAddr(g.rows_per_subarray * (3 + case as u32) + 64);
            let mask = pud_bender::simra_decode::sandwiching_mask(n);
            let inputs = distinct_patterns(n as usize, u64::from(n) << 8 | case);
            let out =
                ops::in_dram_maj(&mut exec, bank, base, mask, &inputs).expect("group decodes");
            // The first-activated row is the group's lowest logical row,
            // which `in_dram_maj` fills with `inputs[0]`; it breaks the tie
            // of every even group.
            let mut voters: Vec<u8> = inputs.iter().map(|p| p.0).collect();
            voters.push(inputs[0].0);
            let expected = DataPattern(byte_majority(&voters));
            assert!(
                out.matches_pattern(expected),
                "SiMRA-{n}, case {case}: expected {:#04x}",
                expected.0
            );
            let (r1, r2) = pud_bender::simra_decode::pair_for_mask(base, mask);
            let group = pud_bender::simra_decode::simra_group(&g, r1, r2).unwrap();
            assert_eq!(group.len(), n as usize);
            for row in group {
                assert_eq!(exec.read_row(bank, row).as_ref(), Some(&out), "{row}");
            }
        }
    }
}

#[test]
fn unwritten_group_members_vote_as_zeros() {
    let bank = BankId(0);
    let mut exec = executor();
    let g = *exec.chip().geometry();
    let base = RowAddr(g.rows_per_subarray * 2 + 32);
    let mask = pud_bender::simra_decode::sandwiching_mask(4);
    let (r1, r2) = pud_bender::simra_decode::pair_for_mask(base, mask);
    let group = pud_bender::simra_decode::simra_group(&g, r1, r2).unwrap();
    // Two ones rows (one of them the tiebreaking first row) against two
    // rows never written: 3 of 5 votes are ones.
    exec.write_row(bank, group[0], DataPattern::ONES);
    exec.write_row(bank, group[2], DataPattern::ONES);
    exec.run(&ops::simra_mask(bank, base, mask, 1));
    for &row in &group {
        let data = exec
            .read_row(bank, row)
            .expect("charge sharing writes every member");
        assert!(data.matches_pattern(DataPattern::ONES), "{row}");
    }
    // With the first row left unwritten the zeros win the tie.
    let mut exec = executor();
    exec.write_row(bank, group[1], DataPattern::ONES);
    exec.write_row(bank, group[2], DataPattern::ONES);
    exec.run(&ops::simra_mask(bank, base, mask, 1));
    for &row in &group {
        let data = exec
            .read_row(bank, row)
            .expect("charge sharing writes every member");
        assert!(data.matches_pattern(DataPattern::ZEROS), "{row}");
    }
}
