//! Characterization of the executor's hammer path on the §7 TRR-evasion
//! programs: every `pud_trr::patterns` constructor at reduced counts, plus
//! a partially activated SiMRA group, a SiMRA group whose members start
//! out holding different data, and two bulk loops directly followed by an
//! activation on the same side of their victims. Each runs with and
//! without the sampling TRR, through `try_run` and through `interpret`.
//!
//! Every observable is pinned as a constant: the flip records, the data
//! and accumulated disturbance of every row of the bank, the sequence of
//! `on_act` calls and `on_ref` answers the observer sees, the elapsed time
//! and the ACT count. A change to the executor's hot path that keeps these
//! constants keeps the model's output.

use std::sync::{Arc, Mutex};

use pudhammer_suite::bender::{ActivityObserver, Executor, TestEnv, TestProgram};
use pudhammer_suite::disturb::calib::{
    ACTS_PER_TREFI, COMRA_PRE_ACT_NS, SIMRA_DELAY_NS, T_RAS_NS, T_RP_NS,
};
use pudhammer_suite::dram::profiles;
use pudhammer_suite::dram::{BankId, DataPattern, Picos, RowAddr, SubarrayId};
use pudhammer_suite::hammer::fleet::FleetConfig;
use pudhammer_suite::hammer::patterns::{self, Kernel};
use pudhammer_suite::trr::{patterns as trr_patterns, SamplingTrr, SamplingTrrConfig};

const BANK: BankId = BankId(0);
const SEED: u64 = 7;

/// FNV-1a over the little-endian bytes of the values fed to it.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// What the observer was asked and answered: counts and a digest of the
/// ordered sequence.
struct Log {
    acts: u64,
    refs: u64,
    refreshed: u64,
    digest: Digest,
}

/// A sampling TRR that folds every `on_act` and every `on_ref` answer into
/// a shared [`Log`].
struct Logged {
    trr: SamplingTrr,
    log: Arc<Mutex<Log>>,
}

impl ActivityObserver for Logged {
    fn on_act(&mut self, bank: BankId, logical_row: RowAddr) {
        let mut log = self.log.lock().unwrap();
        log.acts += 1;
        log.digest.u64(1);
        log.digest.u64(u64::from(bank.0));
        log.digest.u64(u64::from(logical_row.0));
        self.trr.on_act(bank, logical_row);
    }

    fn on_ref(&mut self, bank_hint: BankId, victims: &mut Vec<(BankId, RowAddr)>) {
        self.trr.on_ref(bank_hint, victims);
        let mut log = self.log.lock().unwrap();
        log.refs += 1;
        log.refreshed += victims.len() as u64;
        log.digest.u64(2);
        for &(bank, row) in victims.iter() {
            log.digest.u64(u64::from(bank.0));
            log.digest.u64(u64::from(row.0));
        }
    }
}

/// One program and the physical rows it initializes.
struct Case {
    name: &'static str,
    program: TestProgram,
    /// Aggressor (group member) rows, physical.
    aggressors: Vec<RowAddr>,
    /// `(victim, aggressor)` data patterns; `None` for the aggressor
    /// pattern writes the members alternately with ONES, ZEROS and
    /// CHECKER_55.
    patterns: (DataPattern, Option<DataPattern>),
}

fn ns(x: f64) -> Picos {
    Picos::from_ns(x)
}

fn executor() -> Executor {
    let profile = profiles::most_simra_vulnerable();
    Executor::new(profile, FleetConfig::quick().geometry, 0, SEED)
}

/// Physical dummy row of the evasion programs (as Fig. 24 picks it).
fn dummy_phys(exec: &Executor) -> RowAddr {
    RowAddr(exec.chip().geometry().subarray_base(SubarrayId(0)).0 + 5)
}

fn cases() -> Vec<Case> {
    let exec = executor();
    let chip = exec.chip();
    let logical = |r: RowAddr| chip.to_logical(r);
    let (_, hero) = exec
        .engine()
        .model()
        .hero_row()
        .expect("chip 0 carries the hero row");
    let h = hero.0;
    let dummy = logical(dummy_phys(&exec));
    let hero_sa = chip.geometry().subarray_of(hero).expect("hero in range");
    let checker = (DataPattern::CHECKER_AA, Some(DataPattern::CHECKER_55));
    let simra_dp = (DataPattern::ONES, Some(DataPattern::ZEROS));
    let mut cases = Vec::new();
    let rowhammer = |name, aggs: Vec<RowAddr>, hammers| {
        let logical: Vec<RowAddr> = aggs.iter().map(|&a| chip.to_logical(a)).collect();
        Case {
            name,
            program: trr_patterns::rowhammer_evasion(BANK, &logical, dummy, hammers),
            aggressors: aggs,
            patterns: checker,
        }
    };
    cases.push(rowhammer("1-sided RowHammer", vec![RowAddr(h - 1)], 3_000));
    cases.push(rowhammer(
        "2-sided RowHammer",
        vec![RowAddr(h - 1), RowAddr(h + 1)],
        30_000,
    ));
    cases.push(rowhammer(
        "4-sided RowHammer",
        vec![
            RowAddr(h - 3),
            RowAddr(h - 1),
            RowAddr(h + 1),
            RowAddr(h + 3),
        ],
        8_000,
    ));
    cases.push(rowhammer(
        "8-sided RowHammer",
        (0..4)
            .flat_map(|i| [RowAddr(h - (2 * i + 1)), RowAddr(h + (2 * i + 1))])
            .collect(),
        4_000,
    ));
    let (src, dst) = (RowAddr(h - 1), RowAddr(h + 1));
    cases.push(Case {
        name: "2-sided CoMRA",
        program: trr_patterns::comra_evasion(BANK, logical(src), logical(dst), dummy, 6_000),
        aggressors: vec![src, dst],
        patterns: checker,
    });
    let simra_kernel = |n: u8| -> Kernel {
        if n == 32 {
            return patterns::simra_ss_kernels(chip, hero_sa, 32)[0];
        }
        let kernels = patterns::simra_ds_kernels(chip, hero_sa, n);
        kernels
            .iter()
            .find(|k| patterns::simra_victims(chip, k).0.contains(&hero))
            .copied()
            .unwrap_or(kernels[0])
    };
    for (name, n) in [
        ("SiMRA-2", 2u8),
        ("SiMRA-4", 4),
        ("SiMRA-8", 8),
        ("SiMRA-16", 16),
        ("SiMRA-32", 32),
    ] {
        let k = simra_kernel(n);
        let Kernel::Simra { r1, r2, .. } = k else {
            unreachable!("SiMRA kernels")
        };
        cases.push(Case {
            name,
            program: trr_patterns::simra_evasion(BANK, r1, r2, 1_500),
            aggressors: patterns::simra_members(chip, &k).expect("a group"),
            patterns: simra_dp,
        });
    }
    // A partial activation (ACT→PRE below 1.6 ns) engages every other
    // member of a SiMRA-8 group.
    let k8 = simra_kernel(8);
    let Kernel::Simra { r1, r2, .. } = k8 else {
        unreachable!("SiMRA kernels")
    };
    let members8 = patterns::simra_members(chip, &k8).expect("a group");
    let mut partial = TestProgram::new();
    for _ in 0..10 {
        partial.repeat(ACTS_PER_TREFI / 2, |body| {
            body.act(BANK, r1, ns(1.0))
                .pre(BANK, ns(SIMRA_DELAY_NS))
                .act(BANK, r2, ns(T_RAS_NS))
                .pre(BANK, ns(T_RP_NS));
        });
        partial.refresh(ns(350.0));
    }
    cases.push(Case {
        name: "SiMRA-8 partial",
        program: partial,
        aggressors: members8.clone(),
        patterns: simra_dp,
    });
    // Members holding different data: the first group activation deposits
    // their majority.
    cases.push(Case {
        name: "SiMRA-8 mixed members",
        program: trr_patterns::simra_evasion(BANK, r1, r2, 1_500),
        aggressors: members8.clone(),
        patterns: (DataPattern::ONES, None),
    });
    // A bulk-replayed loop followed at once by an activation on the same
    // side of one of its victims: the activation's kind depends on the
    // victim's side history as the bulk phase left it.
    let mut comra_then_single = TestProgram::new();
    for _ in 0..20 {
        comra_then_single.repeat(ACTS_PER_TREFI / 2, |body| {
            body.act(BANK, logical(src), ns(T_RAS_NS))
                .pre(BANK, ns(COMRA_PRE_ACT_NS))
                .act(BANK, logical(dst), ns(T_RAS_NS))
                .pre(BANK, ns(T_RP_NS));
        });
        // The source's victim h - 2 saw the pair from above; so does this
        // activation of the source alone.
        comra_then_single
            .act(BANK, logical(RowAddr(h - 1)), ns(T_RAS_NS))
            .pre(BANK, ns(T_RP_NS))
            .refresh(ns(350.0));
    }
    cases.push(Case {
        name: "CoMRA burst, then a same-side activation",
        program: comra_then_single,
        aggressors: vec![src, dst],
        patterns: checker,
    });
    let lo = *members8.first().expect("members");
    let mut simra_then_single = TestProgram::new();
    for _ in 0..10 {
        simra_then_single.repeat(ACTS_PER_TREFI / 2, |body| {
            body.act(BANK, r1, ns(SIMRA_DELAY_NS))
                .pre(BANK, ns(SIMRA_DELAY_NS))
                .act(BANK, r2, ns(T_RAS_NS))
                .pre(BANK, ns(T_RP_NS));
        });
        simra_then_single
            .act(BANK, logical(lo), ns(T_RAS_NS))
            .pre(BANK, ns(T_RP_NS))
            .refresh(ns(350.0));
    }
    cases.push(Case {
        name: "SiMRA-8 burst, then a same-side activation",
        program: simra_then_single,
        aggressors: members8,
        patterns: simra_dp,
    });
    cases
}

/// Runs one case on a fresh executor and renders everything observable as
/// one line.
fn observe(case: &Case, trr: bool, compiled: bool) -> String {
    let mut exec = executor();
    exec.take_trace_sink();
    let log = Arc::new(Mutex::new(Log {
        acts: 0,
        refs: 0,
        refreshed: 0,
        digest: Digest::new(),
    }));
    if trr {
        exec.set_env(TestEnv::with_refresh());
        exec.set_observer(Box::new(Logged {
            trr: SamplingTrr::new(
                SamplingTrrConfig::default(),
                profiles::most_simra_vulnerable().mapping(),
                0xC0FFEE,
            ),
            log: log.clone(),
        }));
    } else {
        exec.set_env(TestEnv::characterization());
    }
    let geometry = *exec.chip().geometry();
    let rows = geometry.rows_per_bank();
    let (victim_dp, aggressor_dp) = case.patterns;
    let lo = case
        .aggressors
        .iter()
        .map(|r| r.0)
        .min()
        .expect("aggressors");
    let hi = case
        .aggressors
        .iter()
        .map(|r| r.0)
        .max()
        .expect("aggressors");
    for r in lo.saturating_sub(2)..=(hi + 2).min(rows - 1) {
        let row = RowAddr(r);
        let logical = exec.chip().to_logical(row);
        let dp = match case.aggressors.iter().position(|&a| a == row) {
            None => victim_dp,
            Some(i) => aggressor_dp.unwrap_or(
                [
                    DataPattern::ONES,
                    DataPattern::ZEROS,
                    DataPattern::CHECKER_55,
                ][i % 3],
            ),
        };
        exec.write_row(BANK, logical, dp);
    }
    let dummy = exec.chip().to_logical(dummy_phys(&exec));
    exec.write_row(BANK, dummy, DataPattern::CHECKER_55);
    let report = if compiled {
        exec.try_run(&case.program)
    } else {
        exec.interpret(&case.program)
    }
    .expect("valid program");
    let mut flips = Digest::new();
    for f in &report.flips {
        for x in [
            u64::from(f.bank.0),
            u64::from(f.phys_row.0),
            u64::from(f.logical_row.0),
            u64::from(f.col),
            u64::from(f.to),
            f.class as u64,
        ] {
            flips.u64(x);
        }
    }
    let (mut data, mut acc) = (Digest::new(), Digest::new());
    let bank = exec.chip().bank(BANK).expect("bank 0");
    for r in 0..rows {
        let row = RowAddr(r);
        match bank.row(row) {
            None => data.u64(u64::MAX),
            Some(d) => {
                for c in 0..d.cols() {
                    data.u64(u64::from(d.bit(c)));
                }
            }
        }
        let (a_rh, a_simra) = exec.engine().accumulated(BANK, row);
        acc.u64(a_rh.to_bits());
        acc.u64(a_simra.to_bits());
    }
    let log = log.lock().unwrap();
    format!(
        "{} | trr={} | flips={} {:016x} | data {:016x} | acc {:016x} | \
         observer acts={} refs={} refreshed={} {:016x} | elapsed={} acts={}",
        case.name,
        trr,
        report.flips.len(),
        flips.0,
        data.0,
        acc.0,
        log.acts,
        log.refs,
        log.refreshed,
        log.digest.0,
        report.elapsed.0,
        report.acts,
    )
}

/// The lines of the executor this suite was recorded on, `try_run` and
/// `interpret` alike.
const PINNED: &[&str] = &[
    "1-sided RowHammer | trr=false | flips=0 cbf29ce484222325 | data d807c9f053709b35 | acc 144645c5902ffc36 | observer acts=0 refs=0 refreshed=0 cbf29ce484222325 | elapsed=658360000 acts=12360",
    "1-sided RowHammer | trr=true | flips=0 cbf29ce484222325 | data d807c9f053709b35 | acc 033d7c16534e7f46 | observer acts=160 refs=80 refreshed=104 7daf51d88302f3c5 | elapsed=658360000 acts=12360",
    "2-sided RowHammer | trr=false | flips=2 ad6de420cb6dd359 | data 5c2c05d9daa7d345 | acc c5b91620bab77fc4 | observer acts=0 refs=0 refreshed=0 cbf29ce484222325 | elapsed=12788180000 acts=240180",
    "2-sided RowHammer | trr=true | flips=0 cbf29ce484222325 | data 534188f8b61a8c05 | acc e245c33c3c565643 | observer acts=3850 refs=1540 refreshed=2052 efc2dc0b5ad59e00 | elapsed=12788180000 acts=240180",
    "4-sided RowHammer | trr=false | flips=1 9fc2cd41021590dc | data c7e4248096286b64 | acc c9f039128c35f959 | observer acts=0 refs=0 refreshed=0 cbf29ce484222325 | elapsed=6837208000 acts=128408",
    "4-sided RowHammer | trr=true | flips=0 cbf29ce484222325 | data 5271fed9a6ea7da5 | acc 9574fb101aeaf189 | observer acts=2884 refs=824 refreshed=1096 e1159ce1fc762b01 | elapsed=6837208000 acts=128408",
    "8-sided RowHammer | trr=false | flips=1 9fc2cd41021590dc | data c2369a252b355ba4 | acc a0c53dce943e56b9 | observer acts=0 refs=0 refreshed=0 cbf29ce484222325 | elapsed=6963548000 acts=130748",
    "8-sided RowHammer | trr=true | flips=0 cbf29ce484222325 | data 2738be36ec6210e5 | acc e04af9bec4e07984 | observer acts=4642 refs=844 refreshed=1124 659cb47a55e85e40 | elapsed=6963548000 acts=130748",
    "2-sided CoMRA | trr=false | flips=2 3d4187cc5ffa33b6 | data ca57e823756f0de5 | acc 3c2668d49d139244 | observer acts=0 refs=0 refreshed=0 cbf29ce484222325 | elapsed=2512636000 acts=48036",
    "2-sided CoMRA | trr=true | flips=0 cbf29ce484222325 | data 534188f8b61a8c05 | acc 13ff1deacb837251 | observer acts=770 refs=308 refreshed=408 7a29ed7e461b93e1 | elapsed=2512636000 acts=48036",
    "SiMRA-2 | trr=false | flips=69 9b3a902ee0e80839 | data 9ffc31cf97b7e504 | acc 5cb8a2709c2c5776 | observer acts=0 refs=0 refreshed=0 cbf29ce484222325 | elapsed=92500000 acts=3000",
    "SiMRA-2 | trr=true | flips=9 7af66a9ebdd5b3bd | data c36b96882e345104 | acc 151a203ed5961a5a | observer acts=80 refs=20 refreshed=24 a2696460ca27ae81 | elapsed=92500000 acts=3000",
    "SiMRA-4 | trr=false | flips=75 3f72bd76d8a620fc | data 8f014ea593641864 | acc ac07d99ec866cae5 | observer acts=0 refs=0 refreshed=0 cbf29ce484222325 | elapsed=92500000 acts=3000",
    "SiMRA-4 | trr=true | flips=21 abbca15afea13252 | data 347d28769b1e14e4 | acc 59827b2a1615f9b6 | observer acts=80 refs=20 refreshed=24 7f800c52f6d7c789 | elapsed=92500000 acts=3000",
    "SiMRA-8 | trr=false | flips=43 3e9d1758184d56da | data b2c9a024662605e4 | acc 16f30cbd9758c406 | observer acts=0 refs=0 refreshed=0 cbf29ce484222325 | elapsed=92500000 acts=3000",
    "SiMRA-8 | trr=true | flips=17 58a89295ccf5adcb | data 5fc2c68886d449e4 | acc aa3c4c4e4ede5e64 | observer acts=80 refs=20 refreshed=24 379b4e01fc52a999 | elapsed=92500000 acts=3000",
    "SiMRA-16 | trr=false | flips=78 998166445561a87e | data cf8bc5842637a545 | acc 1ca681ca02a43417 | observer acts=0 refs=0 refreshed=0 cbf29ce484222325 | elapsed=92500000 acts=3000",
    "SiMRA-16 | trr=true | flips=38 3c8ea0dba41f4dcd | data 277117b1c9f1fd65 | acc 6b1eddb60ce3bf03 | observer acts=80 refs=20 refreshed=24 e02f120c68068979 | elapsed=92500000 acts=3000",
    "SiMRA-32 | trr=false | flips=0 cbf29ce484222325 | data dff8cbfc335fc7ad | acc 7542bd68779cacb8 | observer acts=0 refs=0 refreshed=0 cbf29ce484222325 | elapsed=92500000 acts=3000",
    "SiMRA-32 | trr=true | flips=0 cbf29ce484222325 | data dff8cbfc335fc7ad | acc 0105b6af5af41653 | observer acts=80 refs=20 refreshed=24 b822887d75e3c745 | elapsed=92500000 acts=3000",
    "SiMRA-8 partial | trr=false | flips=0 cbf29ce484222325 | data 7bcc4027210d6745 | acc cbad02959110dc3f | observer acts=0 refs=0 refreshed=0 cbf29ce484222325 | elapsed=46400000 acts=1560",
    "SiMRA-8 partial | trr=true | flips=0 cbf29ce484222325 | data 7bcc4027210d6745 | acc 7fb485a972726b10 | observer acts=40 refs=10 refreshed=12 7a4b9cad21573e98 | elapsed=46400000 acts=1560",
    "SiMRA-8 mixed members | trr=false | flips=44 562e3e6dbb22e1da | data 92838b8acc69d2e5 | acc 871b7b0ed28ac39f | observer acts=0 refs=0 refreshed=0 cbf29ce484222325 | elapsed=92500000 acts=3000",
    "SiMRA-8 mixed members | trr=true | flips=18 ec1c981c5c67f70f | data 453099cc69a10ac5 | acc 2cc8e1159de19815 | observer acts=80 refs=20 refreshed=24 379b4e01fc52a999 | elapsed=92500000 acts=3000",
    "CoMRA burst, then a same-side activation | trr=false | flips=0 cbf29ce484222325 | data 6c745067ddc01c65 | acc 4e8c62c0c133013e | observer acts=0 refs=0 refreshed=0 cbf29ce484222325 | elapsed=155440000 acts=3140",
    "CoMRA burst, then a same-side activation | trr=true | flips=0 cbf29ce484222325 | data 6c745067ddc01c65 | acc a887c0772481ab44 | observer acts=100 refs=20 refreshed=24 3824e96747110861 | elapsed=155440000 acts=3140",
    "SiMRA-8 burst, then a same-side activation | trr=false | flips=20 45b039a7bbf76a43 | data 766aec550d62db05 | acc 9ae87396e057a055 | observer acts=0 refs=0 refreshed=0 cbf29ce484222325 | elapsed=48470000 acts=1570",
    "SiMRA-8 burst, then a same-side activation | trr=true | flips=7 2ec1b647f5235e1a | data 611475c42447e164 | acc 3ca68c332a21ddff | observer acts=50 refs=10 refreshed=12 f73349df62a23f84 | elapsed=48470000 acts=1570",
];

#[test]
fn trr_evasion_runs_match_their_pinned_observables() {
    let cases = cases();
    let mut compiled = Vec::new();
    let mut oracle = Vec::new();
    for case in &cases {
        for trr in [false, true] {
            compiled.push(observe(case, trr, true));
            oracle.push(observe(case, trr, false));
        }
    }
    assert!(
        compiled == PINNED,
        "try_run moved from the pinned observables:\n{}",
        compiled.join("\n")
    );
    assert!(
        oracle == PINNED,
        "interpret moved from the pinned observables:\n{}",
        oracle.join("\n")
    );
}
