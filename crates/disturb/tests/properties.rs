//! Property-based tests of the disturbance engine's invariants.
//!
//! Cases are generated by deterministic seeded loops over [`rng`]
//! (SplitMix64), so every run covers the same inputs and failures
//! reproduce exactly.

use pud_disturb::rng;
use pud_disturb::{AggressionKind, DataSummary, DisturbEngine, HammerEvent, VulnModel};
use pud_dram::{
    profiles::TESTED_MODULES, BankId, Celsius, ChipGeometry, DataPattern, Picos, RowAddr, RowData,
};

fn engine(seed: u64) -> DisturbEngine {
    DisturbEngine::new(
        &TESTED_MODULES[1],
        ChipGeometry::scaled_for_tests(),
        0,
        seed,
    )
}

fn gen_u64(seed: u64, case: u64, tag: u64, lo: u64, hi: u64) -> u64 {
    lo + rng::mix_all(&[seed, case, tag]) % (hi - lo)
}

fn gen_u32(seed: u64, case: u64, tag: u64, lo: u32, hi: u32) -> u32 {
    gen_u64(seed, case, tag, lo as u64, hi as u64) as u32
}

fn gen_f64(seed: u64, case: u64, tag: u64, lo: f64, hi: f64) -> f64 {
    lo + rng::unit(&[seed, case, tag]) * (hi - lo)
}

#[test]
fn event_weights_are_positive_and_finite() {
    let e = engine(1);
    let rows_per_bank = e.model().geometry().rows_per_bank();
    for case in 0..128u64 {
        let row = gen_u32(0xE0, case, 0, 2, 1000);
        if row >= rows_per_bank {
            continue;
        }
        let t_on_ns = gen_f64(0xE0, case, 1, 36.0, 100_000.0);
        let temp = gen_f64(0xE0, case, 2, 45.0, 85.0);
        let byte = gen_u32(0xE0, case, 3, 0, 256) as u8;
        let kind_idx = gen_u64(0xE0, case, 4, 0, 6) as usize;
        let d = Picos::from_ns(3.0);
        let kinds = [
            AggressionKind::RowHammerSingle,
            AggressionKind::RowHammerDouble,
            AggressionKind::RowHammerFarDouble,
            AggressionKind::ComraDouble {
                pre_to_act: Picos::from_ns(7.5),
                reversed: false,
            },
            AggressionKind::SimraDouble {
                n_rows: 4,
                act_to_pre: d,
                pre_to_act: d,
            },
            AggressionKind::SimraSingle {
                n_rows: 16,
                act_to_pre: d,
                pre_to_act: d,
            },
        ];
        let vuln = e.model().row_vuln(BankId(0), RowAddr(row));
        let ev = HammerEvent {
            bank: BankId(0),
            victim: RowAddr(row),
            kind: kinds[kind_idx],
            t_aggon: Picos::from_ns(t_on_ns),
            temperature: Celsius(temp),
            aggressor_data: DataSummary::from_pattern(DataPattern(byte)),
            distance: 1,
            repeat: 1,
        };
        let w = e.event_weight(&ev, &vuln);
        assert!(w.is_finite() && w > 0.0, "weight {w}");
        // Blast-radius attenuation strictly reduces the weight.
        let far = HammerEvent { distance: 2, ..ev };
        assert!(e.event_weight(&far, &vuln) < w);
    }
}

#[test]
fn pressing_never_weakens_an_event() {
    // Weight is monotone in t_AggOn (RowPress, Observations 6 and 18).
    let e = engine(2);
    let rows_per_bank = e.model().geometry().rows_per_bank();
    for case in 0..128u64 {
        let row = gen_u32(0xE1, case, 0, 2, 1000);
        if row >= rows_per_bank {
            continue;
        }
        let lo = gen_f64(0xE1, case, 1, 36.0, 50_000.0);
        let extra = gen_f64(0xE1, case, 2, 1.0, 20_000.0);
        let vuln = e.model().row_vuln(BankId(0), RowAddr(row));
        let mk = |ns: f64| {
            HammerEvent::reference(
                BankId(0),
                RowAddr(row),
                AggressionKind::RowHammerDouble,
                DataSummary::from_pattern(DataPattern::CHECKER_55),
                1,
            )
            .with_t_aggon_ns(ns)
        };
        let a = e.event_weight(&mk(lo), &vuln);
        let b = e.event_weight(&mk(lo + extra), &vuln);
        assert!(b >= a * 0.999, "{a} -> {b}");
    }
}

#[test]
fn hammering_is_deterministic_per_seed() {
    let geometry = ChipGeometry::scaled_for_tests();
    for case in 0..48u64 {
        let row = gen_u32(0xE2, case, 0, 2, 1000);
        if row >= geometry.rows_per_bank() {
            continue;
        }
        let count = gen_u64(0xE2, case, 1, 1, 1_000_000);
        let run = || {
            let mut e = engine(7);
            let mut v = RowData::filled(geometry.cols_per_row, DataPattern::CHECKER_AA);
            let ev = HammerEvent::reference(
                BankId(0),
                RowAddr(row),
                AggressionKind::RowHammerDouble,
                DataSummary::from_pattern(DataPattern::CHECKER_55),
                count,
            );
            let mut flips = Vec::new();
            e.hammer(&ev, &mut v, &mut flips);
            (flips, v)
        };
        let (f1, v1) = run();
        let (f2, v2) = run();
        assert_eq!(f1, f2);
        assert_eq!(v1, v2);
    }
}

#[test]
fn more_hammers_never_flip_fewer_bits() {
    let geometry = ChipGeometry::scaled_for_tests();
    for case in 0..48u64 {
        let row = gen_u32(0xE3, case, 0, 2, 1000);
        if row >= geometry.rows_per_bank() {
            continue;
        }
        let base = gen_u64(0xE3, case, 1, 1, 500_000);
        let extra = gen_u64(0xE3, case, 2, 1, 500_000);
        let flips_for = |count: u64| {
            let mut e = engine(9);
            let mut v = RowData::filled(geometry.cols_per_row, DataPattern::CHECKER_AA);
            let ev = HammerEvent::reference(
                BankId(0),
                RowAddr(row),
                AggressionKind::RowHammerDouble,
                DataSummary::from_pattern(DataPattern::CHECKER_55),
                count,
            );
            let mut flips = Vec::new();
            e.hammer(&ev, &mut v, &mut flips);
            flips.len()
        };
        assert!(flips_for(base + extra) >= flips_for(base));
    }
}

#[test]
fn vulnerability_is_independent_of_query_order() {
    let model = VulnModel::new(&TESTED_MODULES[1], ChipGeometry::scaled_for_tests(), 0, 11);
    for case in 0..64u64 {
        let len = gen_u64(0xE4, case, 0, 1, 20) as usize;
        let rows: Vec<u32> = (0..len)
            .map(|i| gen_u32(0xE4, case, 1 + i as u64, 0, 1000))
            .collect();
        let forward: Vec<f64> = rows
            .iter()
            .map(|&r| model.row_vuln(BankId(0), RowAddr(r)).t_rh)
            .collect();
        let backward: Vec<f64> = rows
            .iter()
            .rev()
            .map(|&r| model.row_vuln(BankId(0), RowAddr(r)).t_rh)
            .collect();
        let backward_rev: Vec<f64> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward_rev);
    }
}

/// Small extension trait keeping the property bodies terse.
trait WithTAggOn {
    fn with_t_aggon_ns(self, ns: f64) -> Self;
}

impl WithTAggOn for HammerEvent {
    fn with_t_aggon_ns(mut self, ns: f64) -> HammerEvent {
        self.t_aggon = Picos::from_ns(ns);
        self
    }
}

/// One seeded hammer event on `victim`: its kind, distance, on-time,
/// temperature and aggressor data vary, so each victim sees more event
/// shapes than its record holds inline weight slots.
fn random_event(seed: u64, step: u64, victim: (BankId, RowAddr)) -> HammerEvent {
    let d = Picos::from_ns(3.0);
    let kinds = [
        AggressionKind::RowHammerSingle,
        AggressionKind::RowHammerDouble,
        AggressionKind::RowHammerFarDouble,
        AggressionKind::ComraDouble {
            pre_to_act: Picos::from_ns(7.5),
            reversed: false,
        },
        AggressionKind::ComraSingle {
            pre_to_act: Picos::from_ns(7.5),
            reversed: true,
        },
        AggressionKind::SimraDouble {
            n_rows: 4,
            act_to_pre: d,
            pre_to_act: d,
        },
        AggressionKind::SimraSingle {
            n_rows: 8,
            act_to_pre: d,
            pre_to_act: d,
        },
    ];
    let patterns = [
        DataPattern::ZEROS,
        DataPattern::ONES,
        DataPattern::CHECKER_55,
        DataPattern::CHECKER_AA,
    ];
    HammerEvent {
        bank: victim.0,
        victim: victim.1,
        kind: kinds[gen_u64(seed, step, 10, 0, kinds.len() as u64) as usize],
        t_aggon: Picos::from_ns([36.0, 36.0, 7800.0][gen_u64(seed, step, 11, 0, 3) as usize]),
        temperature: Celsius([80.0, 80.0, 50.0][gen_u64(seed, step, 12, 0, 3) as usize]),
        aggressor_data: DataSummary::from_pattern(
            patterns[gen_u64(seed, step, 13, 0, patterns.len() as u64) as usize],
        ),
        distance: gen_u32(seed, step, 14, 1, 3),
        repeat: [1, 40, 2_000, 30_000][gen_u64(seed, step, 15, 0, 4) as usize],
    }
}

#[test]
fn batched_records_agree_with_the_uncached_engine() {
    // Seeded interleavings of hammers, restorations, rewrites and full
    // refreshes on a few rows of two banks. The batched engine serves its
    // summaries, eligibilities and weights from one record per row (and
    // sometimes takes an uncached hammer, or a bulk event of the same
    // shape, as bulk replay applies); the reference recomputes everything.
    // Flips, row data, accumulated disturbance and forecasts must agree bit
    // for bit.
    let victims: Vec<(BankId, RowAddr)> = [(0, 10), (0, 11), (0, 13), (1, 10)]
        .into_iter()
        .map(|(b, r)| (BankId(b), RowAddr(r)))
        .collect();
    let mut total_flips = 0;
    for seed in 0..6u64 {
        let mut batched = engine(seed);
        let mut reference = engine(seed);
        let mut data_b: Vec<RowData> = victims
            .iter()
            .map(|_| RowData::filled(1024, DataPattern::CHECKER_AA))
            .collect();
        let mut data_r = data_b.clone();
        for step in 0..400u64 {
            let i = gen_u64(seed, step, 0, 0, victims.len() as u64) as usize;
            let (bank, row) = victims[i];
            let what = format!("seed {seed} step {step}");
            match gen_u64(seed, step, 1, 0, 20) {
                0 => {
                    batched.restore(bank, row);
                    reference.restore(bank, row);
                }
                1 => {
                    let p = DataPattern(gen_u32(seed, step, 2, 0, 256) as u8);
                    data_b[i] = RowData::filled(1024, p);
                    data_r[i] = RowData::filled(1024, p);
                    batched.rewrite(bank, row);
                    reference.rewrite(bank, row);
                }
                2 => {
                    batched.restore_all();
                    reference.restore_all();
                }
                op => {
                    let ev = random_event(seed, step, (bank, row));
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    match op % 3 {
                        0 => batched.hammer(&ev, &mut data_b[i], &mut got),
                        _ => batched.hammer_batched(&ev, &mut data_b[i], &mut got),
                    }
                    reference.hammer(&ev, &mut data_r[i], &mut want);
                    if op % 4 == 0 {
                        // A bulk replay of the same event.
                        let mut bulk = ev;
                        bulk.repeat = ev.repeat * 7;
                        batched.hammer_batched(&bulk, &mut data_b[i], &mut got);
                        reference.hammer(&bulk, &mut data_r[i], &mut want);
                    }
                    assert_eq!(got, want, "{what}: flips");
                    total_flips += got.len();
                }
            }
            assert!(data_b[i] == data_r[i], "{what}: row data");
            for &(b, r) in &victims {
                assert_eq!(
                    batched.accumulated(b, r).0.to_bits(),
                    reference.accumulated(b, r).0.to_bits(),
                    "{what}: accumulated"
                );
                assert_eq!(
                    batched.accumulated(b, r).1.to_bits(),
                    reference.accumulated(b, r).1.to_bits(),
                    "{what}: accumulated"
                );
            }
            // Forecasts start from the same state and history.
            let ev = random_event(seed, step + 1_000_000, (bank, row));
            let forecast = |e: &DisturbEngine, data: &RowData| {
                e.forecast(bank, row, data).map(|mut f| {
                    e.forecast_steady(&mut f, &ev);
                    [1, 10, 1_000, 100_000].map(|k| f.flips_after(k))
                })
            };
            assert_eq!(
                forecast(&batched, &data_b[i]),
                forecast(&reference, &data_r[i]),
                "{what}: forecast"
            );
        }
    }
    assert!(total_flips > 0, "the interleavings must reach HC_first");
}
