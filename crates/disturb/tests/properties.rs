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
