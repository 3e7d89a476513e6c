//! Property-based tests on the core data structures and invariants,
//! spanning the DRAM model, the disturbance engine, and the executor.
//!
//! Cases are generated by deterministic seeded loops over
//! `disturb::rng` (SplitMix64) rather than an external property-testing
//! framework, keeping the workspace dependency-free while preserving the
//! original properties and their input distributions. Every case is
//! reproducible: the case index is part of the derivation seed.

use pudhammer_suite::bender::{ops, simra_decode, Executor};
use pudhammer_suite::disturb::rng;
use pudhammer_suite::disturb::{
    AggressionKind, DataSummary, DisturbEngine, HammerEvent, LogLogCurve, VulnModel,
};
use pudhammer_suite::dram::{
    profiles::TESTED_MODULES, BankId, ChipGeometry, DataPattern, Picos, RowAddr, RowData,
    RowMapping, SubarrayRegion,
};

fn geometry() -> ChipGeometry {
    ChipGeometry::scaled_for_tests()
}

/// Uniform `u64` in `[lo, hi)` for property case `case`, sub-stream `tag`.
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
fn row_mapping_is_bijective() {
    for case in 0..256u64 {
        let row = gen_u32(0xA0, case, 0, 0, 100_000);
        for mapping in [
            RowMapping::Sequential,
            RowMapping::MirrorPairs,
            RowMapping::for_manufacturer(pudhammer_suite::dram::Manufacturer::SkHynix),
            RowMapping::for_manufacturer(pudhammer_suite::dram::Manufacturer::Micron),
        ] {
            let phys = mapping.to_physical(RowAddr(row));
            assert_eq!(mapping.to_logical(phys), RowAddr(row));
            // Mappings are local to aligned 8-row groups.
            assert_eq!(phys.0 & !7, row & !7);
        }
    }
}

#[test]
fn row_data_flip_is_involutive() {
    for case in 0..256u64 {
        let cols = gen_u32(0xA1, case, 0, 1, 500);
        let col_frac = gen_f64(0xA1, case, 1, 0.0, 1.0);
        let byte = gen_u32(0xA1, case, 2, 0, 256) as u8;
        let pattern = DataPattern(byte);
        let mut row = RowData::filled(cols, pattern);
        let col = ((cols - 1) as f64 * col_frac) as u32;
        let orig = row.bit(col);
        row.flip_bit(col);
        assert_eq!(row.bit(col), !orig);
        row.flip_bit(col);
        assert!(row.matches_pattern(pattern));
    }
}

#[test]
fn diff_count_matches_diff_columns() {
    for case in 0..256u64 {
        let cols = gen_u32(0xA2, case, 0, 64, 512);
        let n_flips = gen_u64(0xA2, case, 1, 0, 16);
        let a = RowData::filled(cols, DataPattern::ZEROS);
        let mut b = a.clone();
        for k in 0..n_flips {
            let f = gen_u32(0xA2, case, 2 + k, 0, 512);
            if f < cols {
                b.set_bit(f, true);
            }
        }
        assert_eq!(a.diff_count(&b) as usize, a.diff_columns(&b).len());
    }
}

#[test]
fn majority_is_idempotent_and_bounded() {
    // The input space is tiny — cover it exhaustively.
    for byte in 0u16..=255 {
        let p = DataPattern(byte as u8);
        let r = RowData::filled(128, p);
        assert_eq!(RowData::majority(&[&r, &r, &r]), r.clone());
        // Majority with all-ones and all-zeros equals the row itself (MAJ3
        // with complementary constants is the identity).
        let ones = RowData::filled(128, DataPattern::ONES);
        let zeros = RowData::filled(128, DataPattern::ZEROS);
        assert_eq!(RowData::majority3(&r, &ones, &zeros), r);
    }
}

#[test]
fn subarray_regions_partition_rows() {
    for case in 0..256u64 {
        let total = gen_u32(0xA3, case, 0, 5, 2000);
        let idx_frac = gen_f64(0xA3, case, 1, 0.0, 1.0);
        let index = ((total - 1) as f64 * idx_frac) as u32;
        let region = SubarrayRegion::classify(index, total);
        assert!(region.index() < 5);
        // Region boundaries are monotone in the index.
        if index + 1 < total {
            let next = SubarrayRegion::classify(index + 1, total);
            assert!(next.index() >= region.index());
        }
    }
}

#[test]
fn loglog_curves_are_monotone_between_monotone_anchors() {
    let c = LogLogCurve::new(&[(1.0, 1.0), (10.0, 3.0), (1_000.0, 50.0), (100_000.0, 400.0)]);
    for case in 0..256u64 {
        let x = gen_f64(0xA4, case, 0, 1.0, 100_000.0);
        let y = gen_f64(0xA4, case, 1, 1.0, 100_000.0);
        let (lo, hi) = (x.min(y), x.max(y));
        assert!(c.eval(lo) <= c.eval(hi) + 1e-9);
    }
}

#[test]
fn vulnerability_sampling_is_pure() {
    let model = VulnModel::new(&TESTED_MODULES[1], geometry(), 0, 99);
    for case in 0..128u64 {
        let row = gen_u32(0xA5, case, 0, 0, 1024);
        let bank = gen_u32(0xA5, case, 1, 0, 2) as u8;
        let a = model.row_vuln(BankId(bank), RowAddr(row));
        let b = model.row_vuln(BankId(bank), RowAddr(row));
        assert_eq!(a, b);
        assert!(a.t_rh >= TESTED_MODULES[1].rowhammer.min);
        assert!(a.beta >= 0.8 && a.beta <= 1.4);
        for n in [2u8, 4, 8, 16, 32] {
            assert!(a.simra_n_factor(n) >= 1.0);
        }
    }
}

#[test]
fn engine_accumulation_is_linear() {
    for case in 0..64u64 {
        let reps = gen_u64(0xA6, case, 0, 1, 2000);
        let split = gen_u64(0xA6, case, 1, 1, 1999).min(reps);
        let mk = || DisturbEngine::new(&TESTED_MODULES[1], geometry(), 0, 1);
        let ev = |n: u64| {
            HammerEvent::reference(
                BankId(0),
                RowAddr(9),
                AggressionKind::RowHammerDouble,
                DataSummary::from_pattern(DataPattern::CHECKER_55),
                n,
            )
        };
        let mut victim = RowData::filled(1024, DataPattern::CHECKER_AA);
        let mut flips = Vec::new();
        let mut e1 = mk();
        e1.hammer(&ev(reps), &mut victim, &mut flips);
        let mut e2 = mk();
        e2.hammer(&ev(split), &mut victim, &mut flips);
        e2.hammer(&ev(reps - split), &mut victim, &mut flips);
        let (a1, _) = e1.accumulated(BankId(0), RowAddr(9));
        let (a2, _) = e2.accumulated(BankId(0), RowAddr(9));
        assert!((a1 - a2).abs() < 1e-6 * a1.max(1.0));
    }
}

#[test]
fn simra_groups_are_powers_of_two_and_contain_both_addresses() {
    let g = geometry();
    for case in 0..256u64 {
        let base = gen_u32(0xA7, case, 0, 0, 96);
        let mask = gen_u32(0xA7, case, 1, 1, 32);
        let (r1, r2) = simra_decode::pair_for_mask(RowAddr(base), mask);
        if let Some(group) = simra_decode::simra_group(&g, r1, r2) {
            assert!(group.len().is_power_of_two());
            assert_eq!(group.len(), 1 << mask.count_ones());
            assert!(group.contains(&r1));
            assert!(group.contains(&r2));
            // Sorted and unique.
            assert!(group.windows(2).all(|w| w[0] < w[1]));
        }
    }
}

#[test]
fn executor_rowclone_copies_any_pattern() {
    let mut tested = 0u32;
    for case in 0..96u64 {
        let byte = gen_u32(0xA8, case, 0, 0, 256) as u8;
        let src = gen_u32(0xA8, case, 1, 2, 60);
        let offset = gen_u32(0xA8, case, 2, 1, 30);
        let dst = src + offset;
        if !geometry().same_subarray(RowAddr(src), RowAddr(dst)) {
            continue;
        }
        let mut exec = Executor::new(&TESTED_MODULES[1], geometry(), 0, 3);
        let bank = BankId(0);
        let pattern = DataPattern(byte);
        exec.write_row(bank, RowAddr(src), pattern);
        exec.write_row(bank, RowAddr(dst), pattern.negated());
        let out = ops::in_dram_copy(&mut exec, bank, RowAddr(src), RowAddr(dst));
        assert!(out.expect("copy result").matches_pattern(pattern));
        tested += 1;
    }
    assert!(tested >= 16, "too many cases rejected: {tested}");
}

#[test]
fn picos_roundtrip() {
    for case in 0..256u64 {
        let ns = gen_f64(0xA9, case, 0, 0.0, 1e9);
        let p = Picos::from_ns(ns);
        assert!((p.as_ns() - ns).abs() <= 0.000_501);
    }
}
