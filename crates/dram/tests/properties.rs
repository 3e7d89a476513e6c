//! Property-based tests of the DRAM device model's invariants.
//!
//! Cases are generated by deterministic seeded loops over
//! `pud_disturb::rng` (SplitMix64), so every run covers the same inputs
//! and failures reproduce exactly.

use pud_disturb::rng;
use pud_dram::{
    BankId, CellLayout, Chip, ChipGeometry, DataPattern, Manufacturer, RowAddr, RowData,
    RowMapping, SubarrayRegion,
};

fn gen_u64(seed: u64, case: u64, tag: u64, lo: u64, hi: u64) -> u64 {
    lo + rng::mix_all(&[seed, case, tag]) % (hi - lo)
}

fn gen_u32(seed: u64, case: u64, tag: u64, lo: u32, hi: u32) -> u32 {
    gen_u64(seed, case, tag, lo as u64, hi as u64) as u32
}

fn gen_byte(seed: u64, case: u64, tag: u64) -> u8 {
    gen_u32(seed, case, tag, 0, 256) as u8
}

#[test]
fn majority3_is_symmetric() {
    for case in 0..256u64 {
        let a = gen_byte(0xD0, case, 0);
        let b = gen_byte(0xD0, case, 1);
        let c = gen_byte(0xD0, case, 2);
        let ra = RowData::filled(64, DataPattern(a));
        let rb = RowData::filled(64, DataPattern(b));
        let rc = RowData::filled(64, DataPattern(c));
        let m1 = RowData::majority3(&ra, &rb, &rc);
        let m2 = RowData::majority3(&rc, &ra, &rb);
        let m3 = RowData::majority3(&rb, &rc, &ra);
        assert_eq!(&m1, &m2);
        assert_eq!(&m2, &m3);
    }
}

#[test]
fn majority3_is_bounded_by_and_or() {
    for case in 0..256u64 {
        let a = gen_byte(0xD1, case, 0);
        let b = gen_byte(0xD1, case, 1);
        let c = gen_byte(0xD1, case, 2);
        // AND(a,b,c) <= MAJ3(a,b,c) <= OR(a,b,c) bitwise.
        let maj = RowData::majority3(
            &RowData::filled(64, DataPattern(a)),
            &RowData::filled(64, DataPattern(b)),
            &RowData::filled(64, DataPattern(c)),
        );
        let and = a & b & c;
        let or = a | b | c;
        for col in 0..8u32 {
            let bit = maj.bit(col);
            let and_bit = (and >> col) & 1 == 1;
            let or_bit = (or >> col) & 1 == 1;
            assert!(!and_bit || bit, "AND implies MAJ");
            assert!(!bit || or_bit, "MAJ implies OR");
        }
    }
}

#[test]
fn diff_count_is_a_metric() {
    for case in 0..256u64 {
        let a = gen_byte(0xD2, case, 0);
        let b = gen_byte(0xD2, case, 1);
        let c = gen_byte(0xD2, case, 2);
        let ra = RowData::filled(128, DataPattern(a));
        let rb = RowData::filled(128, DataPattern(b));
        let rc = RowData::filled(128, DataPattern(c));
        // Symmetry and identity.
        assert_eq!(ra.diff_count(&rb), rb.diff_count(&ra));
        assert_eq!(ra.diff_count(&ra), 0);
        // Triangle inequality (Hamming distance).
        assert!(ra.diff_count(&rc) <= ra.diff_count(&rb) + rb.diff_count(&rc));
    }
}

#[test]
fn neighbors_are_symmetric() {
    for case in 0..256u64 {
        let row = gen_u32(0xD3, case, 0, 8, 1000);
        let mfr_idx = gen_u64(0xD3, case, 1, 0, 4) as usize;
        let mapping = RowMapping::for_manufacturer(Manufacturer::ALL[mfr_idx]);
        let (below, above) = mapping.neighbors_of(RowAddr(row), 1);
        // The neighbour relation is symmetric: if b is below r, then r is
        // above b.
        if let Some(b) = below {
            let (_, b_above) = mapping.neighbors_of(b, 1);
            assert_eq!(b_above, Some(RowAddr(row)));
        }
        if let Some(a) = above {
            let (a_below, _) = mapping.neighbors_of(a, 1);
            assert_eq!(a_below, Some(RowAddr(row)));
        }
    }
}

#[test]
fn charge_encoding_roundtrips_for_all_layouts() {
    for case in 0..256u64 {
        let row = gen_u32(0xD4, case, 0, 0, 64);
        let col = gen_u32(0xD4, case, 1, 0, 64);
        let bit = gen_u64(0xD4, case, 2, 0, 2) == 1;
        let block = gen_u32(0xD4, case, 3, 1, 4);
        for layout in [
            CellLayout::AllTrue,
            CellLayout::RowBlocks { block },
            CellLayout::Interleaved,
        ] {
            let charge = layout.charge_for(RowAddr(row), col, bit);
            assert_eq!(layout.bit_for(RowAddr(row), col, charge), bit);
        }
    }
}

#[test]
fn chip_logical_access_roundtrips() {
    let geometry = ChipGeometry::scaled_for_tests();
    for case in 0..64u64 {
        let row = gen_u32(0xD5, case, 0, 0, 1000);
        let byte = gen_byte(0xD5, case, 1);
        if row >= geometry.rows_per_bank() {
            continue;
        }
        let mut chip = Chip::new(
            geometry,
            RowMapping::for_manufacturer(Manufacturer::SkHynix),
            CellLayout::AllTrue,
        );
        chip.fill_logical_row(BankId(0), RowAddr(row), DataPattern(byte))
            .unwrap();
        let read = chip
            .read_logical_row(BankId(0), RowAddr(row))
            .unwrap()
            .unwrap();
        assert!(read.matches_pattern(DataPattern(byte)));
    }
}

#[test]
fn region_banding_is_stable_under_scaling() {
    for case in 0..256u64 {
        let index = gen_u32(0xD6, case, 0, 0, 500);
        let scale = gen_u32(0xD6, case, 1, 1, 8);
        // Scaling both the index and the total by the same factor preserves
        // the region.
        let total = 500u32;
        let a = SubarrayRegion::classify(index, total);
        let b = SubarrayRegion::classify(index * scale, total * scale);
        assert_eq!(a, b);
    }
}

/// Per-column majority of `rows` (each a column-indexed bit vector), counted
/// one bit at a time: the reference for the bit-sliced [`RowData::majority`].
fn reference_majority(rows: &[Vec<bool>]) -> Vec<bool> {
    let width = rows[0].len();
    (0..width)
        .map(|col| rows.iter().filter(|r| r[col]).count() > rows.len() / 2)
        .collect()
}

fn to_row(bits: &[bool]) -> RowData {
    let mut row = RowData::filled(bits.len() as u32, DataPattern::ZEROS);
    for (col, &bit) in bits.iter().enumerate() {
        if bit {
            row.set_bit(col as u32, true);
        }
    }
    row
}

fn random_bits(width: u32, tag: &[u64]) -> Vec<bool> {
    let mut key = tag.to_vec();
    key.push(0);
    let mut bits = Vec::with_capacity(width as usize);
    for word in 0..width.div_ceil(64) {
        *key.last_mut().unwrap() = u64::from(word);
        let x = rng::mix_all(&key);
        let take = (width - word * 64).min(64);
        bits.extend((0..take).map(|b| (x >> b) & 1 == 1));
    }
    bits
}

/// The row shapes the differential test feeds the kernel.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Random,
    AllEqual,
    OneDissenter,
    /// Each column holds exactly ⌊n/2⌋ ones (one vote short) or ⌊n/2⌋ + 1
    /// (just enough), placed at a random rotation.
    AtThreshold,
}

/// `n` rows of `width` columns in the given shape.
fn shaped_rows(shape: Shape, width: u32, n: usize, seed: u64) -> Vec<Vec<bool>> {
    let tag = |t: u64| [seed, u64::from(width), n as u64, t];
    match shape {
        Shape::Random => (0..n)
            .map(|i| random_bits(width, &tag(100 + i as u64)))
            .collect(),
        Shape::AllEqual => vec![random_bits(width, &tag(0)); n],
        Shape::OneDissenter => {
            let base = random_bits(width, &tag(0));
            let at = gen_u64(seed, n as u64, u64::from(width), 0, n as u64) as usize;
            let mut rows = vec![base; n];
            rows[at] = rows[at].iter().map(|b| !b).collect();
            rows
        }
        Shape::AtThreshold => {
            let half = n / 2;
            let above = random_bits(width, &tag(1));
            let mut rows = vec![vec![false; width as usize]; n];
            for col in 0..width as usize {
                let ones = half + usize::from(above[col]);
                let offset = gen_u64(seed, col as u64, u64::from(width), 0, n as u64) as usize;
                for k in 0..ones {
                    rows[(offset + k) % n][col] = true;
                }
            }
            rows
        }
    }
}

#[test]
fn majority_matches_per_bit_reference() {
    for width in [1u32, 63, 64, 65, 1024, 8192] {
        for n in (1..=65usize).step_by(2) {
            for (s, shape) in [
                Shape::Random,
                Shape::AllEqual,
                Shape::OneDissenter,
                Shape::AtThreshold,
            ]
            .into_iter()
            .enumerate()
            {
                let seed = 0xD7 + s as u64;
                let bits = shaped_rows(shape, width, n, seed);
                let rows: Vec<RowData> = bits.iter().map(|b| to_row(b)).collect();
                let refs: Vec<&RowData> = rows.iter().collect();
                let expected = to_row(&reference_majority(&bits));
                assert_eq!(
                    RowData::majority(&refs),
                    expected,
                    "width {width}, {n} rows, {shape:?}"
                );
                // The same vote with the all-zero rows left implicit.
                let present: Vec<&RowData> = refs
                    .iter()
                    .zip(&bits)
                    .filter(|(_, b)| b.iter().any(|&bit| bit))
                    .map(|(&r, _)| r)
                    .collect();
                assert_eq!(
                    RowData::majority_with_zeros(width, &present, n - present.len()),
                    expected,
                    "width {width}, {n} rows, {shape:?}, zero rows implicit"
                );
            }
        }
    }
}

#[test]
fn majority_with_zeros_counts_the_implicit_rows() {
    let ones = RowData::filled(70, DataPattern::ONES);
    let zeros = RowData::filled(70, DataPattern::ZEROS);
    // Two ones against one implicit zero, then against three.
    assert_eq!(RowData::majority_with_zeros(70, &[&ones, &ones], 1), ones);
    assert_eq!(RowData::majority_with_zeros(70, &[&ones, &ones], 3), zeros);
    // No explicit rows at all.
    assert_eq!(RowData::majority_with_zeros(70, &[], 5), zeros);
}
