//! Which rows a violated ACT‑PRE‑ACT sequence simultaneously activates.
//!
//! Prior work ([76, 78, 79]) shows that issuing `ACT r1 – PRE – ACT r2`
//! with strongly violated timings makes the row decoder drive a *group* of
//! wordlines: all rows whose addresses agree with `r1` outside the low
//! address bits on which `r1` and `r2` differ. The group size is therefore
//! a power of two (2, 4, 8, 16, or 32 for differences within the low five
//! bits), matching the paper's observed SiMRA-N values (§5.2).

use pud_dram::{ChipGeometry, RowAddr};

/// Number of low row-address bits that can participate in simultaneous
/// activation (2⁵ = 32 rows maximum, as observed in COTS DDR4 chips).
pub const SIMRA_BIT_WINDOW: u32 = 5;

/// The logical rows simultaneously activated by `ACT r1 – PRE – ACT r2`,
/// or `None` if the address pair does not trigger multi-row activation
/// (identical rows, differing high bits, or a cross-subarray pair).
pub fn simra_group(geometry: &ChipGeometry, r1: RowAddr, r2: RowAddr) -> Option<Vec<RowAddr>> {
    let mut rows = Vec::new();
    simra_group_into(geometry, r1, r2, &mut rows).then_some(rows)
}

/// [`simra_group`] into a caller-owned buffer: replaces the contents of
/// `rows` with the group, sorted, and returns whether there is one (`rows`
/// is left empty if not). Allocates nothing once `rows` holds 32 rows.
pub fn simra_group_into(
    geometry: &ChipGeometry,
    r1: RowAddr,
    r2: RowAddr,
    rows: &mut Vec<RowAddr>,
) -> bool {
    rows.clear();
    if r1 == r2 {
        return false;
    }
    let diff = r1.0 ^ r2.0;
    let mask_window = (1u32 << SIMRA_BIT_WINDOW) - 1;
    if diff & !mask_window != 0 {
        return false;
    }
    if !geometry.same_subarray(r1, r2) {
        return false;
    }
    let base = r1.0 & !diff;
    // Every subset of the differing bits, in increasing order: the rows
    // come out sorted.
    let mut subset = 0u32;
    loop {
        rows.push(RowAddr(base | subset));
        subset = subset.wrapping_sub(diff) & diff;
        if subset == 0 {
            break;
        }
    }
    // All group members must stay inside the subarray (groups never span
    // sense-amplifier stripes).
    if !rows.iter().all(|&r| geometry.same_subarray(r1, r)) {
        rows.clear();
        return false;
    }
    true
}

/// The `(r1, r2)` address pair that activates the 2^k-row group containing
/// `base` with differing bit set `mask` (low five bits only).
///
/// # Panics
///
/// Panics if `mask` is zero or has bits outside the low five.
pub fn pair_for_mask(base: RowAddr, mask: u32) -> (RowAddr, RowAddr) {
    assert!(mask != 0, "mask must select at least one bit");
    assert!(
        mask & !((1 << SIMRA_BIT_WINDOW) - 1) == 0,
        "mask must be within the low five bits"
    );
    let r1 = RowAddr(base.0 & !mask);
    let r2 = RowAddr(r1.0 | mask);
    (r1, r2)
}

/// A convenient mask for an N-row group (N in {2, 4, 8, 16, 32}) that
/// leaves bit 0 clear when possible, so the activated rows are spaced two
/// apart and *sandwich* unactivated victims (double-sided SiMRA, Fig. 12a).
///
/// For N = 32 all five bits are needed, producing a contiguous block with
/// no sandwiched victims — which is exactly why the paper could not craft a
/// double-sided 32-row attack (footnote 3).
///
/// # Panics
///
/// Panics if `n` is not one of {2, 4, 8, 16, 32}.
pub fn sandwiching_mask(n: u8) -> u32 {
    match n {
        2 => 0b00010,
        4 => 0b00110,
        8 => 0b01110,
        16 => 0b11110,
        32 => 0b11111,
        _ => panic!("SiMRA group size must be one of 2, 4, 8, 16, 32"),
    }
}

/// A mask producing a contiguous (non-sandwiching) N-row group.
///
/// # Panics
///
/// Panics if `n` is not one of {2, 4, 8, 16, 32}.
pub fn contiguous_mask(n: u8) -> u32 {
    match n {
        2 => 0b00001,
        4 => 0b00011,
        8 => 0b00111,
        16 => 0b01111,
        32 => 0b11111,
        _ => panic!("SiMRA group size must be one of 2, 4, 8, 16, 32"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> ChipGeometry {
        ChipGeometry::scaled_for_tests()
    }

    #[test]
    fn two_row_group() {
        let g = simra_group(&geo(), RowAddr(8), RowAddr(10)).unwrap();
        assert_eq!(g, vec![RowAddr(8), RowAddr(10)]);
    }

    #[test]
    fn four_row_group() {
        let (r1, r2) = pair_for_mask(RowAddr(32), 0b110);
        let g = simra_group(&geo(), r1, r2).unwrap();
        assert_eq!(g, vec![RowAddr(32), RowAddr(34), RowAddr(36), RowAddr(38)]);
    }

    #[test]
    fn group_sizes_cover_paper_range() {
        for n in [2u8, 4, 8, 16, 32] {
            let (r1, r2) = pair_for_mask(RowAddr(64), sandwiching_mask(n));
            let g = simra_group(&geo(), r1, r2).unwrap();
            assert_eq!(g.len(), n as usize, "n={n}");
        }
    }

    #[test]
    fn sandwiching_groups_leave_gaps_except_32() {
        for n in [2u8, 4, 8, 16] {
            let (r1, r2) = pair_for_mask(RowAddr(64), sandwiching_mask(n));
            let g = simra_group(&geo(), r1, r2).unwrap();
            // Consecutive members are two apart: odd rows are sandwiched.
            assert!(g.windows(2).all(|w| w[1].0 - w[0].0 == 2), "n={n}");
        }
        let (r1, r2) = pair_for_mask(RowAddr(64), sandwiching_mask(32));
        let g = simra_group(&geo(), r1, r2).unwrap();
        assert!(g.windows(2).all(|w| w[1].0 - w[0].0 == 1));
    }

    #[test]
    fn the_buffered_decode_matches_and_clears_on_no_group() {
        let g = geo();
        let mut rows = vec![RowAddr(999)];
        for (r1, r2) in [(8, 10), (64, 95), (32, 38), (5, 5), (0, 64), (126, 130)] {
            let (r1, r2) = (RowAddr(r1), RowAddr(r2));
            let found = simra_group_into(&g, r1, r2, &mut rows);
            assert_eq!(found.then(|| rows.clone()), simra_group(&g, r1, r2));
            assert!(found || rows.is_empty());
            assert!(rows.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn identical_rows_do_not_group() {
        assert!(simra_group(&geo(), RowAddr(5), RowAddr(5)).is_none());
    }

    #[test]
    fn high_bit_difference_does_not_group() {
        assert!(simra_group(&geo(), RowAddr(0), RowAddr(64)).is_none());
    }

    #[test]
    fn cross_subarray_pairs_do_not_group() {
        let g = geo();
        // Rows 126 and 130 straddle the 128-row subarray boundary.
        assert!(simra_group(&g, RowAddr(126), RowAddr(130)).is_none());
    }

    #[test]
    #[should_panic(expected = "2, 4, 8, 16, 32")]
    fn bad_group_size_panics() {
        let _ = sandwiching_mask(3);
    }
}
