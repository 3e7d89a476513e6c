//! Victim-centric construction of hammering kernels.
//!
//! A [`Kernel`] is a concrete attack recipe — which logical rows to
//! activate with which timings — from which a [`TestProgram`] of any hammer
//! count can be generated. The double-/single-sidedness of the resulting
//! disturbance is *not* encoded here: it emerges in the executor from the
//! physical adjacency of the activated rows, exactly as on real hardware.

use pud_bender::{ops, simra_decode, TestProgram};
use pud_disturb::calib;
use pud_dram::{BankId, Chip, DataPattern, Picos, RowAddr, SubarrayId};

use crate::fleet::ChipUnderTest;

/// Default far-row offset (in physical rows) for single-sided CoMRA and far
/// double-sided RowHammer kernels.
pub const DEFAULT_FAR_OFFSET: u32 = 40;

/// A concrete hammering kernel over logical rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Alternating activation of two rows.
    RowHammerDouble {
        /// First aggressor (logical).
        a: RowAddr,
        /// Second aggressor (logical).
        b: RowAddr,
        /// Aggressor on-time per activation.
        t_aggon: Picos,
    },
    /// Repeated activation of one row.
    RowHammerSingle {
        /// The aggressor (logical).
        a: RowAddr,
        /// Aggressor on-time per activation.
        t_aggon: Picos,
    },
    /// The CoMRA in-DRAM copy cycle (Fig. 3c).
    Comra {
        /// Copy source (logical).
        src: RowAddr,
        /// Copy destination (logical).
        dst: RowAddr,
        /// Violated PRE→ACT latency.
        pre_to_act: Picos,
        /// Destination on-time (`ACT dst → PRE`).
        t_aggon: Picos,
    },
    /// The SiMRA multi-row activation cycle (Fig. 12c).
    Simra {
        /// First ACT address (logical).
        r1: RowAddr,
        /// Second ACT address (logical).
        r2: RowAddr,
        /// ACT→PRE delay.
        act_to_pre: Picos,
        /// PRE→ACT delay.
        pre_to_act: Picos,
        /// Group on-time after the second ACT.
        t_aggon: Picos,
    },
}

impl Kernel {
    /// Generates the test program performing `count` hammer cycles.
    pub fn program(&self, bank: BankId, count: u64) -> TestProgram {
        match *self {
            Kernel::RowHammerDouble { a, b, t_aggon } => {
                ops::double_sided_rowhammer(bank, a, b, t_aggon, count)
            }
            Kernel::RowHammerSingle { a, t_aggon } => {
                ops::single_sided_rowhammer(bank, a, t_aggon, count)
            }
            Kernel::Comra {
                src,
                dst,
                pre_to_act,
                t_aggon,
            } => ops::comra(bank, src, dst, pre_to_act, t_aggon, count),
            Kernel::Simra {
                r1,
                r2,
                act_to_pre,
                pre_to_act,
                t_aggon,
            } => ops::simra(bank, r1, r2, act_to_pre, pre_to_act, t_aggon, count),
        }
    }

    /// The logical rows the kernel activates directly (for initialization
    /// with the aggressor data pattern).
    pub fn aggressors(&self) -> Vec<RowAddr> {
        match *self {
            Kernel::RowHammerDouble { a, b, .. } => vec![a, b],
            Kernel::RowHammerSingle { a, .. } => vec![a],
            Kernel::Comra { src, dst, .. } => vec![src, dst],
            Kernel::Simra { r1, r2, .. } => vec![r1, r2],
        }
    }

    /// Returns a copy with a different aggressor on-time (RowPress-style
    /// kernels, Figs. 8 and 17).
    pub fn with_t_aggon(mut self, t: Picos) -> Kernel {
        match &mut self {
            Kernel::RowHammerDouble { t_aggon, .. }
            | Kernel::RowHammerSingle { t_aggon, .. }
            | Kernel::Comra { t_aggon, .. }
            | Kernel::Simra { t_aggon, .. } => *t_aggon = t,
        }
        self
    }
}

/// The hammering-pattern class of one §4.2 measurement: the vocabulary
/// profile keys name and the drivers measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternClass {
    /// Double-sided RowHammer (two adjacent aggressors).
    RhDs,
    /// Single-sided RowHammer.
    RhSs,
    /// Double-sided CoMRA (in-DRAM copy sandwiching the victim).
    ComraDs,
    /// Single-sided CoMRA (adjacent source, far destination).
    ComraSs,
    /// SiMRA-N multi-row activation, N ∈ {2, 4, 8, 16, 32}.
    Simra(u8),
}

impl PatternClass {
    /// Canonical wire text (`rh-ds`, `comra-ss`, `simra-8`, ...).
    pub fn canonical(self) -> String {
        match self {
            PatternClass::RhDs => "rh-ds".to_string(),
            PatternClass::RhSs => "rh-ss".to_string(),
            PatternClass::ComraDs => "comra-ds".to_string(),
            PatternClass::ComraSs => "comra-ss".to_string(),
            PatternClass::Simra(n) => format!("simra-{n}"),
        }
    }

    /// Parses the canonical wire text.
    pub(crate) fn parse(s: &str) -> Result<PatternClass, String> {
        match s {
            "rh-ds" => Ok(PatternClass::RhDs),
            "rh-ss" => Ok(PatternClass::RhSs),
            "comra-ds" => Ok(PatternClass::ComraDs),
            "comra-ss" => Ok(PatternClass::ComraSs),
            _ => {
                let n = s
                    .strip_prefix("simra-")
                    .and_then(|n| n.parse::<u8>().ok())
                    .filter(|n| matches!(n, 2 | 4 | 8 | 16 | 32));
                n.map(PatternClass::Simra).ok_or_else(|| {
                    format!(
                        "unknown pattern class {s:?} (expected rh-ds, rh-ss, comra-ds, \
                         comra-ss, or simra-<2|4|8|16|32>)"
                    )
                })
            }
        }
    }

    /// The aggressor data pattern measured when the full WCDP search is
    /// skipped: checkerboard for RowHammer/CoMRA (Observation 3),
    /// all-zeros for SiMRA (Observations 13–14: the victim then holds
    /// 0xFF, the most flippable pattern for 1→0 disturbance).
    pub fn default_dp(self) -> DataPattern {
        match self {
            PatternClass::Simra(_) => DataPattern::ZEROS,
            _ => DataPattern::CHECKER_55,
        }
    }

    /// The class's kernel for the physical `victim`, or `None` if the
    /// victim cannot host it. SiMRA kernels are found by group search, not
    /// built around a victim: always `None` (see [`Self::target`]).
    pub fn kernel_for(self, chip: &Chip, victim: RowAddr) -> Option<Kernel> {
        match self {
            PatternClass::RhDs => rowhammer_ds_for(chip, victim),
            PatternClass::RhSs => rowhammer_ss_for(chip, victim),
            PatternClass::ComraDs => comra_ds_for(chip, victim, false),
            PatternClass::ComraSs => comra_ss_for(chip, victim, DEFAULT_FAR_OFFSET, false),
            PatternClass::Simra(_) => None,
        }
    }

    /// The deterministic `(kernel, victim)` pair this class measures on a
    /// chip: the first sampled victim [`Self::kernel_for`] admits (the
    /// chip's first record in a driver sweep), or for SiMRA the first
    /// sandwiched victim of the first group-search kernel in the second
    /// tested subarray.
    pub fn target(self, chip: &mut ChipUnderTest) -> Result<(Kernel, RowAddr), String> {
        if let PatternClass::Simra(n) = self {
            if !chip.profile.supports_simra() {
                return Err(format!(
                    "family {:?} does not support multi-row activation",
                    chip.profile.key()
                ));
            }
            let sas = chip.tested_subarrays();
            let sa = sas.get(1).copied().or_else(|| sas.first().copied());
            let sa = sa.ok_or("chip has no tested subarrays")?;
            let kernels = simra_ds_kernels(chip.exec().chip(), sa, n);
            let kernel = *kernels
                .first()
                .ok_or("no SiMRA group with sandwiched victims in the tested subarray")?;
            let (sandwiched, _) = simra_victims(chip.exec().chip(), &kernel);
            let victim = *sandwiched.first().ok_or("SiMRA group lost its victims")?;
            return Ok((kernel, victim));
        }
        for victim in chip.victim_rows() {
            if let Some(kernel) = self.kernel_for(chip.exec().chip(), victim) {
                return Ok((kernel, victim));
            }
        }
        Err("no sampled victim admits this pattern class".to_string())
    }
}

fn t_ras() -> Picos {
    Picos::from_ns(calib::T_RAS_NS)
}

/// Double-sided RowHammer sandwiching the physical `victim`.
///
/// Returns `None` if the victim lacks two same-subarray neighbours.
pub fn rowhammer_ds_for(chip: &Chip, victim: RowAddr) -> Option<Kernel> {
    let geometry = chip.geometry();
    let below = victim.offset(-1)?;
    let above = victim.offset(1)?;
    if !geometry.same_subarray(below, victim) || !geometry.same_subarray(victim, above) {
        return None;
    }
    Some(Kernel::RowHammerDouble {
        a: chip.to_logical(below),
        b: chip.to_logical(above),
        t_aggon: t_ras(),
    })
}

/// Single-sided RowHammer with the aggressor physically below `victim`.
pub fn rowhammer_ss_for(chip: &Chip, victim: RowAddr) -> Option<Kernel> {
    let below = victim.offset(-1)?;
    if !chip.geometry().same_subarray(below, victim) {
        return None;
    }
    Some(Kernel::RowHammerSingle {
        a: chip.to_logical(below),
        t_aggon: t_ras(),
    })
}

/// Far double-sided RowHammer: the aggressor below `victim` alternating
/// with a row `far_offset` rows away in the same subarray (Fig. 7's
/// comparison pattern).
pub fn rowhammer_far_ds_for(chip: &Chip, victim: RowAddr, far_offset: u32) -> Option<Kernel> {
    let below = victim.offset(-1)?;
    let far = far_row(chip, below, far_offset)?;
    Some(Kernel::RowHammerDouble {
        a: chip.to_logical(below),
        b: chip.to_logical(far),
        t_aggon: t_ras(),
    })
}

/// Double-sided CoMRA: the copy pair sandwiches the physical `victim`
/// (Fig. 3a). `reversed` copies from above to below (Fig. 10).
pub fn comra_ds_for(chip: &Chip, victim: RowAddr, reversed: bool) -> Option<Kernel> {
    let geometry = chip.geometry();
    let below = victim.offset(-1)?;
    let above = victim.offset(1)?;
    if !geometry.same_subarray(below, victim) || !geometry.same_subarray(victim, above) {
        return None;
    }
    let (src, dst) = if reversed {
        (above, below)
    } else {
        (below, above)
    };
    Some(Kernel::Comra {
        src: chip.to_logical(src),
        dst: chip.to_logical(dst),
        pre_to_act: Picos::from_ns(calib::COMRA_PRE_ACT_NS),
        t_aggon: t_ras(),
    })
}

/// Single-sided CoMRA: the source is adjacent to `victim`, the destination
/// `far_offset` rows away in the same subarray (Fig. 3b).
pub fn comra_ss_for(
    chip: &Chip,
    victim: RowAddr,
    far_offset: u32,
    reversed: bool,
) -> Option<Kernel> {
    let near = victim.offset(-1)?;
    if !chip.geometry().same_subarray(near, victim) {
        return None;
    }
    let far = far_row(chip, near, far_offset)?;
    let (src, dst) = if reversed { (far, near) } else { (near, far) };
    Some(Kernel::Comra {
        src: chip.to_logical(src),
        dst: chip.to_logical(dst),
        pre_to_act: Picos::from_ns(calib::COMRA_PRE_ACT_NS),
        t_aggon: t_ras(),
    })
}

/// SiMRA kernel activating the group containing logical `base` with
/// differing-bit `mask`, at the paper's nominal 3 ns delays.
pub fn simra_for_mask(base: RowAddr, mask: u32) -> Kernel {
    let (r1, r2) = simra_decode::pair_for_mask(base, mask);
    let d = Picos::from_ns(calib::SIMRA_DELAY_NS);
    Kernel::Simra {
        r1,
        r2,
        act_to_pre: d,
        pre_to_act: d,
        t_aggon: t_ras(),
    }
}

/// The physical rows a SiMRA kernel activates on `chip`, sorted, or `None`
/// if the address pair does not trigger group activation.
pub fn simra_members(chip: &Chip, kernel: &Kernel) -> Option<Vec<RowAddr>> {
    let Kernel::Simra { r1, r2, .. } = *kernel else {
        return None;
    };
    let group = simra_decode::simra_group(chip.geometry(), r1, r2)?;
    let mut phys: Vec<RowAddr> = group.iter().map(|&r| chip.to_physical(r)).collect();
    phys.sort_unstable();
    Some(phys)
}

/// Victims of a SiMRA kernel, split into `(sandwiched, edge)` physical
/// rows: sandwiched victims have activated rows on both sides
/// (double-sided SiMRA, Fig. 12a); edge victims neighbour exactly one
/// member (single-sided, Fig. 12b).
pub fn simra_victims(chip: &Chip, kernel: &Kernel) -> (Vec<RowAddr>, Vec<RowAddr>) {
    let Some(members) = simra_members(chip, kernel) else {
        return (Vec::new(), Vec::new());
    };
    let geometry = chip.geometry();
    let mut sandwiched = Vec::new();
    let mut edge = Vec::new();
    let lo = members[0].0.saturating_sub(1);
    let hi = members[members.len() - 1].0 + 1;
    for v in lo..=hi.min(geometry.rows_per_bank() - 1) {
        let v = RowAddr(v);
        if members.binary_search(&v).is_ok() || !geometry.same_subarray(members[0], v) {
            continue;
        }
        let below = v
            .offset(-1)
            .is_some_and(|r| members.binary_search(&r).is_ok());
        let above = v
            .offset(1)
            .is_some_and(|r| members.binary_search(&r).is_ok());
        if below && above {
            sandwiched.push(v);
        } else if below || above {
            edge.push(v);
        }
    }
    (sandwiched, edge)
}

/// All SiMRA-N kernels in subarray `sa` whose activated group sandwiches at
/// least one victim (double-sided SiMRA candidates).
///
/// This is the reproduction of the paper's group search (§5.2): it tries
/// every differing-bit mask of the right population count over every
/// aligned 32-row block, keeping the kernels whose *physical* member layout
/// (after the row decoder's scramble) leaves sandwiched rows.
///
/// # Panics
///
/// Panics if `n` is not one of {2, 4, 8, 16, 32}.
pub fn simra_ds_kernels(chip: &Chip, sa: SubarrayId, n: u8) -> Vec<Kernel> {
    search_simra_kernels(chip, sa, n, |sandwiched, _| !sandwiched.is_empty())
}

/// All SiMRA-N kernels in subarray `sa` with edge victims but *no*
/// sandwiched victims (pure single-sided SiMRA candidates, Fig. 12b).
///
/// # Panics
///
/// Panics if `n` is not one of {2, 4, 8, 16, 32}.
pub fn simra_ss_kernels(chip: &Chip, sa: SubarrayId, n: u8) -> Vec<Kernel> {
    search_simra_kernels(chip, sa, n, |sandwiched, edge| {
        sandwiched.is_empty() && !edge.is_empty()
    })
}

fn search_simra_kernels(
    chip: &Chip,
    sa: SubarrayId,
    n: u8,
    accept: impl Fn(&[RowAddr], &[RowAddr]) -> bool,
) -> Vec<Kernel> {
    assert!(
        matches!(n, 2 | 4 | 8 | 16 | 32),
        "SiMRA group size must be one of 2, 4, 8, 16, 32"
    );
    let bits = n.trailing_zeros();
    let geometry = chip.geometry();
    let base_start = geometry.subarray_base(sa).0;
    let mut kernels = Vec::new();
    for block in (base_start..base_start + geometry.rows_per_subarray).step_by(32) {
        for mask in 1u32..32 {
            if mask.count_ones() != bits {
                continue;
            }
            let kernel = simra_for_mask(RowAddr(block), mask);
            let (sandwiched, edge) = simra_victims(chip, &kernel);
            if accept(&sandwiched, &edge) {
                kernels.push(kernel);
            }
        }
    }
    kernels
}

fn far_row(chip: &Chip, near: RowAddr, far_offset: u32) -> Option<RowAddr> {
    let geometry = chip.geometry();
    let up = near.offset(i64::from(far_offset));
    if let Some(f) = up {
        if geometry.same_subarray(near, f) {
            return Some(f);
        }
    }
    let down = near.offset(-i64::from(far_offset))?;
    geometry.same_subarray(near, down).then_some(down)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pud_dram::{profiles::TESTED_MODULES, ChipGeometry};

    fn chip() -> Chip {
        let p = &TESTED_MODULES[1];
        Chip::new(
            ChipGeometry::scaled_for_tests(),
            p.mapping(),
            p.cell_layout(),
        )
    }

    #[test]
    fn ds_kernel_sandwiches_victim() {
        let c = chip();
        let k = rowhammer_ds_for(&c, RowAddr(10)).unwrap();
        let Kernel::RowHammerDouble { a, b, .. } = k else {
            panic!("wrong kernel")
        };
        assert_eq!(c.to_physical(a), RowAddr(9));
        assert_eq!(c.to_physical(b), RowAddr(11));
    }

    #[test]
    fn boundary_victims_are_rejected() {
        let c = chip();
        assert!(rowhammer_ds_for(&c, RowAddr(0)).is_none());
        let last = RowAddr(c.geometry().rows_per_bank() - 1);
        assert!(rowhammer_ds_for(&c, last).is_none());
        // First row of a subarray has its below-neighbour across the
        // boundary.
        let sa_start = RowAddr(c.geometry().rows_per_subarray);
        assert!(rowhammer_ds_for(&c, sa_start).is_none());
    }

    #[test]
    fn comra_reversed_swaps_src_dst() {
        let c = chip();
        let fwd = comra_ds_for(&c, RowAddr(10), false).unwrap();
        let rev = comra_ds_for(&c, RowAddr(10), true).unwrap();
        let (
            Kernel::Comra {
                src: s1, dst: d1, ..
            },
            Kernel::Comra {
                src: s2, dst: d2, ..
            },
        ) = (fwd, rev)
        else {
            panic!("wrong kernels")
        };
        assert_eq!(s1, d2);
        assert_eq!(d1, s2);
    }

    #[test]
    fn far_kernels_stay_in_subarray() {
        let c = chip();
        // A victim near the end of a subarray forces the far row downwards.
        let victim = RowAddr(c.geometry().rows_per_subarray - 10);
        let k = rowhammer_far_ds_for(&c, victim, DEFAULT_FAR_OFFSET).unwrap();
        let Kernel::RowHammerDouble { b, .. } = k else {
            panic!("wrong kernel")
        };
        assert!(c.geometry().same_subarray(c.to_physical(b), victim));
    }

    #[test]
    fn simra_search_finds_sandwiching_groups_up_to_16() {
        let c = chip();
        for n in [2u8, 4, 8, 16] {
            let kernels = simra_ds_kernels(&c, SubarrayId(1), n);
            assert!(!kernels.is_empty(), "no sandwiching SiMRA-{n} group");
            let k = &kernels[0];
            let members = simra_members(&c, k).unwrap();
            assert_eq!(members.len(), n as usize);
            let (sandwiched, _) = simra_victims(&c, k);
            assert!(!sandwiched.is_empty());
            for v in &sandwiched {
                assert!(members.contains(&RowAddr(v.0 - 1)));
                assert!(members.contains(&RowAddr(v.0 + 1)));
            }
        }
    }

    #[test]
    fn no_sandwiching_32_row_group_exists() {
        // Footnote 3 of the paper: even activating 32 rows, no group
        // sandwiches a victim.
        let c = chip();
        assert!(simra_ds_kernels(&c, SubarrayId(1), 32).is_empty());
        let ss = simra_ss_kernels(&c, SubarrayId(1), 32);
        assert!(!ss.is_empty(), "contiguous 32-row groups exist");
    }

    #[test]
    fn ss_kernels_have_only_edge_victims() {
        let c = chip();
        for n in [2u8, 4, 8, 16, 32] {
            let kernels = simra_ss_kernels(&c, SubarrayId(0), n);
            assert!(!kernels.is_empty(), "no single-sided SiMRA-{n} group");
            let (sandwiched, edge) = simra_victims(&c, &kernels[0]);
            assert!(sandwiched.is_empty());
            assert!(!edge.is_empty());
        }
    }

    #[test]
    fn with_t_aggon_overrides() {
        let c = chip();
        let k = rowhammer_ds_for(&c, RowAddr(10))
            .unwrap()
            .with_t_aggon(Picos::from_us(70.2));
        let Kernel::RowHammerDouble { t_aggon, .. } = k else {
            panic!("wrong kernel")
        };
        assert_eq!(t_aggon, Picos::from_us(70.2));
    }

    #[test]
    fn program_counts_match() {
        let c = chip();
        let k = comra_ds_for(&c, RowAddr(10), false).unwrap();
        assert_eq!(k.program(BankId(0), 100).act_count(), 200);
        assert_eq!(k.aggressors().len(), 2);
    }
}
