//! Worst-case data pattern (WCDP) search (§4.2).
//!
//! For each DRAM row the paper defines the WCDP as the data pattern that
//! causes the lowest HC_first, testing `0x00`, `0xFF`, `0xAA`, `0x55` with
//! victims holding the negated aggressor pattern.

use pud_bender::Executor;
use pud_dram::{BankId, DataPattern, RowAddr};

use crate::hcfirst::{measure_hc_first_warm, HcSearch, WarmStart};
use crate::patterns::Kernel;

/// Result of a WCDP search on one victim row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WcdpResult {
    /// The worst-case aggressor pattern.
    pub pattern: DataPattern,
    /// HC_first at the worst-case pattern (`None` if no tested pattern
    /// flipped within the search cap).
    pub hc: Option<u64>,
}

/// Finds the worst-case aggressor data pattern for `victim` under `kernel`
/// by measuring HC_first for all four tested patterns.
///
/// The four searches target one victim, so each seeds the next through
/// `warm` (pass a fresh [`WarmStart`] for a cold first search): patterns
/// whose HC_first lands inside the previous converged bracket skip the
/// exponential probe (see `hcfirst.warm.*` metrics for the realized hit
/// rate).
pub fn find_wcdp(
    exec: &mut Executor,
    bank: BankId,
    kernel: &Kernel,
    victim: RowAddr,
    search: &HcSearch,
    warm: &mut WarmStart,
) -> WcdpResult {
    let mut best = WcdpResult {
        pattern: DataPattern::CHECKER_55,
        hc: None,
    };
    for dp in DataPattern::TESTED {
        // Poll between per-pattern searches so a cancelled WCDP sweep
        // unwinds without starting the next full HC_first search.
        crate::fleet::supervisor::poll_cancel();
        let hc = measure_hc_first_warm(exec, bank, kernel, victim, dp, dp.negated(), search, warm);
        match (best.hc, hc) {
            (None, Some(_)) => best = WcdpResult { pattern: dp, hc },
            (Some(b), Some(h)) if h < b => best = WcdpResult { pattern: dp, hc },
            _ => {}
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns;
    use pud_dram::{profiles::TESTED_MODULES, ChipGeometry};

    #[test]
    fn wcdp_is_usually_a_checkerboard() {
        // Observation 3: the checkerboard pattern is, in general, the most
        // effective for CoMRA/RowHammer-class disturbance.
        let mut exec = Executor::new(&TESTED_MODULES[1], ChipGeometry::scaled_for_tests(), 0, 42);
        let search = HcSearch::default();
        let mut checker_wins = 0;
        let mut total = 0;
        for row in (10..70u32).step_by(4) {
            let victim = RowAddr(row);
            let Some(kernel) = patterns::comra_ds_for(exec.chip(), victim, false) else {
                continue;
            };
            let w = find_wcdp(
                &mut exec,
                BankId(0),
                &kernel,
                victim,
                &search,
                &mut WarmStart::new(),
            );
            assert!(w.hc.is_some());
            total += 1;
            if w.pattern.is_checkerboard() {
                checker_wins += 1;
            }
        }
        assert!(total >= 10);
        assert!(
            checker_wins * 3 >= total * 2,
            "checkerboard should win most rows: {checker_wins}/{total}"
        );
    }

    #[test]
    fn simra_wcdp_is_a_solid_zero_aggressor() {
        // Observation 13/14: SiMRA flips 1→0, so the lowest HC_first comes
        // from victims holding 0xFF, i.e. a 0x00 aggressor pattern.
        let mut exec = Executor::new(&TESTED_MODULES[1], ChipGeometry::scaled_for_tests(), 0, 42);
        let search = HcSearch::default();
        let kernels = patterns::simra_ds_kernels(exec.chip(), pud_dram::SubarrayId(1), 4);
        let kernel = kernels[0];
        let (sandwiched, _) = patterns::simra_victims(exec.chip(), &kernel);
        let victim = sandwiched[0];
        let w = find_wcdp(
            &mut exec,
            BankId(0),
            &kernel,
            victim,
            &search,
            &mut WarmStart::new(),
        );
        assert!(w.hc.is_some());
        assert_eq!(
            w.pattern,
            DataPattern::ZEROS,
            "aggressor 0x00 ⇒ victim 0xFF"
        );
    }
}
