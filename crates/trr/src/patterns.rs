//! The §7 TRR-evasion access patterns.
//!
//! The paper uses the U-TRR custom ("N-sided") pattern: hammer N aggressor
//! rows 156 times per refresh interval (the most ACTs a bank accepts per
//! tREFI, footnote 5), then hammer a dummy row 468 times (three refresh
//! intervals' worth) so the sampling TRR spends its victim refreshes on the
//! dummy row's neighbours.

use pud_bender::TestProgram;
use pud_disturb::calib::{ACTS_PER_TREFI, SIMRA_DELAY_NS, T_RAS_NS, T_RP_NS};
use pud_dram::{BankId, Picos, RowAddr};

fn t_ras() -> Picos {
    Picos::from_ns(T_RAS_NS)
}

fn t_rp() -> Picos {
    Picos::from_ns(T_RP_NS)
}

/// Delay after a REF command (modelling tRFC).
fn t_rfc() -> Picos {
    Picos::from_ns(350.0)
}

/// Appends three dummy-hammer refresh intervals (468 dummy ACTs + REFs).
fn append_dummy_windows(p: &mut TestProgram, bank: BankId, dummy: RowAddr) {
    for _ in 0..3 {
        p.repeat(ACTS_PER_TREFI, |body| {
            body.act(bank, dummy, t_ras()).pre(bank, t_rp());
        });
        p.refresh(t_rfc());
    }
}

/// Appends `total` units of work issued `per_window` units per refresh
/// window: one counted loop over the full windows, then the remainder
/// window. `window(p, burst)` appends one window of `burst` units.
///
/// A program is then about ten steps whatever `total` is; the executor
/// runs the outer loop's iterations one by one (its body holds REFs, so it
/// is never bulk-replayed), exactly as it would the unrolled windows.
fn windowed(
    total: u64,
    per_window: u64,
    mut window: impl FnMut(&mut TestProgram, u64),
) -> TestProgram {
    let mut p = TestProgram::new();
    let (full, rest) = (total / per_window, total % per_window);
    if full > 0 {
        p.repeat(full, |w| window(w, per_window));
    }
    if rest > 0 {
        window(&mut p, rest);
    }
    p
}

/// N-sided RowHammer TRR-evasion pattern: hammers each row of `aggressors`
/// `hammers_per_aggressor` times in 156-ACT refresh intervals interleaved
/// with dummy-row intervals.
///
/// # Panics
///
/// Panics if `aggressors` is empty.
pub fn rowhammer_evasion(
    bank: BankId,
    aggressors: &[RowAddr],
    dummy: RowAddr,
    hammers_per_aggressor: u64,
) -> TestProgram {
    assert!(!aggressors.is_empty(), "need at least one aggressor");
    let per_window = (ACTS_PER_TREFI / aggressors.len() as u64).max(1);
    windowed(hammers_per_aggressor, per_window, |p, burst| {
        p.repeat(burst, |body| {
            for &a in aggressors {
                body.act(bank, a, t_ras()).pre(bank, t_rp());
            }
        });
        p.refresh(t_rfc());
        append_dummy_windows(p, bank, dummy);
    })
}

/// CoMRA TRR-evasion pattern: `total_pairs` in-DRAM copy cycles of
/// `src`→`dst`, 78 pairs (156 ACTs) per refresh interval, interleaved with
/// dummy intervals.
pub fn comra_evasion(
    bank: BankId,
    src: RowAddr,
    dst: RowAddr,
    dummy: RowAddr,
    total_pairs: u64,
) -> TestProgram {
    let pre_act = Picos::from_ns(pud_disturb::calib::COMRA_PRE_ACT_NS);
    windowed(total_pairs, ACTS_PER_TREFI / 2, |p, burst| {
        p.repeat(burst, |body| {
            body.act(bank, src, t_ras())
                .pre(bank, pre_act)
                .act(bank, dst, t_ras())
                .pre(bank, t_rp());
        });
        p.refresh(t_rfc());
        append_dummy_windows(p, bank, dummy);
    })
}

/// SiMRA TRR-evasion pattern: `total_ops` ACT‑PRE‑ACT group activations of
/// the group addressed by `(r1, r2)`, 78 ops per refresh interval.
///
/// No dummy row is needed: the TRR mechanism only sees two addresses per
/// operation and the SiMRA HC_first (as low as 26) is reached well within
/// one refresh interval (Observation 26).
pub fn simra_evasion(bank: BankId, r1: RowAddr, r2: RowAddr, total_ops: u64) -> TestProgram {
    let d = Picos::from_ns(SIMRA_DELAY_NS);
    windowed(total_ops, ACTS_PER_TREFI / 2, |p, burst| {
        p.repeat(burst, |body| {
            body.act(bank, r1, d)
                .pre(bank, d)
                .act(bank, r2, t_ras())
                .pre(bank, t_rp());
        });
        p.refresh(t_rfc());
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rowhammer_evasion_hammers_the_requested_count() {
        let aggs = [RowAddr(10), RowAddr(14)];
        let p = rowhammer_evasion(BankId(0), &aggs, RowAddr(200), 500);
        // Each aggressor is activated 500 times; dummy windows add 468 ACTs
        // per aggressor window batch.
        let agg_acts = 500 * aggs.len() as u64;
        let windows = 500u64.div_ceil(ACTS_PER_TREFI / 2);
        let dummy_acts = windows * 3 * ACTS_PER_TREFI;
        assert_eq!(p.act_count(), agg_acts + dummy_acts);
    }

    #[test]
    fn comra_evasion_counts_pairs() {
        let p = comra_evasion(BankId(0), RowAddr(10), RowAddr(12), RowAddr(200), 200);
        let windows = 200u64.div_ceil(ACTS_PER_TREFI / 2);
        assert_eq!(p.act_count(), 400 + windows * 3 * ACTS_PER_TREFI);
    }

    #[test]
    fn programs_are_one_window_loop_plus_the_remainder() {
        // 500 hammers at 78 per window: 6 full windows and one of 32.
        let p = rowhammer_evasion(BankId(0), &[RowAddr(10), RowAddr(14)], RowAddr(200), 500);
        assert_eq!(p.steps().len(), 1 + 8);
        assert!(matches!(
            p.steps()[0],
            pud_bender::Step::Loop { count: 6, .. }
        ));
        // An exact multiple has no remainder window.
        let p = simra_evasion(BankId(0), RowAddr(8), RowAddr(10), 156);
        assert_eq!(p.steps().len(), 1);
        assert_eq!(p.act_count(), 312);
        assert!(simra_evasion(BankId(0), RowAddr(8), RowAddr(10), 0)
            .steps()
            .is_empty());
    }

    #[test]
    fn simra_evasion_has_no_dummy_windows() {
        let p = simra_evasion(BankId(0), RowAddr(8), RowAddr(10), 100);
        assert_eq!(p.act_count(), 200);
    }

    #[test]
    #[should_panic(expected = "at least one aggressor")]
    fn empty_aggressors_panics() {
        let _ = rowhammer_evasion(BankId(0), &[], RowAddr(0), 10);
    }
}
