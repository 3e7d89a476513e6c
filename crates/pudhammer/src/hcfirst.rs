//! The HC_first measurement algorithm (§4.2).
//!
//! For every tested victim row the paper finds the minimum hammer count
//! required to induce the first bitflip with a bisection search, terminated
//! when consecutive estimates agree within 1 %, repeated five times, taking
//! the minimum. The reproduction implements the same search; because the
//! simulated chip is deterministic for a fixed fleet seed, repeats return
//! identical values and default to one.
//!
//! Searches over the *same victim* (repeats, the four WCDP data patterns,
//! kernel variants) tend to converge to nearby counts, so a [`WarmStart`]
//! can seed the next search's bracket from the previous converged one: two
//! validation trials replace the whole exponential probe on a hit, and a
//! miss falls back to the full cold search. Hits, misses, and the saved
//! probe iterations are recorded under `hcfirst.warm.*`.
//!
//! A search's trials differ only in their loop count after a fixed
//! prelude (no stages for a plain search; the §6 pre-hammer stages for
//! [`measure_hc_first_after`]), and the executor replays any count above
//! 3 as two explicit iterations, one bulk step linear in the count, and a
//! count-independent tail. So a [`Trial`] simulates the first such trial
//! of a search once, recording the victim's closed form, and answers
//! every later check — bisection steps, warm-start validations and all
//! repeats of a search — from it with the disturbance engine's own float
//! operations. Each check still builds its program and passes the
//! executor's admission (cancellation, validation, fault clock) for every
//! prelude stage and the loop, so the bisection sees the same predicate
//! and the fault schedule the same command stream as when every trial was
//! replayed: results are identical, and repeats are nearly free.
//! Simulated trials are counted under `hcfirst.replays`, checks under
//! `hcfirst.iterations`.

use pud_bender::{ExecError, Executor, LoopForecast, RunReport, TestProgram};
use pud_dram::{BankId, DataPattern, RowAddr};

use crate::patterns::Kernel;

/// Parameters of the HC_first bisection search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HcSearch {
    /// Upper bound on the hammer count probed; rows without a flip by this
    /// count report `None` (outside the refresh window on real hardware).
    pub max_hammers: u64,
    /// Relative convergence tolerance (the paper's 1 %).
    pub tolerance: f64,
    /// Number of repeated searches (minimum is reported).
    pub repeats: u32,
}

impl Default for HcSearch {
    fn default() -> HcSearch {
        // The cap models the paper's refresh-window execution bound (§3.1):
        // ~2M hammer cycles at ~100 ns per double-sided cycle span several
        // refresh windows' worth of activations; rows needing more report
        // no flip, as on the real infrastructure.
        HcSearch {
            max_hammers: 2_000_000,
            tolerance: 0.01,
            repeats: 1,
        }
    }
}

/// Carry-over state seeding consecutive HC_first searches on one victim.
///
/// Holds the last converged bisection bracket. The next search through
/// [`measure_hc_first_warm`] validates it with two trials (`hi` must flip,
/// `lo` must not) and, on a hit, bisects within it directly — skipping the
/// exponential probe entirely. A miss (different victim, or the new
/// pattern/kernel moved HC_first outside the bracket) falls back to the
/// full cold search, so results never depend on what was cached.
#[derive(Debug, Default, Clone, Copy)]
pub struct WarmStart {
    bracket: Option<(RowAddr, u64, u64)>,
}

impl WarmStart {
    /// A cache with no seeded bracket (the first search is always cold).
    pub fn new() -> WarmStart {
        WarmStart::default()
    }

    /// Forgets the cached bracket; the next search runs cold.
    pub fn clear(&mut self) {
        self.bracket = None;
    }

    fn bracket_for(&self, victim: RowAddr) -> Option<(u64, u64)> {
        self.bracket
            .and_then(|(v, lo, hi)| (v == victim).then_some((lo, hi)))
    }
}

/// Measures the HC_first of `victim` (a physical row) under `kernel`.
///
/// Aggressor rows are initialized with `aggressor_dp`, the victim (and its
/// distance-≤2 neighbourhood) with `victim_dp` — the paper fills victims
/// with the negated aggressor pattern. Returns `None` if no bitflip occurs
/// within `search.max_hammers` cycles. Repeats after the first warm-start
/// from the previous repeat's bracket.
pub fn measure_hc_first(
    exec: &mut Executor,
    bank: BankId,
    kernel: &Kernel,
    victim: RowAddr,
    aggressor_dp: DataPattern,
    victim_dp: DataPattern,
    search: &HcSearch,
) -> Option<u64> {
    let trial = Trial::new(exec, bank, &[], kernel, victim, aggressor_dp, victim_dp);
    run_search(trial, search, &mut WarmStart::new())
}

/// [`measure_hc_first`] with a caller-held [`WarmStart`], so consecutive
/// searches on the same victim (different data patterns or kernels) seed
/// each other's brackets.
#[allow(clippy::too_many_arguments)]
pub fn measure_hc_first_warm(
    exec: &mut Executor,
    bank: BankId,
    kernel: &Kernel,
    victim: RowAddr,
    aggressor_dp: DataPattern,
    victim_dp: DataPattern,
    search: &HcSearch,
    warm: &mut WarmStart,
) -> Option<u64> {
    let trial = Trial::new(exec, bank, &[], kernel, victim, aggressor_dp, victim_dp);
    run_search(trial, search, warm)
}

/// The HC_first of a staged pattern (§6, Fig. 20): `kernel`'s hammer
/// count to the first flip after the fixed `prelude` of `(stage, count)`
/// (see [`Trial`]); `Some(1)` if the prelude alone flips the victim. One
/// cold search whatever `search.repeats` says: repeats would return the
/// same count and only move the fault clock.
#[allow(clippy::too_many_arguments)]
pub fn measure_hc_first_after(
    exec: &mut Executor,
    bank: BankId,
    prelude: &[(Kernel, u64)],
    kernel: &Kernel,
    victim: RowAddr,
    aggressor_dp: DataPattern,
    victim_dp: DataPattern,
    search: &HcSearch,
) -> Option<u64> {
    let trial = Trial::new(exec, bank, prelude, kernel, victim, aggressor_dp, victim_dp);
    let once = HcSearch {
        repeats: 1,
        ..*search
    };
    run_search(trial, &once, &mut WarmStart::new())
}

/// The `search.repeats` searches of one [`Trial`]; the lowest HC_first.
fn run_search(mut trial: Trial<'_>, search: &HcSearch, warm: &mut WarmStart) -> Option<u64> {
    let _span = pud_observe::span("hcfirst.search_ns");
    pud_observe::counter("hcfirst.searches").incr();
    pud_observe::histogram("hcfirst.repeats").record(u64::from(search.repeats.max(1)));
    let mut best: Option<u64> = None;
    for _ in 0..search.repeats.max(1) {
        let hc = search_once(&mut trial, search, warm);
        best = match (best, hc) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }
    best
}

/// Trials the cold exponential probe spends reaching an upper bound of
/// `target` (the cost a warm-start hit avoids, minus its two validation
/// trials).
fn probe_steps(target: u64, max_hammers: u64) -> u64 {
    let mut h = 1u64;
    let mut steps = 1u64;
    while h < target && h < max_hammers {
        h = (h * 4).min(max_hammers);
        steps += 1;
    }
    steps
}

fn bisect(
    check: &mut impl FnMut(u64) -> bool,
    mut lo: u64,
    mut hi: u64,
    tolerance: f64,
) -> (u64, u64) {
    while (hi - lo) as f64 > tolerance * hi as f64 && hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if check(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    (lo, hi)
}

/// The trial of one HC_first search: does the physical row `victim`
/// flip after `count` hammer cycles of `kernel`, started from a freshly
/// [`prepare`]d device that then ran the trial's fixed prelude?
///
/// The first check above 3 hammers is simulated and records the closed
/// form of the kernel's loop ([`Executor::try_run_forecast`]); every later
/// check admits the prelude and the loop like a simulated one and is
/// answered from that closed form ([`Executor::try_forecast`]). Checks of
/// at most 3 hammers, and every check when no closed form was recorded (a
/// TRR observer or refresh on the executor, a program that is not one
/// batchable loop, a victim that flips in the prelude or within the two
/// explicit iterations), are simulated.
pub struct Trial<'a> {
    exec: &'a mut Executor,
    bank: BankId,
    /// The prelude stages with a nonzero count, with their programs.
    prelude: Vec<(&'a Kernel, TestProgram)>,
    kernel: &'a Kernel,
    victim: RowAddr,
    aggressor_dp: DataPattern,
    victim_dp: DataPattern,
    forecast: Option<LoopForecast>,
    recorded: bool,
}

impl<'a> Trial<'a> {
    /// The trial of `kernel` on `victim` with aggressors initialized to
    /// `aggressor_dp` and the victim neighbourhood to `victim_dp`, after
    /// the `(stage, count)` prelude (see [`measure_hc_first_after`]).
    pub fn new(
        exec: &'a mut Executor,
        bank: BankId,
        prelude: &'a [(Kernel, u64)],
        kernel: &'a Kernel,
        victim: RowAddr,
        aggressor_dp: DataPattern,
        victim_dp: DataPattern,
    ) -> Trial<'a> {
        let prelude = prelude
            .iter()
            .filter(|&&(_, count)| count > 0)
            .map(|(stage, count)| (stage, stage.program(bank, *count)))
            .collect();
        Trial {
            exec,
            bank,
            prelude,
            kernel,
            victim,
            aggressor_dp,
            victim_dp,
            forecast: None,
            recorded: false,
        }
    }

    /// Whether the victim flips within the prelude and `count` hammer
    /// cycles. Errors are the executor's: an invalid program or an
    /// injected fault, raised at the same check as when every trial is
    /// simulated.
    pub fn try_check(&mut self, count: u64) -> Result<bool, ExecError> {
        let program = self.kernel.program(self.bank, count);
        if let Some(forecast) = &self.forecast {
            let prelude = self.prelude.iter().map(|(_, stage)| stage);
            if let Some(flips) = self.exec.try_forecast(prelude, &program, forecast)? {
                return Ok(flips);
            }
        }
        pud_observe::counter("hcfirst.replays").incr();
        prepare(
            self.exec,
            self.bank,
            self.kernel,
            self.victim,
            self.aggressor_dp,
            self.victim_dp,
        );
        let flipped = |report: RunReport| report.flips.iter().any(|f| f.phys_row == self.victim);
        for (stage, stage_program) in &self.prelude {
            for a in stage.aggressors() {
                self.exec.write_row(self.bank, a, self.aggressor_dp);
            }
            if flipped(self.exec.try_run(stage_program)?) {
                return Ok(true);
            }
        }
        let report = if count > 3 && !self.recorded {
            let (report, forecast) =
                self.exec
                    .try_run_forecast(&program, self.bank, self.victim)?;
            self.forecast = forecast;
            self.recorded = true;
            report
        } else {
            self.exec.try_run(&program)?
        };
        Ok(flipped(report))
    }
}

fn search_once(trial: &mut Trial<'_>, search: &HcSearch, warm: &mut WarmStart) -> Option<u64> {
    let victim = trial.victim;
    // Iterations-to-convergence (probe + bisection trials) and the final
    // bracket width are the search's cost and precision; both go to the
    // global histograms the `--metrics` report surfaces.
    let mut iterations = 0u64;
    let (result, bracket) = 'search: {
        let mut check = |count: u64| -> bool {
            // One trial is the cancellation grace unit: a cancelled search
            // unwinds before the next (expensive) hammer sequence.
            crate::fleet::supervisor::poll_cancel();
            iterations += 1;
            // Raised as a payload, as `Executor::run` does, for the fleet
            // sweep's retry policy to classify.
            trial
                .try_check(count)
                .unwrap_or_else(|e| std::panic::panic_any(e))
        };
        // Warm path: validate the cached bracket with two trials, bisect
        // within it on a hit.
        if let Some((wlo, whi)) = warm.bracket_for(victim) {
            if check(whi) && !check(wlo) {
                pud_observe::counter("hcfirst.warm.hits").incr();
                pud_observe::profile::work_warm_hits(1);
                pud_observe::histogram("hcfirst.warm.saved_iterations")
                    .record(probe_steps(whi, search.max_hammers).saturating_sub(2));
                let (lo, hi) = bisect(&mut check, wlo, whi, search.tolerance);
                break 'search (Some(hi), Some((lo, hi)));
            }
            pud_observe::counter("hcfirst.warm.misses").incr();
        }
        // Cold path: exponential probe for an upper bound.
        let mut hi = 1u64;
        while !check(hi) {
            if hi >= search.max_hammers {
                break 'search (None, None);
            }
            hi = (hi * 4).min(search.max_hammers);
        }
        if hi == 1 {
            break 'search (Some(1), Some((1, 1)));
        }
        // Bisect within (hi/4, hi] until within tolerance.
        let (lo, hi) = bisect(&mut check, hi / 4, hi, search.tolerance);
        (Some(hi), Some((lo, hi)))
    };
    pud_observe::histogram("hcfirst.iterations").record(iterations);
    if let Some((lo, hi)) = bracket {
        pud_observe::histogram("hcfirst.bracket_width").record(hi - lo);
        if hi > 1 {
            warm.bracket = Some((victim, lo, hi));
        }
    }
    result
}

/// Initializes a measurement trial: quiesces the device, fills aggressors
/// with `aggressor_dp`, and the victim plus its ±2 physical neighbourhood
/// (excluding aggressors) with `victim_dp`.
pub fn prepare(
    exec: &mut Executor,
    bank: BankId,
    kernel: &Kernel,
    victim: RowAddr,
    aggressor_dp: DataPattern,
    victim_dp: DataPattern,
) {
    exec.quiesce();
    // The rows the kernel actually opens: a SiMRA kernel activates its
    // full decoded member group, not just the two encoded addresses.
    // Every opened row charge-shares its contents, so the whole group
    // must start from the aggressor pattern — stale data left in the
    // undecoded members by an earlier trial would otherwise couple
    // measurements to device history.
    let aggressor_phys: Vec<RowAddr> = crate::patterns::simra_members(exec.chip(), kernel)
        .unwrap_or_else(|| {
            kernel
                .aggressors()
                .iter()
                .map(|&a| exec.chip().to_physical(a))
                .collect()
        });
    let rows_per_bank = exec.chip().geometry().rows_per_bank();
    for delta in -2i64..=2 {
        let Some(row) = victim.offset(delta) else {
            continue;
        };
        if row.0 >= rows_per_bank || aggressor_phys.contains(&row) {
            continue;
        }
        let logical = exec.chip().to_logical(row);
        exec.write_row(bank, logical, victim_dp);
    }
    for &a in &aggressor_phys {
        let logical = exec.chip().to_logical(a);
        exec.write_row(bank, logical, aggressor_dp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns;
    use pud_dram::{profiles::TESTED_MODULES, ChipGeometry};

    fn exec() -> Executor {
        Executor::new(&TESTED_MODULES[1], ChipGeometry::scaled_for_tests(), 0, 42)
    }

    #[test]
    fn hc_first_matches_engine_threshold_order() {
        let mut e = exec();
        let victim = RowAddr(10);
        let vuln = e.engine().model().row_vuln(BankId(0), victim);
        let kernel = patterns::rowhammer_ds_for(e.chip(), victim).unwrap();
        let hc = measure_hc_first(
            &mut e,
            BankId(0),
            &kernel,
            victim,
            DataPattern::CHECKER_55,
            DataPattern::CHECKER_AA,
            &HcSearch::default(),
        )
        .expect("double-sided RowHammer flips within the cap");
        // The measured count should be within a small factor of the sampled
        // weakest-cell threshold (eligibility and jitters shift it).
        let ratio = hc as f64 / vuln.t_rh;
        assert!((0.3..12.0).contains(&ratio), "hc={hc} t_rh={}", vuln.t_rh);
    }

    #[test]
    fn search_is_deterministic_and_repeatable() {
        let mut e = exec();
        let victim = RowAddr(20);
        let kernel = patterns::rowhammer_ds_for(e.chip(), victim).unwrap();
        let opts = HcSearch::default();
        let a = measure_hc_first(
            &mut e,
            BankId(0),
            &kernel,
            victim,
            DataPattern::CHECKER_55,
            DataPattern::CHECKER_AA,
            &opts,
        );
        let b = measure_hc_first(
            &mut e,
            BankId(0),
            &kernel,
            victim,
            DataPattern::CHECKER_55,
            DataPattern::CHECKER_AA,
            &opts,
        );
        assert_eq!(a, b);
        assert!(a.is_some());
    }

    #[test]
    fn comra_hc_is_below_rowhammer_hc() {
        // Observation 1, on a single victim row.
        let mut e = exec();
        let victim = RowAddr(33);
        let opts = HcSearch::default();
        let rh = patterns::rowhammer_ds_for(e.chip(), victim).unwrap();
        let comra = patterns::comra_ds_for(e.chip(), victim, false).unwrap();
        let hc_rh = measure_hc_first(
            &mut e,
            BankId(0),
            &rh,
            victim,
            DataPattern::CHECKER_55,
            DataPattern::CHECKER_AA,
            &opts,
        )
        .unwrap();
        let hc_comra = measure_hc_first(
            &mut e,
            BankId(0),
            &comra,
            victim,
            DataPattern::CHECKER_55,
            DataPattern::CHECKER_AA,
            &opts,
        )
        .unwrap();
        assert!(hc_comra < hc_rh, "comra {hc_comra} vs rh {hc_rh}");
    }

    #[test]
    fn warm_start_hits_and_matches_the_cold_result() {
        // A shard isolates the hcfirst.warm.* counters from concurrent
        // tests in this process.
        let guard = pud_observe::ShardGuard::install();
        let mut e = exec();
        let victim = RowAddr(20);
        let kernel = patterns::rowhammer_ds_for(e.chip(), victim).unwrap();
        let opts = HcSearch::default();
        let mut warm = WarmStart::new();
        let run = |e: &mut Executor, w: &mut WarmStart| {
            measure_hc_first_warm(
                e,
                BankId(0),
                &kernel,
                victim,
                DataPattern::CHECKER_55,
                DataPattern::CHECKER_AA,
                &opts,
                w,
            )
        };
        let cold = run(&mut e, &mut warm);
        assert!(cold.is_some());
        assert_eq!(guard.registry().counter("hcfirst.warm.hits").get(), 0);
        let warm_result = run(&mut e, &mut warm);
        assert_eq!(warm_result, cold, "a warm hit reproduces the cold value");
        assert_eq!(guard.registry().counter("hcfirst.warm.hits").get(), 1);
        assert_eq!(guard.registry().counter("hcfirst.warm.misses").get(), 0);
        assert!(
            guard
                .registry()
                .histogram("hcfirst.warm.saved_iterations")
                .mean()
                > 0.0
        );
        // A different victim cannot use the bracket and runs cold without
        // even counting a miss.
        warm.clear();
        let other = RowAddr(22);
        let k2 = patterns::rowhammer_ds_for(e.chip(), other).unwrap();
        let _ = measure_hc_first_warm(
            &mut e,
            BankId(0),
            &k2,
            other,
            DataPattern::CHECKER_55,
            DataPattern::CHECKER_AA,
            &opts,
            &mut warm,
        );
        assert_eq!(guard.registry().counter("hcfirst.warm.misses").get(), 0);
    }

    #[test]
    fn warm_miss_falls_back_to_the_cold_search() {
        let guard = pud_observe::ShardGuard::install();
        let mut e = exec();
        let victim = RowAddr(33);
        let opts = HcSearch::default();
        let rh = patterns::rowhammer_ds_for(e.chip(), victim).unwrap();
        let comra = patterns::comra_ds_for(e.chip(), victim, false).unwrap();
        // Cold references, each with a fresh cache.
        let rh_cold = measure_hc_first(
            &mut e,
            BankId(0),
            &rh,
            victim,
            DataPattern::CHECKER_55,
            DataPattern::CHECKER_AA,
            &opts,
        )
        .unwrap();
        let comra_cold = measure_hc_first(
            &mut e,
            BankId(0),
            &comra,
            victim,
            DataPattern::CHECKER_55,
            DataPattern::CHECKER_AA,
            &opts,
        )
        .unwrap();
        // Chain RH → CoMRA through one cache. CoMRA flips far below the RH
        // bracket, so the bracket cannot validate; the fallback must still
        // land exactly on the cold value.
        let mut warm = WarmStart::new();
        let chained = |e: &mut Executor, k: &Kernel, w: &mut WarmStart| {
            measure_hc_first_warm(
                e,
                BankId(0),
                k,
                victim,
                DataPattern::CHECKER_55,
                DataPattern::CHECKER_AA,
                &opts,
                w,
            )
            .unwrap()
        };
        assert_eq!(chained(&mut e, &rh, &mut warm), rh_cold);
        assert_eq!(chained(&mut e, &comra, &mut warm), comra_cold);
        assert_eq!(guard.registry().counter("hcfirst.warm.misses").get(), 1);
    }

    #[test]
    fn prelude_that_flips_the_victim_measures_one() {
        let mut e = exec();
        let victim = RowAddr(33);
        let opts = HcSearch::default();
        let (dp, neg) = (DataPattern::CHECKER_55, DataPattern::CHECKER_AA);
        let rh = patterns::rowhammer_ds_for(e.chip(), victim).unwrap();
        let comra = patterns::comra_ds_for(e.chip(), victim, false).unwrap();
        let hc_rh = measure_hc_first(&mut e, BankId(0), &rh, victim, dp, neg, &opts).unwrap();
        let hc_comra = measure_hc_first(&mut e, BankId(0), &comra, victim, dp, neg, &opts).unwrap();
        let mut after = |prelude: &[(Kernel, u64)]| {
            measure_hc_first_after(&mut e, BankId(0), prelude, &rh, victim, dp, neg, &opts)
        };
        assert_eq!(after(&[(rh, hc_rh)]), Some(1));
        assert_eq!(after(&[(comra, 0), (rh, hc_rh)]), Some(1));
        // Below their HC_first the stages only lower the RowHammer count.
        let staged = after(&[(comra, hc_comra / 2)]).unwrap();
        assert!(1 < staged && staged < hc_rh, "staged {staged} vs {hc_rh}");
        assert_eq!(
            after(&[(comra, 0)]),
            Some(hc_rh),
            "an empty stage is skipped"
        );
    }

    #[test]
    fn unflippable_setup_returns_none() {
        let mut e = exec();
        let victim = RowAddr(40);
        let kernel = patterns::rowhammer_ss_for(e.chip(), victim).unwrap();
        let opts = HcSearch {
            max_hammers: 64,
            ..HcSearch::default()
        };
        let hc = measure_hc_first(
            &mut e,
            BankId(0),
            &kernel,
            victim,
            DataPattern::CHECKER_55,
            DataPattern::CHECKER_AA,
            &opts,
        );
        assert_eq!(hc, None, "64 hammers cannot flip anything in this model");
    }

    #[test]
    fn hero_row_measures_at_the_table2_minimum() {
        let mut e = exec();
        let (bank, hero) = e.engine().model().hero_row().unwrap();
        let kernel = patterns::rowhammer_ds_for(e.chip(), hero).unwrap();
        let hc = measure_hc_first(
            &mut e,
            bank,
            &kernel,
            hero,
            DataPattern::CHECKER_55,
            DataPattern::CHECKER_AA,
            &HcSearch::default(),
        )
        .unwrap();
        let anchor = TESTED_MODULES[1].rowhammer.min;
        let ratio = hc as f64 / anchor;
        assert!(
            (0.5..2.5).contains(&ratio),
            "hero hc {hc} should track the anchor {anchor}"
        );
    }
}
