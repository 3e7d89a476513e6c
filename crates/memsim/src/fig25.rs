//! Fig. 25: performance impact of the PRAC-PO implementations on
//! five-core multiprogrammed workloads.
//!
//! For each PuD operation period (125 ns – 16 µs), every mix is executed
//! under no mitigation (baseline), PRAC-PO-Naive, and PRAC-PO with weighted
//! counting; the plotted metric is weighted speedup normalized to the
//! baseline (higher is better).

use std::fmt;

use crate::prac::Mitigation;
use crate::system::{run_mix, RunStats};
use crate::timing::{DramTiming, SystemConfig};
use crate::workload::{build_mixes, Mix, PUD_PERIODS_NS};

/// One point of the Fig. 25 series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig25Point {
    /// PuD operation period in nanoseconds.
    pub period_ns: u64,
    /// Normalized performance under PRAC-PO-Naive.
    pub naive: f64,
    /// Normalized performance under PRAC-PO with weighted counting.
    pub weighted: f64,
}

/// The Fig. 25 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig25 {
    /// One point per PuD period (ascending).
    pub points: Vec<Fig25Point>,
    /// Mixes evaluated per point.
    pub mixes: u32,
}

impl Fig25 {
    /// Average performance overhead (1 − normalized performance) across all
    /// periods, for the weighted-counting configuration.
    pub fn avg_overhead_weighted(&self) -> f64 {
        1.0 - self.points.iter().map(|p| p.weighted).sum::<f64>() / self.points.len() as f64
    }

    /// Average overhead of the naive configuration.
    pub fn avg_overhead_naive(&self) -> f64 {
        1.0 - self.points.iter().map(|p| p.naive).sum::<f64>() / self.points.len() as f64
    }

    /// Maximum overhead of the weighted configuration.
    pub fn max_overhead_weighted(&self) -> f64 {
        self.points
            .iter()
            .map(|p| 1.0 - p.weighted)
            .fold(0.0, f64::max)
    }

    /// The point at a given period.
    pub fn at_period(&self, period_ns: u64) -> Option<&Fig25Point> {
        self.points.iter().find(|p| p.period_ns == period_ns)
    }
}

/// Configuration of the Fig. 25 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig25Config {
    /// Number of mixes (the paper uses 60).
    pub mixes: u32,
    /// Instructions retired per benchmark core (the paper simulates 100 M;
    /// the default here is scaled down for tractability).
    pub instr_budget: u64,
    /// Simulation seed.
    pub seed: u64,
    /// Worker threads (0 = auto: `PUD_THREADS` env or available
    /// parallelism, capped at the unit count). Output is bitwise identical
    /// at any value.
    pub threads: usize,
}

impl Fig25Config {
    /// Quick configuration for tests and benches.
    pub fn quick() -> Fig25Config {
        Fig25Config {
            mixes: 3,
            instr_budget: 120_000,
            seed: 0xF1625,
            threads: 0,
        }
    }

    /// Full-scale configuration (60 mixes).
    pub fn full() -> Fig25Config {
        Fig25Config {
            mixes: 60,
            instr_budget: 1_000_000,
            seed: 0xF1625,
            threads: 0,
        }
    }
}

/// Runs the Fig. 25 sweep.
///
/// Each (period, mix) pair is one unit holding its baseline, naive and
/// weighted simulations. Units run in parallel on
/// [`pud_observe::par::sweep_items`], and every point is bitwise identical
/// at any thread count.
pub fn fig25(config: &Fig25Config) -> Fig25 {
    let _span = pud_observe::span("experiment.fig25");
    let cfg = SystemConfig::default();
    let timing = DramTiming::default();
    let mixes = build_mixes(config.mixes, config.seed);
    let units: Vec<(u64, &Mix)> = PUD_PERIODS_NS
        .iter()
        .flat_map(|&period| mixes.iter().map(move |mix| (period, mix)))
        .collect();
    let threads = pud_observe::par::resolve_threads(config.threads, units.len());
    let normalized_runs = pud_observe::par::sweep_items(threads, units, |_, &mut (period, mix)| {
        // One profiler span per simulation, named by mitigation, so the
        // profile tree splits this driver's time.
        let run = |mitigation: Mitigation, span: &str| {
            let _span = pud_observe::span(span);
            run_mix(
                &cfg,
                &timing,
                mix,
                Some(period),
                mitigation,
                config.instr_budget,
                config.seed,
            )
        };
        let base = run(Mitigation::None, "fig25.baseline_ns");
        let naive = run(Mitigation::PracPoNaive, "fig25.prac_po_naive_ns");
        let weighted = run(Mitigation::PracPoWeighted, "fig25.prac_po_weighted_ns");
        (normalized(&naive, &base), normalized(&weighted, &base))
    });
    // Fold period-major, in mix order within a period: the serial loop's
    // summation order, so every point keeps its bits.
    let n = mixes.len();
    let points = PUD_PERIODS_NS
        .iter()
        .enumerate()
        .map(|(p, &period_ns)| {
            let mut naive_sum = 0.0;
            let mut weighted_sum = 0.0;
            for &(naive, weighted) in &normalized_runs[p * n..(p + 1) * n] {
                naive_sum += naive;
                weighted_sum += weighted;
            }
            Fig25Point {
                period_ns,
                naive: naive_sum / n as f64,
                weighted: weighted_sum / n as f64,
            }
        })
        .collect();
    Fig25 {
        points,
        mixes: config.mixes,
    }
}

/// Weighted speedup of `run` normalized to `base` (per-core IPC ratios,
/// averaged — the multiprogrammed metric of [242, 243] with the shared
/// baseline as reference).
pub fn normalized(run: &RunStats, base: &RunStats) -> f64 {
    let n = run.core_ipc.len().min(base.core_ipc.len());
    (0..n)
        .map(|i| run.core_ipc[i] / base.core_ipc[i].max(1e-12))
        .sum::<f64>()
        / n as f64
}

/// Runs a single mix at one period under one mitigation (building block for
/// ablations).
pub fn run_single(
    mix: &Mix,
    period_ns: u64,
    mitigation: Mitigation,
    instr_budget: u64,
    seed: u64,
) -> RunStats {
    run_mix(
        &SystemConfig::default(),
        &DramTiming::default(),
        mix,
        Some(period_ns),
        mitigation,
        instr_budget,
        seed,
    )
}

impl fmt::Display for Fig25 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== Fig. 25 — normalized performance vs PuD period ({} mixes) ==",
            self.mixes
        )?;
        writeln!(
            f,
            "| {:>9} | {:>14} | {:>17} |",
            "Period", "PRAC-PO-Naive", "PRAC-PO-Weighted"
        )?;
        writeln!(f, "{}", "-".repeat(52))?;
        for p in &self.points {
            writeln!(
                f,
                "| {:>7}ns | {:>14.3} | {:>17.3} |",
                p.period_ns, p.naive, p.weighted
            )?;
        }
        writeln!(
            f,
            "avg overhead: weighted {:.1}% (paper 48.26%), naive {:.1}%; max weighted {:.1}% (paper 98.83%)",
            self.avg_overhead_weighted() * 100.0,
            self.avg_overhead_naive() * 100.0,
            self.max_overhead_weighted() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plain serial loop over periods and mixes: the oracle the
    /// parallel units and their fold must match bit for bit.
    fn fig25_reference(config: &Fig25Config) -> Fig25 {
        let cfg = SystemConfig::default();
        let timing = DramTiming::default();
        let mixes = build_mixes(config.mixes, config.seed);
        let mut points = Vec::new();
        for &period in &PUD_PERIODS_NS {
            let mut naive_sum = 0.0;
            let mut weighted_sum = 0.0;
            for mix in &mixes {
                let run = |mitigation| {
                    run_mix(
                        &cfg,
                        &timing,
                        mix,
                        Some(period),
                        mitigation,
                        config.instr_budget,
                        config.seed,
                    )
                };
                let base = run(Mitigation::None);
                naive_sum += normalized(&run(Mitigation::PracPoNaive), &base);
                weighted_sum += normalized(&run(Mitigation::PracPoWeighted), &base);
            }
            points.push(Fig25Point {
                period_ns: period,
                naive: naive_sum / mixes.len() as f64,
                weighted: weighted_sum / mixes.len() as f64,
            });
        }
        Fig25 {
            points,
            mixes: config.mixes,
        }
    }

    fn bits(r: &Fig25) -> Vec<(u64, u64, u64)> {
        r.points
            .iter()
            .map(|p| (p.period_ns, p.naive.to_bits(), p.weighted.to_bits()))
            .collect()
    }

    #[test]
    fn parallel_units_match_the_serial_reference_bit_for_bit() {
        let small = Fig25Config {
            mixes: 2,
            instr_budget: 15_000,
            ..Fig25Config::quick()
        };
        for config in [Fig25Config::quick(), small] {
            let want = fig25_reference(&config);
            for threads in [1, 2, 4] {
                let got = fig25(&Fig25Config { threads, ..config });
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{} mixes at threads={threads}",
                    config.mixes
                );
                assert_eq!(got.mixes, want.mixes);
            }
        }
    }

    #[test]
    fn fig25_shape_matches_the_paper() {
        let mut cfg = Fig25Config::quick();
        cfg.mixes = 2;
        cfg.instr_budget = 15_000;
        let r = fig25(&cfg);
        assert_eq!(r.points.len(), PUD_PERIODS_NS.len());
        for p in &r.points {
            // Weighted counting outperforms naive at every intensity (a
            // small per-point tolerance absorbs scheduling noise at this
            // tiny test scale).
            assert!(
                p.weighted >= p.naive - 0.03,
                "period {}: weighted {} vs naive {}",
                p.period_ns,
                p.weighted,
                p.naive
            );
            assert!(p.weighted <= 1.02 && p.naive <= 1.02);
        }
        // On average the ordering is strict.
        assert!(
            r.avg_overhead_weighted() <= r.avg_overhead_naive(),
            "weighted {} vs naive {}",
            r.avg_overhead_weighted(),
            r.avg_overhead_naive()
        );
        // Overhead shrinks as the PuD period grows (lower intensity).
        let first = r.points.first().unwrap();
        let last = r.points.last().unwrap();
        assert!(last.weighted >= first.weighted);
        // Mitigation costs something at high intensity.
        assert!(first.naive < 0.97, "naive at 125ns: {}", first.naive);
    }
}
