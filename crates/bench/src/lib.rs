//! Dependency-free micro-benchmark runner for the simulator kernels.
//!
//! The paper's tables and figures are regenerated by `repro <target>
//! [--full]`, and end-to-end and per-layer timings are measured by
//! `perfbench/`. This crate holds what neither measures: the `micro_kernels`
//! and `ablations` bench targets, [`run_micro`] (the sampling runner behind
//! `micro_kernels` and the `repro` crate's `shard_overhead` bench), and the
//! exact [`percentile`] those benches and `serve_latency` print. Nothing
//! here writes files.

use std::time::Instant;

/// Minimum warm-up iterations before [`run_micro`] starts sampling.
pub const WARMUP_FLOOR: u64 = 4;

/// Nearest-rank percentile of an ascending-sorted slice (exact: indexes
/// the actual sample, unlike the log-bucket histogram's upper bounds).
/// `pct` 0 is the minimum, 100 the maximum, and an empty slice gives 0.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Times `f` for `samples` samples of `inner` iterations each, after a
/// warm-up phase of at least [`WARMUP_FLOOR`] iterations (one full
/// sample's worth for cheap benches). Per-iteration nanoseconds go into
/// the global histogram `bench.<name>` (so `--metrics`-style consumers
/// see them), and a summary line with exact percentiles is printed.
/// Returns the mean ns/iteration.
pub fn run_micro<T>(name: &str, samples: u64, inner: u64, mut f: impl FnMut() -> T) -> f64 {
    let inner = inner.max(1);
    // Expensive benches run with `inner == 1`, where a single warm-up
    // call left the first measured samples carrying one-time costs (lazy
    // allocations, page faults, branch-predictor training), which showed
    // up as p99/max ~20x p50. A small fixed floor absorbs the cold start
    // without distorting cheap benches (their warm-up was already
    // `inner` >> floor iterations).
    for _ in 0..inner.max(WARMUP_FLOOR) {
        std::hint::black_box(f());
    }
    // One handle for the whole sample loop; each sample records the f64
    // per-iteration time (total ns divided in float, so sub-`inner`
    // samples are not truncated toward 0 ns).
    let hist = pud_observe::histogram(&format!("bench.{name}"));
    let mut per_iter = Vec::with_capacity(samples as usize);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..inner {
            std::hint::black_box(f());
        }
        let ns = start.elapsed().as_nanos() as f64 / inner as f64;
        per_iter.push(ns);
        hist.record(ns.round() as u64);
    }
    per_iter.sort_by(f64::total_cmp);
    let mean = per_iter.iter().sum::<f64>() / per_iter.len().max(1) as f64;
    let [min, p50, p90, p99, max] =
        [0.0, 50.0, 90.0, 99.0, 100.0].map(|p| percentile(&per_iter, p));
    println!(
        "[{name}] {samples} samples x {inner} iters: mean {mean:.0} ns/iter \
         (min {min:.0}, p50 {p50:.0}, p90 {p90:.0}, p99 {p99:.0}, max {max:.0})",
    );
    mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_percentiles_from_samples() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 90.0), 90.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
    }

    #[test]
    fn percentile_of_tiny_sets() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 90.0), 2.0);
    }
}
