//! Fig. 25 overhead against the per-core instruction budget.
//!
//! Runs the quick Fig. 25 sweep (3 mixes, the quick seed) at budgets of
//! 120 K, 1 M, 4 M and 16 M instructions per core and prints the weighted
//! and naive average/max overhead, the wall time, and how many of the
//! simulated nanoseconds the event-driven loop executed.
//!
//! Run with: `cargo run --release -p pud-memsim --example budget_sweep`

use std::time::Instant;

use pud_memsim::{fig25, Fig25Config};

fn main() {
    println!(
        "| {:>10} | {:>13} | {:>13} | {:>12} | {:>7} | {:>11} |",
        "budget", "weighted avg", "weighted max", "naive avg", "wall s", "steps/ticks"
    );
    for instr_budget in [120_000, 1_000_000, 4_000_000, 16_000_000] {
        let config = Fig25Config {
            instr_budget,
            ..Fig25Config::quick()
        };
        let counters = || {
            let snap = pud_observe::snapshot();
            let c = |name| snap.counter(name).unwrap_or(0) as f64;
            (c("memsim.steps"), c("memsim.ticks"))
        };
        let (steps0, ticks0) = counters();
        let start = Instant::now();
        let r = fig25::fig25(&config);
        let wall = start.elapsed().as_secs_f64();
        let (steps1, ticks1) = counters();
        println!(
            "| {:>10} | {:>12.1}% | {:>12.1}% | {:>11.1}% | {:>7.2} | {:>11.3} |",
            instr_budget,
            r.avg_overhead_weighted() * 100.0,
            r.max_overhead_weighted() * 100.0,
            r.avg_overhead_naive() * 100.0,
            wall,
            (steps1 - steps0) / (ticks1 - ticks0),
        );
    }
}
