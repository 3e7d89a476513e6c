//! Fig. 25 records the same metric totals and the same profile tree at any
//! thread count: worker metric shards drain into the global registry at the
//! barrier, and worker spans nest under `experiment.fig25`. One thread runs
//! every simulation inline on the calling thread.
//!
//! The metric registry and the profiler are process-global, so this file
//! holds a single test and runs in a process of its own.

use pud_memsim::{fig25, Fig25Config};

const COUNTERS: [&str; 3] = ["memsim.requests_scheduled", "memsim.ticks", "memsim.steps"];

const SPANS: [&str; 3] = [
    "experiment.fig25;fig25.baseline_ns",
    "experiment.fig25;fig25.prac_po_naive_ns",
    "experiment.fig25;fig25.prac_po_weighted_ns",
];

/// Counter totals and the profile tree's (path, calls) of one small run.
fn observe(threads: usize) -> (Vec<u64>, Vec<(String, u64)>) {
    pud_observe::reset();
    pud_observe::profile::reset();
    let config = Fig25Config {
        mixes: 2,
        instr_budget: 15_000,
        threads,
        ..Fig25Config::quick()
    };
    // A shard on the calling thread sees only what runs inline on it.
    let caller = pud_observe::ShardGuard::install();
    fig25::fig25(&config);
    let inline_steps = caller.registry().counter("memsim.steps").get();
    assert_eq!(
        inline_steps > 0,
        threads == 1,
        "threads={threads}: {inline_steps} steps ran on the calling thread"
    );
    drop(caller);
    let snap = pud_observe::snapshot();
    let counters = COUNTERS
        .iter()
        .map(|name| snap.counter(name).unwrap_or(0))
        .collect();
    let tree = pud_observe::profile::snapshot()
        .into_iter()
        .map(|node| (node.path, node.calls))
        .collect();
    (counters, tree)
}

#[test]
fn metric_totals_and_profile_tree_match_at_one_and_two_threads() {
    pud_observe::profile::enable();
    let (serial_counters, serial_tree) = observe(1);
    let (parallel_counters, parallel_tree) = observe(2);
    pud_observe::profile::disable();

    assert!(
        serial_counters.iter().all(|&c| c > 0),
        "{COUNTERS:?} = {serial_counters:?}"
    );
    assert_eq!(parallel_counters, serial_counters, "{COUNTERS:?}");
    assert_eq!(parallel_tree, serial_tree);
    // 8 periods × 2 mixes: one span per unit and mitigation.
    for span in SPANS {
        assert!(
            serial_tree.contains(&(span.to_string(), 16)),
            "{span} missing from {serial_tree:?}"
        );
    }
}
