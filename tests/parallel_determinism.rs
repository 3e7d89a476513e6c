//! Determinism of the parallel fleet-sweep engine: experiment output and
//! trace streams must be byte-identical at any thread count (the
//! load-bearing guarantee of `pudhammer::fleet::sweep`).

use std::sync::{Arc, Mutex};

use pudhammer_suite::bender::fault::FaultConfig;

use pudhammer_suite::bender::ops;
use pudhammer_suite::dram::RowAddr;
use pudhammer_suite::hammer::experiments::{simra, table2, trr_eval, Scale};
use pudhammer_suite::hammer::fleet::{sweep, Fleet, FleetConfig};
use pudhammer_suite::observe::{profile, RingBufferSink, SharedSink, TraceEvent};

/// Tests in this binary share process-global observability state (the
/// global trace sink, the metrics registry), so they must not overlap.
static GLOBAL_STATE: Mutex<()> = Mutex::new(());

fn tiny_scale(threads: usize) -> Scale {
    let mut s = Scale::quick();
    s.fleet.victims_per_subarray = 1;
    s.threads = threads;
    s
}

/// Runs one traced sweep over a fresh fleet and returns the per-chip event
/// sequences plus the merged stream the destination sink received.
fn traced_sweep(threads: usize) -> (Vec<Vec<TraceEvent>>, Vec<TraceEvent>) {
    let mut fleet = Fleet::build(FleetConfig::quick());
    let ring = Arc::new(Mutex::new(RingBufferSink::new(1 << 18)));
    let sink: SharedSink = ring.clone();
    for chip in &mut fleet.chips {
        chip.exec().set_trace_sink(sink.clone());
    }
    let (_, traces) = sweep::sweep_traced(threads, &mut fleet.chips, |_, chip| {
        let victim = chip.victim_rows()[0];
        let aggressor = RowAddr(victim.0.saturating_sub(1));
        let program = ops::single_sided_rowhammer(chip.bank(), aggressor, ops::t_ras(), 64);
        chip.exec().run(&program);
    });
    let traces = traces.expect("every chip had a sink attached");
    assert_eq!(traces.dropped, 0, "rings must not overflow in this test");
    traces.merge();
    let merged = ring.lock().unwrap().to_vec();
    (traces.per_chip, merged)
}

#[test]
fn fault_seeded_sweeps_are_deterministic_across_thread_counts() {
    let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    // Seed 103 is the curated campaign (see examples/fault_seed_scan.rs):
    // across the 14 quick-fleet chips it kills Micron-E-16Gb#0 and injects
    // one transient fault into Micron-F-16Gb#0 plus two into
    // Samsung-C-16Gb#0. Retry counts, the quarantine set, and the rendered
    // table (including its quarantine footer) must not depend on the
    // worker count.
    let run = |threads| {
        let mut s = tiny_scale(threads);
        s.fleet.fault = Some(FaultConfig::from_seed(103));
        table2::table2(&s)
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(
        serial.to_string(),
        parallel.to_string(),
        "fault-seeded table2 must not depend on threads"
    );
    assert_eq!(serial.sweep.retries(), parallel.sweep.retries());
    let quarantined = |t: &pudhammer_suite::hammer::experiments::table2::Table2| {
        t.sweep
            .chips
            .iter()
            .filter(|c| c.quarantined.is_some())
            .map(|c| c.label.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(quarantined(&serial), quarantined(&parallel));
    assert_eq!(quarantined(&serial), vec!["Micron-E-16Gb#0".to_string()]);
    assert_eq!(serial.sweep.retries(), 3, "1 + 2 transient faults retried");
}

#[test]
fn sweeps_are_byte_identical_across_thread_counts() {
    let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    // A global ring sink captures every command-stream event the
    // experiments' executors emit (they attach it at fleet construction).
    // One #[test] owns the whole comparison: the sink is process-wide.
    let global = Arc::new(Mutex::new(RingBufferSink::new(1 << 20)));
    pudhammer_suite::observe::set_global_sink(global.clone());
    let drain = |ring: &Arc<Mutex<RingBufferSink>>| -> Vec<TraceEvent> {
        let mut ring = ring.lock().unwrap();
        assert_eq!(ring.dropped(), 0, "ring must hold the full event stream");
        let events = ring.to_vec();
        ring.clear();
        events
    };

    // Experiment output: the full Table 2 reproduction and a SiMRA figure,
    // rendered at one worker and at four, must match byte for byte — and
    // so must the merged trace streams they emit.
    let t2_serial = table2::table2(&tiny_scale(1)).to_string();
    let t2_events_serial = drain(&global);
    let t2_parallel = table2::table2(&tiny_scale(4)).to_string();
    let t2_events_parallel = drain(&global);
    assert_eq!(t2_serial, t2_parallel, "table2 must not depend on threads");
    assert!(!t2_events_serial.is_empty());
    assert_eq!(
        t2_events_serial, t2_events_parallel,
        "table2 trace stream must not depend on threads"
    );

    let f16_serial = simra::fig16(&tiny_scale(1)).to_string();
    let f16_events_serial = drain(&global);
    let f16_parallel = simra::fig16(&tiny_scale(4)).to_string();
    let f16_events_parallel = drain(&global);
    assert_eq!(f16_serial, f16_parallel, "fig16 must not depend on threads");
    assert!(!f16_events_serial.is_empty());
    assert_eq!(
        f16_events_serial, f16_events_parallel,
        "fig16 trace stream must not depend on threads"
    );
    pudhammer_suite::observe::clear_global_sink();

    // Trace streams: per-chip event sequences and the timestamp-merged
    // stream must also be independent of the worker count.
    let (per_chip_serial, merged_serial) = traced_sweep(1);
    let (per_chip_parallel, merged_parallel) = traced_sweep(4);
    assert!(per_chip_serial.iter().all(|c| !c.is_empty()));
    assert_eq!(
        per_chip_serial, per_chip_parallel,
        "per-chip trace sequences must not depend on threads"
    );
    assert_eq!(
        merged_serial, merged_parallel,
        "merged trace stream must not depend on threads"
    );
}

#[test]
fn fig24_is_byte_identical_at_one_two_and_four_threads() {
    let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    // Fig. 24's workers finish its techniques in any order; rows and the
    // merged trace stream must still fold in technique order.
    let global = Arc::new(Mutex::new(RingBufferSink::new(1 << 20)));
    pudhammer_suite::observe::set_global_sink(global.clone());
    let run = |threads| {
        let mut scale = tiny_scale(threads);
        scale.trr_hammers = 20_000;
        let rendered = trr_eval::fig24(&scale).to_string();
        let mut ring = global.lock().unwrap();
        assert_eq!(ring.dropped(), 0, "ring must hold the full event stream");
        let events = ring.to_vec();
        ring.clear();
        (rendered, events)
    };
    let serial = run(1);
    assert!(!serial.1.is_empty());
    for threads in [2, 4] {
        let parallel = run(threads);
        assert_eq!(serial.0, parallel.0, "fig24 rows at {threads} threads");
        assert!(serial.1 == parallel.1, "fig24 trace at {threads} threads");
    }
    pudhammer_suite::observe::clear_global_sink();
}

/// The call-tree shape a profiled run produces, with the wall-clock fields
/// stripped: everything here must be independent of the worker count.
fn tree_shape(nodes: &[profile::ProfileNode]) -> Vec<(String, u64, u64, u64, u64)> {
    nodes
        .iter()
        .map(|n| (n.path.clone(), n.calls, n.commands, n.events, n.warm_hits))
        .collect()
}

#[test]
fn profiled_sweeps_keep_output_and_tree_shape_thread_invariant() {
    let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    // Baseline: the experiment rendered with the profiler off. Profiling
    // must be invisible to the experiment's own output.
    profile::disable();
    profile::reset();
    let baseline = table2::table2(&tiny_scale(4)).to_string();

    let profiled_run = |threads| {
        profile::reset();
        profile::enable();
        let rendered = table2::table2(&tiny_scale(threads)).to_string();
        profile::disable();
        (rendered, profile::snapshot())
    };
    let (serial, nodes_serial) = profiled_run(1);
    let (parallel, nodes_parallel) = profiled_run(4);
    profile::reset();

    assert_eq!(serial, baseline, "profiling must not change table2 output");
    assert_eq!(parallel, baseline, "profiled parallel table2 must match");

    // Anchor-based merging puts worker spans at the path the serial
    // execution would give them, so the tree shape, call counts, and the
    // deterministic work counters are identical at 1 and 4 threads.
    let shape = tree_shape(&nodes_serial);
    assert!(!shape.is_empty(), "a profiled run must collect spans");
    assert_eq!(
        shape,
        tree_shape(&nodes_parallel),
        "call-tree shape must not depend on threads"
    );
    assert!(
        shape.iter().any(|(path, ..)| path == "experiment.table2"),
        "the driver span must be a root of the tree"
    );
    assert!(
        shape
            .iter()
            .any(|(path, ..)| path.starts_with("experiment.table2;")),
        "worker spans must nest under the driver span via anchors"
    );
    let commands: u64 = shape.iter().map(|&(_, _, cmds, ..)| cmds).sum();
    assert!(commands > 0, "the sweep must attribute executed commands");

    // Root spans must account for (almost) all measured time: only spans
    // opened outside any root escape the roots' inclusive totals.
    let measured = profile::total_self_ns(&nodes_serial);
    let roots = profile::root_total_ns(&nodes_serial);
    assert!(
        roots as f64 >= measured as f64 * 0.95,
        "root spans cover {roots} of {measured} measured ns"
    );
}

/// Replaces the run-dependent nanosecond fields of a folded rendering with
/// `NS`, leaving the deterministic structure for a golden comparison.
fn scrub_ns(folded: &str) -> String {
    folded
        .lines()
        .map(|line| {
            if let Some(rest) = line.strip_prefix("# ") {
                let scrubbed: Vec<String> = rest
                    .split(' ')
                    .map(|field| match field.split_once("total_ns=") {
                        Some(("", _)) => "total_ns=NS".to_string(),
                        _ => field.to_string(),
                    })
                    .collect();
                format!("# {}", scrubbed.join(" "))
            } else {
                let (path, _) = line.rsplit_once(' ').expect("folded line has a count");
                format!("{path} NS")
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn folded_export_of_a_two_level_nest_matches_the_golden_rendering() {
    let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    profile::reset();
    profile::enable();
    {
        let _outer = pudhammer_suite::observe::span("golden.outer");
        profile::work_commands(2);
        {
            let _inner = pudhammer_suite::observe::span("golden.inner");
            profile::work_events(3);
            profile::work_warm_hits(1);
        }
        {
            let _inner = pudhammer_suite::observe::span("golden.inner");
        }
    }
    profile::disable();
    let nodes: Vec<_> = profile::snapshot()
        .into_iter()
        .filter(|n| n.path.starts_with("golden.outer"))
        .collect();
    profile::reset();
    let golden = "\
golden.outer NS
golden.outer;golden.inner NS
# golden.outer calls=1 total_ns=NS cmds=2 events=0 warm_hits=0
# golden.outer;golden.inner calls=2 total_ns=NS cmds=0 events=3 warm_hits=1";
    assert_eq!(scrub_ns(&profile::render_folded(&nodes)), golden);
}
