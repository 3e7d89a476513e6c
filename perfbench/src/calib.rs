//! A fixed reference computation that uses none of the repository's code.
//! Timed next to a workload iteration, it gauges the host's speed at that
//! moment, so that a shared host slowing down or speeding up between runs
//! can be told apart from a change in the program.
//!
//! It is compute-bound on purpose: on the 2-vCPU host the benchmark was
//! built on, the workloads' run-to-run drift follows core speed (its
//! duration correlated 0.85 with `campaign_quick` iterations), while a
//! memory-latency-bound kernel did not follow it at all.

use std::collections::HashMap;
use std::time::Instant;

/// Words in each thread's working set (32 KiB, cache-resident).
const WORDS: usize = 1 << 12;
/// Steps per thread.
const STEPS: u64 = 24_000_000;

/// Runs the reference computation on `threads` threads at once; returns
/// its wall time in seconds.
pub fn reference_s(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for id in 0..threads.max(1) as u64 {
            s.spawn(move || {
                let mut v: Vec<u64> = (0..WORDS as u64).map(|i| i ^ id).collect();
                let mut counts: HashMap<u64, u64> = HashMap::new();
                let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ id;
                let mut acc = 0.0f64;
                for step in 0..STEPS {
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let i = (x >> 40) as usize % WORDS;
                    v[i] = v[i].wrapping_add(x);
                    acc += ((v[i] & 0xFFFF) as f64).sqrt().ln_1p();
                    if step % 8 == 0 {
                        *counts.entry(x >> 52).or_insert(0) += 1;
                    }
                }
                std::hint::black_box((v, counts, acc));
            });
        }
    });
    t.elapsed().as_secs_f64()
}
