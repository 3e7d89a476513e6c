//! The executor's steady state allocates nothing: a TRR-evasion run at
//! twice the hammer count makes exactly as many heap allocations as the
//! run at the base count. Every extra refresh window then runs its
//! explicit commands, its bulk step, its REFs and the TRR sampler's
//! victim refreshes, and for SiMRA its group activations (decode, settled
//! charge share, restore), without touching the allocator.
//!
//! A counting global allocator counts the allocations of the calling
//! thread; this file is its own test binary so nothing else shares it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pud_bender::simra_decode::{pair_for_mask, sandwiching_mask};
use pud_bender::{Executor, TestEnv, TestProgram};
use pud_dram::{profiles, BankId, ChipGeometry, DataPattern, RowAddr};
use pud_trr::{patterns, SamplingTrr, SamplingTrrConfig};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a plain thread-local cell that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const BANK: BankId = BankId(0);

/// Heap allocations `try_run` makes for `program` on a fresh executor
/// with refresh on and the sampling TRR installed, after writing `victim`
/// over the rows around the physical `aggressors` and `aggressor` over
/// them. The run must flip nothing: flips legitimately allocate (the
/// report, the row's flip history).
fn allocations(
    program: &TestProgram,
    aggressors: &[RowAddr],
    victim: DataPattern,
    aggressor: DataPattern,
) -> u64 {
    let profile = profiles::most_simra_vulnerable();
    let mut exec = Executor::new(profile, ChipGeometry::scaled_for_tests(), 0, 7);
    exec.take_trace_sink();
    exec.set_env(TestEnv::with_refresh());
    exec.set_observer(Box::new(SamplingTrr::new(
        SamplingTrrConfig::default(),
        profile.mapping(),
        0xC0FFEE,
    )));
    let lo = aggressors.iter().map(|r| r.0).min().expect("aggressors") - 2;
    let hi = aggressors.iter().map(|r| r.0).max().expect("aggressors") + 2;
    for r in lo..=hi {
        let row = RowAddr(r);
        let dp = if aggressors.contains(&row) {
            aggressor
        } else {
            victim
        };
        exec.write_row(BANK, exec.chip().to_logical(row), dp);
    }
    let before = ALLOCATIONS.with(Cell::get);
    let report = exec.try_run(program).expect("a valid program");
    let made = ALLOCATIONS.with(Cell::get) - before;
    assert!(report.flips.is_empty(), "{} flips", report.flips.len());
    assert!(report.acts > 0);
    made
}

#[test]
fn evasion_runs_allocate_nothing_per_extra_window() {
    let chip = Executor::new(
        profiles::most_simra_vulnerable(),
        ChipGeometry::scaled_for_tests(),
        0,
        7,
    );
    let logical = |r: u32| chip.chip().to_logical(RowAddr(r));
    // 8-sided RowHammer around physical row 300: 19 hammers per window,
    // so 10 and 20 windows, far below the first flip.
    let aggressors: Vec<RowAddr> = (0..4u32)
        .flat_map(|i| [RowAddr(299 - 2 * i), RowAddr(301 + 2 * i)])
        .collect();
    let on_bus: Vec<RowAddr> = aggressors.iter().map(|r| logical(r.0)).collect();
    let dummy = logical(5);
    let rowhammer = |hammers| patterns::rowhammer_evasion(BANK, &on_bus, dummy, hammers);
    let (dp_v, dp_a) = (DataPattern::CHECKER_AA, DataPattern::CHECKER_55);
    let n = allocations(&rowhammer(190), &aggressors, dp_v, dp_a);
    let n2 = allocations(&rowhammer(380), &aggressors, dp_v, dp_a);
    assert_eq!(n, n2, "8-sided RowHammer: allocations grow with the count");

    // SiMRA-16 on a sandwiching group of logical rows 512..544: 78 group
    // activations per window, 3 and 6 windows. All-zero victims between
    // all-zero members take far longer than that to flip.
    let (r1, r2) = pair_for_mask(RowAddr(512), sandwiching_mask(16));
    let members: Vec<RowAddr> =
        pud_bender::simra_decode::simra_group(chip.chip().geometry(), r1, r2)
            .expect("a group")
            .into_iter()
            .map(|r| chip.chip().to_physical(r))
            .collect();
    let simra = |ops| patterns::simra_evasion(BANK, r1, r2, ops);
    let zeros = DataPattern::ZEROS;
    let n = allocations(&simra(234), &members, zeros, zeros);
    let n2 = allocations(&simra(468), &members, zeros, zeros);
    assert_eq!(n, n2, "SiMRA-16: allocations grow with the count");
}
