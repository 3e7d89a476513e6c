//! Work-stealing parallel map: the workspace's one thread pool.
//!
//! [`sweep_items`] runs a closure over owned items on scoped workers that
//! pull indices from a shared atomic queue (no channels), and returns the
//! results in item order. The fleet sweeps, the Fig. 24 TRR evaluation and
//! the Fig. 25 memory-system simulations all run through it. It lives here,
//! beside the machinery it depends on, so every crate of the workspace can
//! use it:
//!
//! - each worker installs a [`ShardGuard`], so hot loops record metrics
//!   without contending on the global registry, and the shards drain into
//!   it at the barrier with the same totals as serial recording;
//! - each worker installs the caller's [`fork_anchor`], so its profiler
//!   spans nest under the calling frame exactly as they would inline;
//! - the [`live`](crate::live) item counters feed campaign progress.
//!
//! [`fork_anchor`]: crate::profile::fork_anchor

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::ShardGuard;

/// Environment variable overriding the auto-detected worker count.
pub const THREADS_ENV: &str = "PUD_THREADS";

fn default_threads() -> usize {
    // The env var is re-read on every call: tests and drivers may set
    // `PUD_THREADS` after the first sweep and must not get a stale cached
    // value. Only the machine's parallelism (a syscall, never changing) is
    // cached.
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Resolves an effective worker count for a map over `items` items.
///
/// `requested == 0` means "auto": the `PUD_THREADS` environment variable if
/// set to a positive integer, the machine's available parallelism
/// otherwise. The result is clamped to `[1, items]` — more workers than
/// items would only idle.
pub fn resolve_threads(requested: usize, items: usize) -> usize {
    let want = if requested > 0 {
        requested
    } else {
        default_threads()
    };
    want.clamp(1, items.max(1))
}

/// Work-stealing map over arbitrary owned items.
///
/// Runs `f(index, &mut item)` for every item using `threads` scoped
/// workers pulling indices from a shared atomic queue, and returns the
/// results in item order. `threads <= 1` (or a single item) runs inline on
/// the calling thread with no worker machinery. Parallel workers record
/// metrics into per-thread shards that drain into the global registry
/// before the call returns.
pub fn sweep_items<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    crate::live::add_items_total(n as u64);
    if threads <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, mut item)| {
                let r = f(i, &mut item);
                crate::live::item_done();
                r
            })
            .collect();
    }
    let slots: Vec<Mutex<T>> = items.into_iter().map(Mutex::new).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    // Capture the caller's span path so worker-side spans nest under it:
    // the profiler's call tree then has the same shape at any thread count
    // (see `crate::profile`).
    let anchor = crate::profile::fork_anchor();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| {
                let _anchored = anchor.install();
                let _shard = ShardGuard::install();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // fetch_add hands out each index exactly once, so the
                    // slot lock is uncontended — it exists to move `&mut T`
                    // across the thread boundary without unsafe code.
                    let mut item = slots[i].lock().expect("sweep item slot poisoned");
                    let r = f(i, &mut item);
                    *results[i].lock().expect("sweep result slot poisoned") = Some(r);
                    crate::live::item_done();
                }
                // `_shard` drops here, draining this worker's metrics into
                // the global registry — the sweep-barrier flush point.
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("sweep result slot poisoned")
                .expect("every index claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_clamps_to_fleet_size() {
        assert_eq!(resolve_threads(8, 3), 3);
        assert_eq!(resolve_threads(2, 14), 2);
        assert_eq!(resolve_threads(1, 0), 1);
        assert!(resolve_threads(0, 14) >= 1);
    }

    #[test]
    fn sweep_items_preserves_order_at_any_thread_count() {
        // The map bumps the live item counters, which other tests pin.
        let _guard = crate::live::TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let items: Vec<u64> = (0..37).collect();
        let serial = sweep_items(1, items.clone(), |i, v| *v * 2 + i as u64);
        for threads in [2, 4, 16] {
            let parallel = sweep_items(threads, items.clone(), |i, v| *v * 2 + i as u64);
            assert_eq!(serial, parallel, "threads={threads}");
        }
        assert_eq!(serial[5], 15);
    }

    #[test]
    fn threads_env_is_reread_after_first_resolution() {
        // Regression: `default_threads` used to cache the env var in a
        // OnceLock, so a later `PUD_THREADS` change was silently ignored.
        // Positive values only: the concurrent `resolve_clamps_to_fleet_size`
        // test merely asserts `resolve_threads(0, _) >= 1`.
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(resolve_threads(0, 100), 3);
        std::env::set_var(THREADS_ENV, "7");
        assert_eq!(resolve_threads(0, 100), 7, "env change must be visible");
        std::env::remove_var(THREADS_ENV);
        assert!(resolve_threads(0, 100) >= 1);
    }
}
