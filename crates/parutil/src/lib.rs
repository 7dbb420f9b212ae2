//! # massf-parutil
//!
//! The workspace-shared parallel-execution layer: a scoped-thread
//! worker pool with deterministic, order-preserving `par_map`
//! primitives, plus the thread-count plumbing every binary shares.
//!
//! ## Thread-count resolution
//!
//! Highest priority first:
//!
//! 1. a thread-local override installed by [`with_threads`] (used by
//!    tests and benches to compare 1-thread vs N-thread runs in-process
//!    without races between concurrently running tests);
//! 2. the process-global override installed by [`set_threads`] (the
//!    figure binaries' `--threads` flag);
//! 3. the `MASSF_THREADS` environment variable;
//! 4. [`std::thread::available_parallelism`].
//!
//! ## Determinism
//!
//! Every primitive here is *order-preserving*: `par_map(xs, f)` returns
//! exactly `xs.iter().map(f).collect()` — the work distribution over
//! threads is dynamic (chunk stealing off an atomic cursor), but result
//! `i` always lands in slot `i`. Callers that keep `f` a pure function
//! of its input therefore get bit-identical output at every thread
//! count, which the determinism regression tests in `tests/` verify for
//! the HPROF sweep and the routing table builds.

#![forbid(unsafe_code)]

use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-global thread override; 0 = unset.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Thread-local override; 0 = unset.
    static LOCAL_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Install the process-global thread count (the `--threads` flag).
/// `0` clears the override.
pub fn set_threads(n: usize) {
    GLOBAL_THREADS.store(n, Ordering::Relaxed);
}

/// Run `f` with the calling thread's worker count pinned to `n`.
///
/// The override only affects parallel sections *started from this
/// thread* (worker threads spawned inside them still execute), so
/// concurrent tests with different pins never interfere.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    LOCAL_THREADS.with(|c| {
        let prev = c.replace(n.max(1));
        let out = f();
        c.set(prev);
        out
    })
}

/// The effective worker count for parallel sections started from the
/// calling thread (see the crate docs for the resolution order).
pub fn current_threads() -> usize {
    let local = LOCAL_THREADS.with(Cell::get);
    if local > 0 {
        return local;
    }
    let global = GLOBAL_THREADS.load(Ordering::Relaxed);
    if global > 0 {
        return global;
    }
    if let Ok(v) = std::env::var("MASSF_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Size of the chunks workers claim from the shared cursor: small
/// enough to balance skewed workloads, large enough to amortize the
/// cursor contention.
fn chunk_size(n_items: usize, threads: usize) -> usize {
    n_items.div_ceil(threads * 4).max(1)
}

/// Map `f` over `0..n`, in parallel, preserving index order.
///
/// Equivalent to `(0..n).map(f).collect()`; `f` runs concurrently on
/// up to [`current_threads`] scoped workers. Panics in `f` propagate.
pub fn par_map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = current_threads().min(n.max(1));
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = chunk_size(n, threads);
    let cursor = AtomicUsize::new(0);
    // Workers emit (chunk_start, results) pairs; reassembled in index
    // order below, so dynamic scheduling never reorders output.
    let parts: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                let results: Vec<R> = (start..end).map(&f).collect();
                parts.lock().push((start, results));
            });
        }
    });
    let mut parts = parts.into_inner();
    parts.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(n);
    for (_, mut results) in parts {
        out.append(&mut results);
    }
    debug_assert_eq!(out.len(), n);
    out
}

/// Map `f` over a slice, in parallel, preserving order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = with_threads(4, || par_map(&items, |&x| x * 3));
        assert_eq!(out, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_indexed_matches_sequential_at_every_thread_count() {
        let reference: Vec<usize> = (0..257).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = with_threads(threads, || par_map_indexed(257, |i| i * i));
            assert_eq!(out, reference, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = with_threads(4, || par_map_indexed(0, |_| 1));
        assert!(empty.is_empty());
        let one = with_threads(4, || par_map_indexed(1, |i| i + 41));
        assert_eq!(one, vec![41]);
    }

    #[test]
    fn with_threads_nests_and_restores() {
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(1, || assert_eq!(current_threads(), 1));
            assert_eq!(current_threads(), 3);
        });
    }

    #[test]
    fn skewed_workloads_still_ordered() {
        // Later indices are much cheaper: dynamic chunking will finish
        // out of submission order; output must not.
        let out = with_threads(4, || {
            par_map_indexed(64, |i| {
                let spins = if i < 4 { 200_000 } else { 10 };
                let mut acc = i as u64;
                for k in 0..spins {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                }
                (i, acc)
            })
        });
        for (slot, &(i, _)) in out.iter().enumerate() {
            assert_eq!(slot, i);
        }
    }

    #[test]
    fn panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            with_threads(2, || {
                par_map_indexed(8, |i| {
                    if i == 5 {
                        panic!("worker failure");
                    }
                    i
                })
            })
        });
        assert!(result.is_err());
    }
}
