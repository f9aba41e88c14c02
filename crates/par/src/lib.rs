//! Deterministic parallel runtime for the qpp workspace.
//!
//! The contract every primitive here upholds: **results are bitwise
//! identical for any worker count.** That holds because the two things
//! that determine a floating-point result never depend on scheduling:
//!
//! 1. *Partitioning* — work is split into chunks by a pure function of
//!    the input size and a fixed per-call-site chunk size, never of the
//!    thread count or of which worker ran first.
//! 2. *Reduction order* — per-chunk results are merged strictly in
//!    chunk order. Workers race only over *which* chunk they claim
//!    next, never over where a result lands.
//!
//! Execution is dynamic: each region is one `std::thread::scope` in
//! which the calling thread and its helpers claim chunks from a shared
//! atomic counter, so a slow chunk does not idle the others. No thread
//! outlives the call that spawned it. A nested region opens its own
//! scope, serial inside a helper. The single-threaded path runs the
//! *same* chunk schedule serially, which is what makes `QPP_THREADS=1`
//! bitwise equal to `QPP_THREADS=64`.
//!
//! Thread count resolution, highest priority first: the innermost
//! [`with_threads`] scope on the current thread, then the
//! `QPP_THREADS` environment variable (read once per process), then
//! [`std::thread::available_parallelism`].

#![forbid(unsafe_code)]
// Library code must degrade into typed errors, never panics.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::iter_over_hash_type
    )
)]

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Hard cap on helper threads per region (the calling thread is extra).
const MAX_WORKERS: usize = 64;

fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("QPP_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The worker count parallel regions started from this thread will use
/// (including the calling thread itself).
pub fn current_threads() -> usize {
    THREAD_OVERRIDE
        .with(|o| o.get())
        .unwrap_or_else(env_threads)
}

/// Runs `f` with the thread count pinned to `threads` (minimum 1) for
/// parallel regions started from the current thread.
///
/// This is the race-free way for tests to compare thread counts:
/// `QPP_THREADS` is process-global and read once, while this override
/// is scoped and thread-local. Nested calls restore the outer value on
/// exit, including on panic.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = THREAD_OVERRIDE.with(|o| o.replace(Some(threads.max(1))));
    let _restore = Restore(prev);
    f()
}

/// A contiguous slice of work items handed to a chunk body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Chunk ordinal, 0-based in input order.
    pub index: usize,
    /// Half-open item range `[start, end)` covered by this chunk.
    pub range: Range<usize>,
}

/// Runs `f` over fixed chunks of `0..n` and returns the per-chunk
/// results **in chunk order**.
///
/// Chunk `c` covers `c * chunk_size .. min((c + 1) * chunk_size, n)` —
/// a pure function of `n` and `chunk_size`, so both the partitioning
/// and the merge order are independent of the worker count and results
/// are bitwise reproducible.
///
/// The region is one `std::thread::scope`: the calling thread plus up to
/// `current_threads() - 1` helpers, each claiming the next chunk from
/// one shared counter. A region opened inside a helper's chunk runs
/// serially on that helper; only the caller's chunks fan out again. It
/// returns once every chunk has run and every helper has been joined; a
/// panic in any chunk re-raises on the caller.
pub fn parallel_for_chunks<R, F>(n: usize, chunk_size: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Chunk) -> R + Sync,
{
    let chunk_size = chunk_size.max(1);
    let chunks = n.div_ceil(chunk_size);
    let helpers = current_threads()
        .saturating_sub(1)
        .min(chunks.saturating_sub(1))
        .min(MAX_WORKERS);
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            // ordering: the counter only partitions chunk indices; each
            // result travels back to the caller through the scope's join.
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= chunks {
                return done;
            }
            let start = index * chunk_size;
            let range = start..(start + chunk_size).min(n);
            done.push((index, f(Chunk { index, range })));
        }
    };
    // With no helpers the caller claims 0, 1, 2, … in order: the serial
    // schedule, and no thread is spawned. Helpers run nested regions
    // serially, so nesting never multiplies the thread count.
    let mut done = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers)
            .map(|_| scope.spawn(|| with_threads(1, claim)))
            .collect();
        let mut done = claim();
        for handle in handles {
            match handle.join() {
                Ok(part) => done.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, out)| out).collect()
}

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// Items are processed in chunks of `chunk_size` (1 is fine for coarse
/// items like whole training folds); within a chunk the items run in
/// index order, and chunks merge in index order, so the output is
/// bitwise identical to a serial `items.iter().map(f).collect()`.
pub fn parallel_map<T, R, F>(items: &[T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_for_chunks(items.len(), chunk_size, |chunk| {
        items[chunk.range].iter().map(&f).collect::<Vec<R>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_partition_the_input_exactly() {
        let chunks = parallel_for_chunks(23, 5, |c| c);
        assert_eq!(chunks.len(), 5);
        let mut covered = 0;
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.index, i);
            assert_eq!(c.range.start, covered);
            covered = c.range.end;
        }
        assert_eq!(covered, 23);
        assert_eq!(chunks[4].range, 20..23);
    }

    #[test]
    fn map_preserves_order_and_values() {
        let items: Vec<u64> = (0..997).collect();
        for threads in [1, 2, 8] {
            let out = with_threads(threads, || parallel_map(&items, 7, |&x| x * x));
            assert_eq!(out.len(), items.len());
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, (i as u64) * (i as u64));
            }
        }
    }

    #[test]
    fn reductions_are_bitwise_identical_across_thread_counts() {
        // A sum whose value depends on association order: any deviation
        // in partitioning or merge order changes the low bits.
        let sum_with = |threads: usize| {
            with_threads(threads, || {
                parallel_for_chunks(10_000, 64, |chunk| {
                    chunk
                        .range
                        .map(|i| 1.0 / (1.0 + i as f64).sqrt())
                        .sum::<f64>()
                })
                .into_iter()
                .sum::<f64>()
            })
        };
        let baseline = sum_with(1);
        for threads in [2, 3, 8, 64] {
            assert_eq!(baseline.to_bits(), sum_with(threads).to_bits());
        }
    }

    #[test]
    fn nested_regions_complete() {
        let out = with_threads(4, || {
            parallel_map(&[10usize, 20, 30], 1, |&rows| {
                parallel_for_chunks(rows, 4, |chunk| chunk.range.len())
                    .into_iter()
                    .sum::<usize>()
            })
        });
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn helpers_run_nested_regions_serially() {
        // Chunks 0 and 1 meet at the barrier, so they run on two
        // threads: at least one chunk is a helper's.
        let meet = std::sync::Barrier::new(2);
        let caller = std::thread::current().id();
        let seen = with_threads(4, || {
            parallel_for_chunks(64, 1, |chunk| {
                if chunk.index < 2 {
                    meet.wait();
                }
                (std::thread::current().id(), current_threads())
            })
        });
        assert!(seen.iter().any(|&(id, _)| id != caller));
        for (id, threads) in seen {
            assert_eq!(threads, if id == caller { 4 } else { 1 });
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<usize> = parallel_for_chunks(0, 8, |c| c.index);
        assert!(out.is_empty());
        let mapped: Vec<u8> = parallel_map(&[] as &[u8], 8, |&x| x);
        assert!(mapped.is_empty());
    }

    #[test]
    fn with_threads_restores_outer_value() {
        let outer = current_threads();
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(5, || assert_eq!(current_threads(), 5));
            assert_eq!(current_threads(), 3);
        });
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn a_panicking_chunk_reraises_on_the_caller_and_the_next_region_runs() {
        let attempt = std::panic::catch_unwind(|| {
            with_threads(4, || {
                parallel_for_chunks(100, 1, |chunk| {
                    if chunk.index == 37 {
                        panic!("boom");
                    }
                    chunk.index
                })
            })
        });
        assert!(attempt.is_err());
        // Nothing from the panicked region lingers into the next one.
        let ok = with_threads(4, || parallel_for_chunks(16, 2, |c| c.range.len()));
        assert_eq!(ok.iter().sum::<usize>(), 16);
    }
}
