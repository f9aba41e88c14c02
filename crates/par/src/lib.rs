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
//! Execution is dynamic (work-stealing): chunks are claimed from a
//! shared atomic counter, so a slow chunk does not idle the other
//! workers. The single-threaded path runs the *same* chunk schedule
//! serially, which is what makes `QPP_THREADS=1` bitwise equal to
//! `QPP_THREADS=64`.
//!
//! Worker threads are pooled and persistent (in the style of the
//! vendored `crossbeam` stand-in: a `Mutex`+`Condvar` MPMC queue), so a
//! caller in a hot loop — e.g. one incomplete-Cholesky pivot per
//! iteration — pays an enqueue, not a thread spawn. The calling thread
//! always participates in its own region, so a region never deadlocks
//! waiting for busy workers, including when regions nest.
//!
//! Thread count resolution, highest priority first: the innermost
//! [`with_threads`] scope on the current thread, then the
//! `QPP_THREADS` environment variable (read once per process), then
//! [`std::thread::available_parallelism`].

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
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Hard cap on pooled worker threads (the calling thread is extra).
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
// The merge loop's `expect` guards the filled-slot invariant (see the
// comment at the call site); silently skipping a slot is worse.
#[allow(clippy::expect_used)]
pub fn parallel_for_chunks<R, F>(n: usize, chunk_size: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Chunk) -> R + Sync,
{
    let chunk_size = chunk_size.max(1);
    let chunks = n.div_ceil(chunk_size);
    if chunks == 0 {
        return Vec::new();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..chunks).map(|_| Mutex::new(None)).collect();
    let body = |c: usize| {
        let start = c * chunk_size;
        let end = (start + chunk_size).min(n);
        let out = f(Chunk {
            index: c,
            range: start..end,
        });
        *slots[c].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
    };
    run_chunks(chunks, &body);
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                // run_chunks returns only after every chunk completed,
                // so each slot is filled; silently dropping one would
                // corrupt the merge order, hence the loud invariant.
                .expect("every chunk ran")
        })
        .collect()
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
    let per_chunk = parallel_for_chunks(items.len(), chunk_size, |chunk| {
        items[chunk.range].iter().map(&f).collect::<Vec<R>>()
    });
    let mut out = Vec::with_capacity(items.len());
    for part in per_chunk {
        out.extend(part);
    }
    out
}

/// Region bookkeeping guarded by [`Region::status`].
#[derive(Default)]
struct Status {
    /// Set by the owner once it stops claiming; helpers arriving after
    /// this point must not touch the region.
    closed: bool,
    /// Pooled workers currently inside the region. The owner cannot
    /// return while this is non-zero — that is what keeps the erased
    /// `data` pointer valid.
    active_helpers: usize,
    /// A helper's chunk body panicked; the owner re-raises.
    panicked: bool,
}

/// One parallel region: a type-erased chunk body plus the shared chunk
/// counter workers claim from.
struct Region {
    /// Points at the caller's monomorphized closure, which lives on the
    /// owner's stack for the whole region (see `run_chunks`).
    data: *const (),
    /// Trampoline that casts `data` back to its concrete type.
    call: unsafe fn(*const (), usize),
    chunks: usize,
    next: AtomicUsize,
    status: Mutex<Status>,
    done: Condvar,
}

// SAFETY: `data` is only dereferenced (a) by the owner, whose borrow is
// trivially alive, and (b) by helpers between a successful `enter` and
// the matching `leave`; the owner blocks in `run_chunks` until
// `active_helpers == 0` with `closed` set, so no helper dereference can
// outlive the pointee. All other fields are Sync by construction.
unsafe impl Send for Region {}
unsafe impl Sync for Region {}

impl Region {
    /// Claims the next unclaimed chunk, if any.
    fn claim(&self) -> Option<usize> {
        // ordering: the counter only partitions chunk indices; chunk
        // data visibility is carried by the Acquire/Release handshake
        // on `Region::enter`/`leave`, not by this ticket.
        let c = self.next.fetch_add(1, Ordering::Relaxed);
        (c < self.chunks).then_some(c)
    }
}

unsafe fn call_chunk<F: Fn(usize) + Sync>(data: *const (), chunk: usize) {
    // SAFETY (caller): `data` was produced from `&F` in `run_chunks`
    // and the borrow is still alive (see `Region` safety notes).
    unsafe { (*(data as *const F))(chunk) }
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(Pool::new)
}

/// Persistent worker pool; workers block on an MPMC queue of regions.
struct Pool {
    injector: crossbeam::channel::Sender<Arc<Region>>,
    queue: crossbeam::channel::Receiver<Arc<Region>>,
    spawned: AtomicUsize,
}

impl Pool {
    fn new() -> Pool {
        let (injector, queue) = crossbeam::channel::unbounded();
        Pool {
            injector,
            queue,
            spawned: AtomicUsize::new(0),
        }
    }

    /// Offers `region` to `helpers` workers, spawning threads lazily up
    /// to [`MAX_WORKERS`]. Stale offers (region already closed) are
    /// dropped by the workers, so over-offering is harmless.
    fn offer(&self, region: &Arc<Region>, helpers: usize) {
        self.ensure_workers(helpers);
        for _ in 0..helpers {
            // Send fails only if the receiver side is gone, which would
            // mean the static pool is being torn down at process exit.
            let _ = self.injector.send(Arc::clone(region));
        }
    }

    // Thread-spawn failure is unrecoverable resource exhaustion; the
    // lone `expect` below is the sanctioned loud failure for it.
    #[allow(clippy::expect_used)]
    fn ensure_workers(&self, want: usize) {
        let want = want.min(MAX_WORKERS);
        loop {
            // ordering: `spawned` is only a spawn-count reservation; the
            // channel handoff synchronizes the worker threads themselves.
            let have = self.spawned.load(Ordering::Relaxed);
            if have >= want {
                return;
            }
            // ordering: Relaxed CAS suffices — losing the race just
            // retries, and no data is published through this counter.
            if self
                .spawned
                .compare_exchange(have, have + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            let rx = self.queue.clone();
            std::thread::Builder::new()
                .name(format!("qpp-par-{have}"))
                .spawn(move || {
                    while let Ok(region) = rx.recv() {
                        help(&region);
                    }
                })
                // Thread-spawn failure means the process is out of
                // resources; there is no useful degraded mode here.
                .expect("spawn qpp-par worker");
        }
    }
}

/// A pooled worker's side of a region: enter, steal chunks until the
/// counter runs dry, leave.
/// Locks a region's status, recovering from poisoning: worker panics
/// are tracked explicitly via `Status::panicked`, so a poisoned mutex
/// carries no extra information and must not wedge the owner.
fn lock_status(region: &Region) -> MutexGuard<'_, Status> {
    region.status.lock().unwrap_or_else(PoisonError::into_inner)
}

fn help(region: &Region) {
    {
        let mut st = lock_status(region);
        if st.closed {
            return; // Stale offer; the owner already finished.
        }
        st.active_helpers += 1;
    }
    // The region is open and `active_helpers` now pins it open: the
    // owner cannot return until we decrement below.
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        while let Some(c) = region.claim() {
            // SAFETY: pinned open as above, so the pointee of
            // `region.data` is alive for the duration of this call.
            unsafe { (region.call)(region.data, c) };
        }
    }));
    let mut st = lock_status(region);
    if outcome.is_err() {
        st.panicked = true;
    }
    st.active_helpers -= 1;
    drop(st);
    region.done.notify_all();
}

/// Runs `body(0..chunks)` with work-stealing across the pool; the
/// calling thread participates and the call returns only when every
/// chunk has completed and no worker remains inside the region.
// The closing `panic!` re-raises a pooled worker's panic on the caller
// (see the comment at the site); it is the one sanctioned use.
#[allow(clippy::panic)]
fn run_chunks<F: Fn(usize) + Sync>(chunks: usize, body: &F) {
    if chunks == 0 {
        return;
    }
    let helpers = current_threads()
        .saturating_sub(1)
        .min(chunks.saturating_sub(1))
        .min(MAX_WORKERS);
    if helpers == 0 {
        // Serial path: the identical chunk schedule, in order.
        for c in 0..chunks {
            body(c);
        }
        return;
    }
    let region = Arc::new(Region {
        data: body as *const F as *const (),
        call: call_chunk::<F>,
        chunks,
        next: AtomicUsize::new(0),
        status: Mutex::new(Status::default()),
        done: Condvar::new(),
    });
    pool().offer(&region, helpers);
    // The owner claims chunks like any worker. A panic in `body` is
    // caught so we still close the region and wait out the helpers
    // before unwinding past the frame their pointer aims at.
    let owner_outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        while let Some(c) = region.claim() {
            // SAFETY: the owner's own borrow of `body` is alive.
            unsafe { (region.call)(region.data, c) };
        }
    }));
    let mut st = lock_status(&region);
    st.closed = true;
    while st.active_helpers > 0 {
        st = region.done.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
    let helper_panicked = st.panicked;
    drop(st);
    if let Err(payload) = owner_outcome {
        panic::resume_unwind(payload);
    }
    if helper_panicked {
        // Re-raises a panic that already tore down a pooled worker —
        // swallowing it would return incomplete results as if valid.
        panic!("qpp-par: a pooled worker panicked inside a parallel region");
    }
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
    fn panics_propagate_and_pool_survives() {
        let attempt = panic::catch_unwind(|| {
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
        // The pool must remain usable after a task panic.
        let ok = with_threads(4, || parallel_for_chunks(16, 2, |c| c.range.len()));
        assert_eq!(ok.iter().sum::<usize>(), 16);
    }
}
