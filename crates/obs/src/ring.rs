//! Fixed-capacity event window behind one mutex.
//!
//! [`EventRing::push`] locks, writes the event into the next slot and
//! bumps the per-stage totals; when the window is full the oldest event
//! is overwritten (tracing wants the most recent window, not
//! backpressure). All storage is allocated once in [`EventRing::new`],
//! so there is **no allocation after construction** — which is what
//! lets the serving hot path record spans while
//! `tests/alloc_regression.rs` still measures 0 allocations per request.
//!
//! Because every write and every read happens under the lock, a
//! snapshot is exact: no event is torn, none is dropped, the window is
//! the last `capacity` pushes in push order, and the stage totals count
//! every push ever made. The critical section is a 48-byte store and
//! three additions and calls nothing, so the lock is a leaf: it may be
//! taken with any other lock held.

use crate::event::{Event, Stage};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// What the lock guards.
#[derive(Debug)]
struct Window {
    /// `None` until first written; push `n` lands in slot `n % len`.
    slots: Box<[Option<Event>]>,
    /// Events ever pushed.
    recorded: u64,
    /// Spans + marks per stage, by [`Stage::index`]. Exact totals that
    /// never wrap, so stage summaries do not depend on the capacity.
    stage_hits: [u64; Stage::COUNT],
    /// Summed span nanoseconds per stage (marks contribute 0).
    stage_ns: [u64; Stage::COUNT],
}

/// A multi-producer window of the most recent events, of fixed
/// (power-of-two) capacity, plus exact per-stage totals.
#[derive(Debug)]
pub struct EventRing {
    window: Mutex<Window>,
}

impl EventRing {
    /// Creates a ring holding `capacity` events; rounded up to the next
    /// power of two, with a floor of 8.
    pub fn new(capacity: usize) -> EventRing {
        let cap = capacity.max(8).next_power_of_two();
        EventRing {
            window: Mutex::new(Window {
                slots: vec![None; cap].into_boxed_slice(),
                recorded: 0,
                stage_hits: [0; Stage::COUNT],
                stage_ns: [0; Stage::COUNT],
            }),
        }
    }

    /// Every intermediate state of a `push` is a valid window (it
    /// indexes in bounds and calls nothing), so a poisoned lock is
    /// recovered, as `qpp-par` does.
    fn lock(&self) -> MutexGuard<'_, Window> {
        self.window.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.lock().slots.len()
    }

    /// Total events ever pushed (monotonic; exceeds `capacity()` once
    /// the ring has wrapped, by the number of events overwritten).
    pub fn recorded(&self) -> u64 {
        self.lock().recorded
    }

    /// Records one event: overwrites the oldest slot and folds the
    /// event into its stage's totals. Allocation-free.
    pub fn push(&self, e: &Event) {
        let mut w = self.lock();
        let slot = w.recorded as usize % w.slots.len();
        w.slots[slot] = Some(*e);
        w.recorded += 1;
        w.stage_hits[e.stage.index()] += 1;
        w.stage_ns[e.stage.index()] += e.dur_ns;
    }

    /// The current window, oldest event first.
    pub fn snapshot(&self) -> Vec<Event> {
        let w = self.lock();
        let oldest = w.recorded as usize % w.slots.len();
        let (newer, older) = w.slots.split_at(oldest);
        let mut out = Vec::with_capacity(w.slots.len());
        out.extend(older.iter().chain(newer).flatten());
        out
    }

    /// `(hits, summed span nanoseconds)` per stage, by [`Stage::index`],
    /// over every event ever pushed.
    pub fn stage_totals(&self) -> ([u64; Stage::COUNT], [u64; Stage::COUNT]) {
        let w = self.lock();
        (w.stage_hits, w.stage_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use std::sync::Arc;

    fn event(trace: u64, start: u64) -> Event {
        Event {
            trace_id: trace,
            kind: EventKind::Span,
            stage: Stage::Predict,
            start_ns: start,
            dur_ns: 10,
            value: 0,
        }
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(EventRing::new(0).capacity(), 8);
        assert_eq!(EventRing::new(9).capacity(), 16);
        assert_eq!(EventRing::new(64).capacity(), 64);
    }

    #[test]
    fn preserves_publication_order() {
        let ring = EventRing::new(16);
        for i in 0..10 {
            ring.push(&event(1, i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 10);
        for (i, e) in snap.iter().enumerate() {
            assert_eq!(e.start_ns, i as u64);
        }
    }

    #[test]
    fn wraparound_keeps_most_recent_window() {
        let ring = EventRing::new(8);
        for i in 0..20 {
            ring.push(&event(1, i));
        }
        assert_eq!(ring.recorded(), 20);
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 8, "full ring after wrap");
        // The retained window is exactly the last `capacity` events, in
        // order.
        for (k, e) in snap.iter().enumerate() {
            assert_eq!(e.start_ns, (12 + k) as u64);
        }
    }

    #[test]
    fn concurrent_pushes_are_never_torn() {
        let ring = Arc::new(EventRing::new(64));
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 2_000;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        // Encode (thread, i) redundantly across fields so a
                        // torn slot would be detectable.
                        ring.push(&Event {
                            trace_id: t + 1,
                            kind: EventKind::Span,
                            stage: Stage::Predict,
                            start_ns: (t + 1) * 1_000_000 + i,
                            dur_ns: t + 1,
                            value: i,
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("pusher thread");
        }
        assert_eq!(ring.recorded(), THREADS * PER_THREAD);
        // Under the mutex nothing is dropped: a full window, and totals
        // that count every push.
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 64);
        let (hits, ns) = ring.stage_totals();
        assert_eq!(hits[Stage::Predict.index()], THREADS * PER_THREAD);
        assert_eq!(
            ns[Stage::Predict.index()],
            PER_THREAD * (1..=THREADS).sum::<u64>()
        );
        let mut last_seen = [None; THREADS as usize];
        for e in snap {
            // Cross-field consistency: all three encodings agree.
            assert_eq!(e.dur_ns, e.trace_id);
            assert_eq!(e.start_ns, e.trace_id * 1_000_000 + e.value);
            // Each thread's events appear in the order it pushed them.
            let last = &mut last_seen[e.trace_id as usize - 1];
            assert!(*last < Some(e.value), "thread {} reordered", e.trace_id);
            *last = Some(e.value);
        }
    }
}
