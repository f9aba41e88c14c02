//! Lock-free fixed-capacity event ring.
//!
//! Writers claim a ticket with one `fetch_add` and publish the event
//! into the ticket's slot; when the ring is full the oldest events are
//! overwritten (tracing wants the most recent window, not backpressure).
//! Every slot is a handful of `AtomicU64` words guarded by a sequence
//! stamp — no locks, no `unsafe`, and crucially **no allocation after
//! construction**, which is what lets the serving hot path record spans
//! while `tests/alloc_regression.rs` still measures 0.0 allocs/request.
//!
//! Readers ([`EventRing::snapshot`]) are best-effort: a slot being
//! rewritten mid-read is detected through the sequence stamp and
//! skipped. Monitoring data may lose an event under contention; it
//! never reports a torn one.

use crate::event::Event;
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// One slot: a sequence stamp, the event's words, and a checksum.
///
/// Stamp protocol for ticket `t`: `2t + 1` while writing, `2t + 2` once
/// published, `0` for never-written. Odd ⇒ in progress; even and
/// nonzero ⇒ stable, with the ticket recoverable as `(stamp - 2) / 2`.
///
/// The stamp alone cannot catch one pathological interleaving: a
/// writer preempted mid-publish while the ring completes a full lap
/// and a later writer reuses its slot, leaving mixed fields under an
/// even stamp. `check` (xor of the payload words) closes that hole:
/// readers recompute it and skip any slot whose payload does not hash
/// to its stored checksum.
#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    trace_id: AtomicU64,
    tag: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
    value: AtomicU64,
    check: AtomicU64,
}

impl Slot {
    const fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            trace_id: AtomicU64::new(0),
            tag: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
            value: AtomicU64::new(0),
            check: AtomicU64::new(0),
        }
    }
}

/// Payload checksum; mixes a constant so an all-zero event still
/// produces a nonzero stored checksum.
// qpp-lint: hot-path
fn checksum(trace_id: u64, tag: u64, start_ns: u64, dur_ns: u64, value: u64) -> u64 {
    0x9e37_79b9_7f4a_7c15
        ^ trace_id
        ^ tag.rotate_left(8)
        ^ start_ns.rotate_left(16)
        ^ dur_ns.rotate_left(24)
        ^ value.rotate_left(32)
}

/// A lock-free multi-producer event ring of fixed (power-of-two)
/// capacity. All storage is allocated once in [`EventRing::new`].
#[derive(Debug)]
pub struct EventRing {
    slots: Box<[Slot]>,
    mask: u64,
    head: AtomicU64,
}

impl EventRing {
    /// Creates a ring holding `capacity` events; rounded up to the next
    /// power of two, with a floor of 8.
    pub fn new(capacity: usize) -> EventRing {
        let cap = capacity.max(8).next_power_of_two();
        let slots: Vec<Slot> = (0..cap).map(|_| Slot::empty()).collect();
        EventRing {
            slots: slots.into_boxed_slice(),
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever pushed (monotonic; exceeds `capacity()` once
    /// the ring has wrapped).
    pub fn recorded(&self) -> u64 {
        // ordering: a monotonic statistic; no payload hangs off it.
        self.head.load(Ordering::Relaxed)
    }

    /// Publishes one event. Lock-free and allocation-free: one ticket
    /// `fetch_add` plus six word stores.
    // qpp-lint: hot-path
    pub fn push(&self, e: &Event) {
        // ordering: the ticket only claims a slot index; the seq stamps
        // below carry all payload visibility, so Relaxed suffices here.
        let t = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(t & self.mask) as usize];
        let tag = e.tag();
        // ordering: odd stamp marks the write in flight before any
        // payload store can be observed.
        slot.seq.store(2 * t + 1, Ordering::Release);
        slot.trace_id.store(e.trace_id, Ordering::Relaxed); // ordering: guarded by seq stamps
        slot.tag.store(tag, Ordering::Relaxed); // ordering: guarded by seq stamps
        slot.start_ns.store(e.start_ns, Ordering::Relaxed); // ordering: guarded by seq stamps
        slot.dur_ns.store(e.dur_ns, Ordering::Relaxed); // ordering: guarded by seq stamps
        slot.value.store(e.value, Ordering::Relaxed); // ordering: guarded by seq stamps
                                                      // ordering: guarded by seq stamps; readers that race us fail the
                                                      // checksum and drop the slot.
        slot.check.store(
            checksum(e.trace_id, tag, e.start_ns, e.dur_ns, e.value),
            Ordering::Relaxed,
        );
        // ordering: even stamp publishes the payload; pairs with the
        // Acquire load at the top of `snapshot`.
        slot.seq.store(2 * t + 2, Ordering::Release);
    }

    /// Best-effort stable snapshot of the ring's current window, in
    /// ticket (publication) order. Slots mid-write or overwritten
    /// between the stamp checks are skipped, never returned torn.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut keyed: Vec<(u64, Event)> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            // ordering: pairs with the even-stamp Release in `push`;
            // everything stored before that stamp is visible below.
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue; // never written, or a write is in flight
            }
            let trace_id = slot.trace_id.load(Ordering::Relaxed); // ordering: validated by s1 == s2 + checksum
            let tag = slot.tag.load(Ordering::Relaxed); // ordering: validated by s1 == s2 + checksum
            let start_ns = slot.start_ns.load(Ordering::Relaxed); // ordering: validated by s1 == s2 + checksum
            let dur_ns = slot.dur_ns.load(Ordering::Relaxed); // ordering: validated by s1 == s2 + checksum
            let value = slot.value.load(Ordering::Relaxed); // ordering: validated by s1 == s2 + checksum
            let check = slot.check.load(Ordering::Relaxed); // ordering: validated by s1 == s2 + checksum
                                                            // ordering: the fence orders the payload loads above before
                                                            // the re-check of seq below (the classic seqlock read).
            fence(Ordering::Acquire);
            // ordering: the fence above already orders this re-check.
            let s2 = slot.seq.load(Ordering::Relaxed);
            if s1 != s2 || check != checksum(trace_id, tag, start_ns, dur_ns, value) {
                continue; // rewritten or mixed while we read; drop it
            }
            let Some((kind, stage)) = Event::untag(tag) else {
                continue;
            };
            keyed.push((
                (s1 - 2) / 2,
                Event {
                    trace_id,
                    kind,
                    stage,
                    start_ns,
                    dur_ns,
                    value,
                },
            ));
        }
        keyed.sort_by_key(|(ticket, _)| *ticket);
        keyed.into_iter().map(|(_, e)| e).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Stage};
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
        let snap = ring.snapshot();
        assert!(!snap.is_empty());
        assert!(snap.len() <= 64);
        for e in snap {
            // Cross-field consistency: all three encodings agree.
            assert_eq!(e.dur_ns, e.trace_id);
            assert_eq!(e.start_ns, e.trace_id * 1_000_000 + e.value);
        }
    }
}
