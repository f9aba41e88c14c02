//! qpp-obs: structured tracing and metrics for the whole workspace.
//!
//! The crate sits below every other `qpp-*` crate (it depends on
//! nothing) and provides three things:
//!
//! * an **event log** — a fixed-capacity window of fixed-size
//!   [`Event`]s with monotonic span timing, and exact per-stage totals,
//!   behind one mutex ([`ring::EventRing`]);
//! * **metrics** — lock-free [`Counter`]s ([`metrics`]);
//! * a **trace context** — a thread-local current trace ID so spans
//!   recorded anywhere down the call stack (admission → queue → worker
//!   → `predict`) tag themselves to the request that caused them,
//!   without threading an ID through every API.
//!
//! Two design rules shape everything here:
//!
//! 1. **Recording never allocates.** Events are `Copy`, the ring is
//!    pre-sized, counters are single atomic words. The call the serve
//!    worker makes per request, `KccaPredictor::predict`, measures 0
//!    allocations with observability enabled
//!    (`tests/alloc_regression.rs`), and recording must keep it there.
//! 2. **Wall-clock reads live here and in the serving edge, never in
//!    model code.** `qpp-core`/`qpp-ml`/`qpp-linalg` are bitwise
//!    deterministic; they call [`span`]/[`record_mark`], and the
//!    `Instant` reads happen inside this crate (the model crates'
//!    `clippy.toml` disallows the clock types outright).
//!
//! Timestamps are monotonic nanoseconds since the recorder's epoch (its
//! construction instant) — durable across the process, meaningless
//! across processes, which is all tracing needs.

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

pub mod event;
pub mod metrics;
pub mod ring;

pub use event::{to_jsonl, Event, EventKind, Stage};
pub use metrics::Counter;
pub use ring::EventRing;

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Central recorder: the event ring, its clock and the trace-ID source.
///
/// The ring holds a sliding window of recent events (for trace export)
/// and, beside it, exact per-stage totals that never wrap, so per-stage
/// summaries (bench breakdowns) don't depend on ring capacity. Counts of
/// answers are the serving layer's (`qpp-serve`'s `ServiceStats`), not
/// the recorder's.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    ring: EventRing,
    next_trace: AtomicU64,
}

impl Recorder {
    /// A recorder whose ring holds `capacity` events.
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            ring: EventRing::new(capacity),
            next_trace: AtomicU64::new(0),
        }
    }

    /// Monotonic nanoseconds since this recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Fresh trace ID; starts at 1 so 0 can mean "untraced".
    pub fn next_trace_id(&self) -> u64 {
        // ordering: IDs only need uniqueness, not ordering with events.
        self.next_trace.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Records a completed span (the ring folds it into the per-stage
    /// totals).
    pub fn record_span(&self, trace_id: u64, stage: Stage, start_ns: u64, dur_ns: u64, value: u64) {
        self.ring.push(&Event {
            trace_id,
            kind: EventKind::Span,
            stage,
            start_ns,
            dur_ns,
            value,
        });
    }

    /// Records an instantaneous marker (counted in `hits`, adds no
    /// duration).
    pub fn record_mark(&self, trace_id: u64, stage: Stage, value: u64) {
        self.ring.push(&Event {
            trace_id,
            kind: EventKind::Mark,
            stage,
            start_ns: self.now_ns(),
            dur_ns: 0,
            value,
        });
    }

    /// Total events ever recorded (monotonic, exceeds ring capacity
    /// once wrapped).
    pub fn events_recorded(&self) -> u64 {
        self.ring.recorded()
    }

    /// Snapshot of the ring's current event window, publication order.
    pub fn export(&self) -> Vec<Event> {
        self.ring.snapshot()
    }

    /// The window's events belonging to one trace.
    pub fn export_trace(&self, trace_id: u64) -> Vec<Event> {
        let mut events = self.ring.snapshot();
        events.retain(|e| e.trace_id == trace_id);
        events
    }

    /// Exact per-stage totals (hits and summed span nanoseconds) for
    /// every stage that recorded at least one event.
    pub fn stage_summary(&self) -> Vec<StageSummary> {
        let (hits, total_ns) = self.ring.stage_totals();
        Stage::ALL
            .into_iter()
            .filter(|stage| hits[stage.index()] > 0)
            .map(|stage| StageSummary {
                stage,
                hits: hits[stage.index()],
                total_ns: total_ns[stage.index()],
            })
            .collect()
    }
}

/// Exact totals for one instrumented stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSummary {
    /// Which stage.
    pub stage: Stage,
    /// Spans + marks recorded.
    pub hits: u64,
    /// Summed span duration, nanoseconds (marks contribute 0).
    pub total_ns: u64,
}

impl StageSummary {
    /// Mean span duration in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.hits == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.hits as f64 / 1e3
        }
    }
}

/// Global recorder ring capacity: 32k events ≈ several thousand recent
/// requests' worth of spans, a few MiB of slots.
const GLOBAL_RING_CAPACITY: usize = 1 << 15;

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// The process-wide recorder. First call allocates the ring; every
/// later call is a plain atomic load, so hot paths may call this
/// freely once anything (model training, a warm-up request) has
/// touched it.
pub fn recorder() -> &'static Recorder {
    GLOBAL.get_or_init(init_recorder)
}

fn init_recorder() -> Recorder {
    Recorder::with_capacity(GLOBAL_RING_CAPACITY)
}

thread_local! {
    /// The trace this thread is currently working for; 0 = untraced.
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
}

/// Sets this thread's current trace ID (0 clears it). Prefer
/// [`with_trace`], which restores the previous value.
pub fn set_current_trace(trace_id: u64) {
    CURRENT_TRACE.with(|c| c.set(trace_id));
}

/// This thread's current trace ID (0 when untraced).
pub fn current_trace() -> u64 {
    CURRENT_TRACE.with(|c| c.get())
}

/// Runs `f` with `trace_id` as this thread's current trace, restoring
/// the previous trace afterwards — including on unwind, so a panicking
/// prediction can't leak its trace ID onto the worker's next request.
pub fn with_trace<R>(trace_id: u64, f: impl FnOnce() -> R) -> R {
    struct Restore(u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_current_trace(self.0);
        }
    }
    let _restore = Restore(current_trace());
    set_current_trace(trace_id);
    f()
}

/// An in-flight span. Records itself (under the thread's current trace
/// at drop time) when dropped; timing uses the global recorder's
/// monotonic epoch.
#[derive(Debug)]
pub struct SpanGuard {
    stage: Stage,
    start_ns: u64,
    value: u64,
}

impl SpanGuard {
    /// Sets the span's free-form payload (batch size, queue depth, …).
    pub fn set_value(&mut self, value: u64) {
        self.value = value;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let r = recorder();
        let end = r.now_ns();
        r.record_span(
            current_trace(),
            self.stage,
            self.start_ns,
            end.saturating_sub(self.start_ns),
            self.value,
        );
    }
}

/// Starts a span for `stage`, ending (and recording) when the returned
/// guard drops.
pub fn span(stage: Stage) -> SpanGuard {
    SpanGuard {
        stage,
        start_ns: recorder().now_ns(),
        value: 0,
    }
}

/// Records a completed span on the global recorder under the thread's
/// current trace (explicit-interval form, for when the guard shape
/// doesn't fit).
pub fn record_span(stage: Stage, start_ns: u64, dur_ns: u64, value: u64) {
    recorder().record_span(current_trace(), stage, start_ns, dur_ns, value);
}

/// Records an instantaneous marker on the global recorder under the
/// thread's current trace.
pub fn record_mark(stage: Stage, value: u64) {
    recorder().record_mark(current_trace(), stage, value);
}

/// Monotonic nanoseconds since the global recorder's epoch.
pub fn now_ns() -> u64 {
    recorder().now_ns()
}

/// Fresh globally-unique (per process) trace ID; never 0.
pub fn next_trace_id() -> u64 {
    recorder().next_trace_id()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_start_at_one_and_are_unique() {
        let r = Recorder::with_capacity(8);
        assert_eq!(r.next_trace_id(), 1);
        assert_eq!(r.next_trace_id(), 2);
        // Global IDs are unique too (other tests may be consuming them
        // concurrently, so only check distinctness/nonzero).
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn with_trace_nests_and_restores() {
        assert_eq!(current_trace(), 0);
        let inner = with_trace(7, || {
            assert_eq!(current_trace(), 7);
            with_trace(9, || {
                assert_eq!(current_trace(), 9);
            });
            current_trace()
        });
        assert_eq!(inner, 7);
        assert_eq!(current_trace(), 0);
    }

    #[test]
    fn with_trace_restores_on_unwind() {
        let caught = std::panic::catch_unwind(|| {
            with_trace(42, || {
                panic!("boom");
            })
        });
        assert!(caught.is_err());
        assert_eq!(current_trace(), 0, "trace leaked past a panic");
    }

    #[test]
    fn span_guard_records_under_current_trace() {
        let trace = next_trace_id();
        with_trace(trace, || {
            let mut s = span(Stage::PredictKnn);
            s.set_value(5);
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let events = recorder().export_trace(trace);
        assert_eq!(events.len(), 1);
        let e = events[0];
        assert_eq!(e.kind, EventKind::Span);
        assert_eq!(e.stage, Stage::PredictKnn);
        assert_eq!(e.value, 5);
        assert!(
            e.dur_ns >= 1_000_000,
            "slept 1 ms, recorded {} ns",
            e.dur_ns
        );
    }

    #[test]
    fn marks_count_hits_without_duration() {
        let r = Recorder::with_capacity(8);
        r.record_mark(0, Stage::ModelSwap, 3);
        r.record_mark(0, Stage::ModelSwap, 4);
        let summary = r.stage_summary();
        assert_eq!(summary.len(), 1);
        assert_eq!(summary[0].stage, Stage::ModelSwap);
        assert_eq!(summary[0].hits, 2);
        assert_eq!(summary[0].total_ns, 0);
        let events = r.export();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::Mark);
        assert_eq!(events[1].value, 4);
    }

    #[test]
    fn stage_summary_accumulates_exactly() {
        let r = Recorder::with_capacity(8);
        // More spans than ring capacity: the summary must still be
        // exact while the ring only retains the trailing window.
        for i in 0..100u64 {
            r.record_span(1, Stage::Predict, i, 10, 0);
        }
        r.record_span(1, Stage::QueueWait, 0, 7, 0);
        let summary = r.stage_summary();
        let predict = summary
            .iter()
            .find(|s| s.stage == Stage::Predict)
            .copied()
            .unwrap_or_else(|| panic!("predict stage missing from {summary:?}"));
        assert_eq!(predict.hits, 100);
        assert_eq!(predict.total_ns, 1_000);
        assert!((predict.mean_us() - 0.01).abs() < 1e-12);
        assert!(r.export().len() <= r.events_recorded() as usize);
        assert_eq!(r.events_recorded(), 101);
    }

    #[test]
    fn export_trace_filters_to_one_trace() {
        let r = Recorder::with_capacity(32);
        r.record_span(1, Stage::Worker, 0, 5, 0);
        r.record_span(2, Stage::Worker, 1, 5, 0);
        r.record_span(1, Stage::Predict, 2, 5, 0);
        let t1 = r.export_trace(1);
        assert_eq!(t1.len(), 2);
        assert!(t1.iter().all(|e| e.trace_id == 1));
        assert_eq!(t1[0].stage, Stage::Worker);
        assert_eq!(t1[1].stage, Stage::Predict);
    }

    #[test]
    fn concurrent_span_recording_stays_consistent() {
        let r = std::sync::Arc::new(Recorder::with_capacity(1 << 12));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        r.record_span(t + 1, Stage::Predict, i, 3, t);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap_or_else(|_| panic!("recorder thread"));
        }
        assert_eq!(r.events_recorded(), 2_000);
        let summary = r.stage_summary();
        assert_eq!(summary.len(), 1);
        assert_eq!(summary[0].hits, 2_000);
        assert_eq!(summary[0].total_ns, 6_000);
        for t in 1..=4 {
            assert_eq!(r.export_trace(t).len(), 500);
        }
    }
}
