//! qpp-adapt: the continuous-learning control plane.
//!
//! The paper trains KCCA models offline (§VI) and acknowledges the
//! obvious production gap: workloads shift, statistics go stale, and a
//! model trained last month quietly degrades. This crate closes the
//! loop around the serving layer:
//!
//! - [`DriftDetector`]: a Page–Hinkley test per metric stream gated by
//!   a windowed mean-ratio check, fed the six per-metric
//!   [`log_ratio_errors`] of each `(prediction, observed)` pair and
//!   their mean. It is the only reader of live errors: no per-template
//!   or global error sum is kept. Deterministic: decisions depend only
//!   on the error values and caller-supplied epochs, never a clock.
//! - [`AdaptiveController`]: the phase machine wiring it together,
//!   all of its mutable state behind one mutex. It plugs into
//!   `qpp_serve` as a [`qpp_serve::CompletionObserver`]; on drift it
//!   queues a [`RetrainTask`] that trains a candidate on the live
//!   [`qpp_core::retrain::SlidingWindowPredictor`] window,
//!   shadow-scores it against the incumbent on held-out live traffic,
//!   and hot-swaps through the registry's generation-guarded
//!   [`qpp_serve::ModelRegistry::swap_if_current`] only when the
//!   candidate wins by a margin. After a swap it watches live error
//!   and fires the kill-switch
//!   ([`qpp_serve::ModelRegistry::demote_if_current`]) if the canary
//!   made things worse — serving falls back to the optimizer-cost
//!   baseline rather than a bad model, and the loop re-arms on the
//!   first answer from a healthy install. A released task runs when
//!   the caller calls [`AdaptiveController::drain_pending`], on the
//!   caller's thread: the crate starts no thread of its own.
//!
//! Every decision point emits `qpp_obs` events (`drift`, `retrain`,
//! `shadow_score`, `canary_swap`, `kill_switch`), so the whole
//! adaptation episode is reconstructible from the trace ring.

#![forbid(unsafe_code)]
// The control plane must degrade into typed errors, never panics.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::iter_over_hash_type
    )
)]

pub mod controller;
pub mod drift;

pub use controller::{
    AdaptEvent, AdaptOptions, AdaptOutcome, AdaptStats, AdaptiveController, Phase, RetrainTask,
    KILL_WINDOW,
};
pub use drift::{
    log_ratio_errors, mean_error, stream_name, DriftConfig, DriftDetector, DriftSignal, OVERALL,
    STREAMS,
};
