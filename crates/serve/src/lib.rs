//! qpp-serve: a concurrent online prediction service.
//!
//! The paper trains KCCA models offline and ships them to customer
//! sites; this crate is the *serving side* of that story — the piece
//! that answers "should we run this query?" while the database is live:
//!
//! - [`ModelRegistry`]: versioned models keyed by system configuration
//!   and feature kind in one read-mostly map, hot-swappable (atomic
//!   `Arc` replacement) without stopping the service, loaded through
//!   `qpp_core::model_io`'s versioned, checksummed envelopes.
//! - [`TenantId`] / [`TenantSpec`] / [`TenantTable`]: per-tenant
//!   admission quotas, with a catch-all default tenant. A tenant is a
//!   quota and nothing more: statistics and traces are service-wide.
//! - [`TenantQueue`]: one bounded FIFO — one lock, one condvar —
//!   drained in arrival order whatever the tenant; reject-on-full and
//!   reject-over-quota backpressure.
//! - [`PredictionService`]: a worker pool where every worker blocks on
//!   that queue and answers each micro-batch in arrival order — one
//!   `KccaPredictor::predict` call each, under the request's own trace
//!   ID — composing the prediction with `qpp_core::workload_mgmt`
//!   admission policies (admit with kill-timeout / reject / review).
//! - Deadline fallback: when a request's deadline expires before the
//!   KCCA answer lands, the caller is answered from the O(1)
//!   optimizer-cost baseline instead — bounded latency, graceful
//!   degradation.
//! - [`ServiceStats`]: one set of lock-free service-wide counters,
//!   read into a [`StatsSnapshot`]; every accepted request whose answer
//!   is waited on is exactly one of completed, fallback or failed.
//!   Latency is per answer ([`ServeResponse::latency`]) and per span in
//!   the trace, not aggregated.
//! - Tracing: every request gets a `qpp_obs` trace ID at admission,
//!   carried through the queue, the worker, and the prediction — and
//!   through *rejections*, which record `admission_reject` marks whose
//!   value is the `REJECT_*` reason code. The ID is returned on
//!   [`ServeResponse::trace_id`].
//!
//! Every fallible API returns [`QppError`], the workspace-level error
//! of the predict path (re-exported for embedders).

#![forbid(unsafe_code)]
// Serving must degrade into typed errors, never panics.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::iter_over_hash_type
    )
)]

pub mod queue;
pub mod registry;
pub mod service;
pub mod stats;
pub mod tenant;

pub use qpp_core::{QppError, QppResult};
pub use queue::TenantQueue;
pub use registry::{ModelEntry, ModelKey, ModelRegistry, SwapRace};
pub use service::{
    AnswerSource, CompletionObserver, PendingPrediction, PredictRequest, PredictionService,
    ServeOptions, ServeResponse, REJECT_OVER_QUOTA, REJECT_QUEUE_FULL,
};
pub use stats::{ServiceStats, StatsSnapshot};
pub use tenant::{TenantId, TenantSpec, TenantTable, DEFAULT_TENANT};
