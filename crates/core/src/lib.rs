//! Query performance prediction with KCCA — the system of
//! *Predicting Multiple Metrics for Queries* (ICDE 2009).
//!
//! Given only compile-time information (the optimizer's query plan),
//! predict all six performance metrics of a query — elapsed time, disk
//! I/Os, message count, message bytes, records accessed, records used —
//! by projecting its plan-feature vector into a KCCA-correlated space
//! and averaging the measured metrics of its nearest training
//! neighbors.
//!
//! The crate provides:
//!
//! * [`features`] — the paper's two candidate query feature vectors
//!   (query-plan, Fig. 9; SQL-text, §VI-D.1) and the performance vector;
//! * [`dataset`] — running workloads through the simulated engine to
//!   collect `(plan, metrics)` training records, in parallel;
//! * [`categories`] — feather / golf-ball / bowling-ball query classes
//!   and pool construction (Fig. 2);
//! * [`predictor`] — the one-model KCCA predictor (train → project →
//!   k-NN → average; Figs. 5 and 7) with prediction confidence;
//! * [`two_step`] — the two-step variant with per-category models
//!   (Experiment 3);
//! * [`baselines`] — linear regression (Figs. 3–4) and the
//!   optimizer-cost line of best fit (Fig. 17);
//! * [`feature_importance`] — which plan features the model keys on
//!   (§VII-C.2);
//! * [`workload_mgmt`] — the decisions the paper motivates: admission
//!   control and kill timeouts;
//! * [`model_io`] — a trained model to and from a versioned,
//!   checksummed JSON envelope (the "vendor ships models to customers"
//!   flow of Fig. 1);
//! * [`retrain`] — sliding-window retraining (the paper's future-work
//!   §VII-C.4).
//!
//! All public fallible APIs return [`error::QppError`], the unified
//! error of the predict path; see [`error`] for the hierarchy.

#![forbid(unsafe_code)]
// The predict path must degrade into typed errors, never panics.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::iter_over_hash_type
    )
)]

pub mod baselines;
pub mod categories;
pub mod dataset;
pub mod error;
pub mod feature_importance;
pub mod features;
pub mod model_io;
pub mod pipeline;
pub mod predictor;
pub mod retrain;
pub mod two_step;
pub mod workload_mgmt;

pub use categories::QueryCategory;
pub use dataset::{Dataset, QueryRecord};
pub use error::{QppError, QppResult, ResultExt};
pub use features::{FeatureKind, PlanFeatures};
pub use predictor::{KccaPredictor, NeighborIds, Prediction, PredictorOptions};
pub use two_step::TwoStepPredictor;
