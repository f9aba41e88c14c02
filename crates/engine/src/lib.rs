//! Simulated shared-nothing parallel database engine.
//!
//! Stand-in for the paper's HP Neoview systems (a 4-processor research
//! machine and a 32-processor production machine). The KCCA methodology
//! never looks inside the engine — it consumes `(query plan, measured
//! metrics)` pairs — so what this simulator must get right is the
//! *statistical texture* of that pairing:
//!
//! * a **heuristic cost-based optimizer** that produces operator trees
//!   with *estimated* cardinalities (from catalog statistics under
//!   uniformity/independence assumptions) and an abstract scalar cost in
//!   non-time units — both available before execution;
//! * an **execution model** that computes *actual* cardinalities from
//!   the workload's ground-truth selectivities/fan-outs and turns them
//!   into the paper's six metrics — elapsed time, disk I/Os, message
//!   count, message bytes, records accessed, records used — on a
//!   configurable processor/memory/disk/network layout;
//! * the behaviours the paper calls out: cardinality-estimation error,
//!   memory cliffs (dimension tables cached, hash joins spilling),
//!   repartitioning message traffic, plans that change with the system
//!   configuration, and run-to-run noise.

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

pub mod catalog;
pub mod config;
pub mod executor;
pub mod metrics;
pub mod optimizer;
pub mod plan;

pub use catalog::Catalog;
pub use config::SystemConfig;
pub use executor::{execute, ExecutionOutcome};
pub use metrics::PerfMetrics;
pub use optimizer::{optimize, OptimizedQuery};
pub use plan::{OpKind, Plan, PlanNode};
