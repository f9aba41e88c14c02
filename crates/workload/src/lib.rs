//! TPC-DS-shaped workload generation for the ICDE 2009 reproduction.
//!
//! The paper trains on queries generated from TPC-DS templates at scale
//! factor 1 plus hand-written "problem" templates modeled on customer
//! queries that ran four-plus hours. We reproduce the *shape* of that
//! workload: a star-schema catalog with TPC-DS table names and row
//! counts, ~30 parameterized templates whose instantiations span
//! milliseconds to hours of simulated runtime, and a second, differently
//! shaped "customer" schema used by the paper's Experiment 4.
//!
//! Key property preserved from the paper (§IV-B and Fig. 8): *the same
//! template with different constants yields wildly different runtimes*.
//! Templates fix the SQL shape — join structure, predicate counts —
//! while the drawn constants fix selectivities, which are what actually
//! drive cost. SQL-text features are therefore nearly useless for
//! prediction, exactly as the paper found.

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

pub mod customer;
pub mod features;
pub mod generator;
pub mod schema;
pub mod spec;
pub mod sql;
pub mod templates;
pub mod world;

pub use features::SqlTextFeatures;
pub use generator::WorkloadGenerator;
pub use schema::{Column, Schema, Table};
pub use spec::{JoinSpec, PredOp, PredicateSpec, QuerySpec, SubquerySpec};
pub use templates::{Template, TemplateClass};
