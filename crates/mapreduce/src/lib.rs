//! MapReduce job performance prediction — the paper's §VIII vision.
//!
//! "Our long-term vision is to use domain-specific models, like the one
//! we built for database queries, to answer what-if questions about
//! workload performance on a variety of complex systems. Only the
//! feature vectors need to be customized for each system. We are
//! currently adapting our methodology to predict the performance of
//! map-reduce jobs in various hardware and software environments."
//!
//! This crate demonstrates exactly that: a small simulated MapReduce
//! cluster plus a job feature vector, reusing the *same* KCCA machinery
//! from [`qpp_ml`] untouched. The prediction targets are the MapReduce
//! analogue of the paper's six metrics: elapsed time, map output
//! records, shuffle bytes, reduce input records, HDFS bytes read, and
//! spilled records.

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

pub mod cluster;
pub mod job;
pub mod predictor;

pub use cluster::ClusterConfig;
pub use job::{JobOutcome, JobSpec, JobTemplate};
pub use predictor::{JobPrediction, JobPredictor};
