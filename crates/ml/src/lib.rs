//! Statistical machine learning for query performance prediction.
//!
//! Implements the full ladder of techniques the paper evaluates (§V):
//!
//! * per-metric linear least squares, the baseline that fails (negative
//!   elapsed times, Figs. 3–4), is [`qpp_linalg::LeastSquares`] itself;
//! * [`kmeans`] — partition clustering, considered and rejected (§V-B)
//!   because it cannot relate *two* multivariate datasets;
//! * [`cca`] — linear canonical correlation analysis (§V-D);
//! * [`kcca`] — kernel CCA with Gaussian kernels (§V-E, §VI), the
//!   technique the paper adopts, implemented with pivoted incomplete
//!   Cholesky (Bach & Jordan) so training scales past the exact-solve
//!   regime;
//! * [`knn`] — nearest-neighbor lookup in projection space with the
//!   distance metrics and weighting schemes of Tables I–III;
//! * [`ann`] — sub-linear neighbor lookup: a deterministic IVF index
//!   (k-means inverted lists) with a size-triggered brute/IVF switch,
//!   for reference sets far past paper scale;
//! * [`metrics`] — the predictive-risk score used throughout §VI–VII.

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

pub mod ann;
pub mod cca;
pub mod kcca;
pub mod kernel;
pub mod kmeans;
pub mod knn;
pub mod metrics;

pub use ann::{AnnIndex, AnnOptions, IvfIndex, IvfOptions};
pub use cca::{Cca, CcaOptions};
pub use kcca::{Kcca, KccaOptions, ProjectionScratch};
pub use kernel::GaussianKernel;
pub use kmeans::{KMeans, KMeansError};
pub use knn::{
    DistanceMetric, KnnError, KnnScratch, NearestNeighbors, Neighbor, NeighborWeighting,
};
pub use metrics::{fraction_within, predictive_risk};
