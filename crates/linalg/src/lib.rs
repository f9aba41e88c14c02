//! Dense linear algebra substrate for the `qpp` workspace.
//!
//! The ICDE 2009 reproduction needs a small but complete set of dense
//! routines — none of the heavyweight BLAS/LAPACK bindings are available
//! offline, and the matrices involved (kernel factors of a few hundred
//! columns, 6-wide performance blocks) are comfortably in scratch-math
//! territory. Everything here is pure safe Rust over row-major `f64`
//! storage.
//!
//! Provided:
//!
//! * [`Matrix`] — row-major dense matrix with arithmetic, transpose,
//!   slicing and block helpers.
//! * [`cholesky`] — Cholesky factorization / SPD solves with optional
//!   jitter for nearly-singular Gram matrices.
//! * [`icd`] — pivoted *incomplete* Cholesky over a lazily evaluated Gram
//!   oracle; the scalable KCCA factorization of Bach & Jordan.
//! * [`qr`] — Householder QR and least-squares solves (the linear
//!   regression baseline of the paper's §V-A).
//! * [`eigen`] — symmetric eigendecomposition: tridiagonal QL (the
//!   solver the fit runs) and cyclic Jacobi (the oracle it is held to).
//! * [`geneig`] — generalized symmetric-definite eigenproblem
//!   `A v = λ B v` via Cholesky reduction and Jacobi (paper §VI-A as
//!   written): the dense oracle of the CCA fit, called by no fit.
//! * [`svd`] — top-k singular triplets read off one eigendecomposition
//!   of the narrow-side Gram matrix; the solve behind `Cca::fit`.
//! * [`stats`] — means, variances, standardization helpers.
//! * [`panels`] — [`RowPanels`], rows stored as column-interleaved
//!   16-row panels: the layout of every predict-time scan and of the
//!   incomplete Cholesky factor while it grows.
//! * [`view`] — borrowed zero-copy [`MatrixView`] over contiguous
//!   row-major storage, what `Kcca::fit` and `GaussianKernel::fit`
//!   take; predict passes `&[f64]` slices instead.

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

pub mod cholesky;
pub mod eigen;
pub mod error;
pub mod geneig;
pub mod icd;
pub mod matrix;
pub mod panels;
pub mod qr;
pub mod stats;
pub mod svd;
pub mod vector;
pub mod view;

pub use cholesky::Cholesky;
pub use eigen::SymmetricEigen;
pub use error::{LinalgError, Result};
pub use geneig::GeneralizedEigen;
pub use icd::{IcdOptions, IncompleteCholesky, PivotBlock};
pub use matrix::Matrix;
pub use panels::{RowPanels, PANEL_ROWS};
pub use qr::{LeastSquares, QrDecomposition};
pub use svd::{truncated_svd, TruncatedSvd};
pub use view::MatrixView;
