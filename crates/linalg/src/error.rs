//! Error type shared by all factorizations and solvers.

use std::fmt;

/// Errors produced by the linear-algebra routines.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Dimensions of the left operand.
        lhs: (usize, usize),
        /// Dimensions of the right operand.
        rhs: (usize, usize),
    },
    /// The matrix must be square for this operation.
    NotSquare {
        /// Number of rows observed.
        rows: usize,
        /// Number of columns observed.
        cols: usize,
    },
    /// A pivot collapsed to (or below) zero: the matrix is not positive
    /// definite / is rank deficient beyond what the algorithm tolerates.
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
        /// Value of the failing pivot.
        value: f64,
    },
    /// An iterative algorithm failed to converge within its budget.
    NoConvergence {
        /// Algorithm name.
        algorithm: &'static str,
        /// Iterations performed before giving up.
        iterations: usize,
        /// Residual achieved when the budget ran out.
        residual: f64,
        /// Residual the algorithm was required to reach.
        tolerance: f64,
    },
    /// A NaN or infinity surfaced where a finite value is required.
    NonFinite {
        /// Operation that observed the non-finite value.
        op: &'static str,
    },
    /// A value violated its bound: a computed quantity beyond numerical
    /// slack (e.g. a canonical correlation far above 1), or an option a
    /// fit cannot use (`what` names it and its valid range).
    OutOfRange {
        /// Quantity or option that went out of range.
        what: &'static str,
        /// Offending value.
        value: f64,
        /// Bound on a quantity's absolute value, or an option's floor.
        bound: f64,
    },
    /// The input was empty where data is required.
    Empty(&'static str),
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}x{cols}")
            }
            LinalgError::NotPositiveDefinite { pivot, value } => write!(
                f,
                "matrix is not positive definite: pivot {pivot} = {value:e}"
            ),
            LinalgError::NoConvergence {
                algorithm,
                iterations,
                residual,
                tolerance,
            } => write!(
                f,
                "{algorithm} failed to converge after {iterations} iterations \
                 (residual {residual:e} > tolerance {tolerance:e})"
            ),
            LinalgError::NonFinite { op } => {
                write!(f, "non-finite value encountered in {op}")
            }
            LinalgError::OutOfRange { what, value, bound } => {
                write!(f, "{what} out of range: {value} violates bound {bound}")
            }
            LinalgError::Empty(what) => write!(f, "empty input: {what}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
