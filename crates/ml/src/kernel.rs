//! Gaussian kernels with the paper's scale heuristic.

use qpp_linalg::MatrixView;
use serde::{Deserialize, Serialize};

/// The smallest scale [`GaussianKernel::fit`] returns.
pub(crate) const MIN_TAU: f64 = 1e-6;

/// Gaussian (RBF) kernel `k(x, y) = exp(-||x - y||² / τ)`.
///
/// The paper sets the scale `τ` to "a fixed fraction of the empirical
/// variance of the norms of the data points" (§VI-A): 0.1 for query
/// vectors and 0.2 for performance vectors. [`GaussianKernel::fit`]
/// implements that heuristic; `τ` can also be set directly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaussianKernel {
    /// The scale factor τ (denominator of the squared distance).
    pub tau: f64,
}

impl GaussianKernel {
    /// Kernel with an explicit scale.
    pub fn new(tau: f64) -> Self {
        assert!(tau > 0.0 && tau.is_finite(), "tau must be positive");
        GaussianKernel { tau }
    }

    /// Scale heuristic in the spirit of the paper's "fixed fraction of
    /// the empirical variance of the norms of the data points" (§VI-A).
    ///
    /// The paper kernelized *raw* cardinality vectors, whose norm
    /// variance is on the same scale as pairwise squared distances, so
    /// a fixed fraction of it makes a usable τ. Our feature vectors are
    /// log-transformed and standardized (necessary for the simulator's
    /// value ranges), which collapses the norm variance to O(1) while
    /// pairwise squared distances stay O(dims) — a τ of a fraction of
    /// the norm variance would make the kernel matrix numerically the
    /// identity. We therefore anchor τ to the *mean pairwise squared
    /// distance* (same intent: a data-driven scale, one knob), so
    /// `fraction = 1.0` puts the average pair at `k = e⁻¹`.
    pub fn fit(data: MatrixView<'_>, fraction: f64) -> Self {
        let tau = (fraction * mean_squared_distance(data)).max(MIN_TAU);
        GaussianKernel { tau }
    }

    /// Evaluates `k(a, b)`.
    #[inline]
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.at_sq_dist(qpp_linalg::vector::sq_dist(a, b))
    }

    /// The kernel at squared distance `sq_dist`: `eval` of any pair that
    /// far apart.
    #[inline]
    pub fn at_sq_dist(&self, sq_dist: f64) -> f64 {
        (-sq_dist / self.tau).exp()
    }
}

/// Mean pairwise squared Euclidean distance over (a deterministic
/// subsample of) the rows of `data`.
fn mean_squared_distance(data: MatrixView<'_>) -> f64 {
    let n = data.rows();
    if n < 2 {
        return 1.0;
    }
    // Cap the O(n²) scan: stride-subsample to ~256 rows.
    let max_rows = 256;
    let stride = n.div_ceil(max_rows);
    let rows: Vec<&[f64]> = (0..n).step_by(stride).map(|i| data.row(i)).collect();
    let m = rows.len();
    if m < 2 {
        return 1.0;
    }
    // Fixed 32-row chunks of the triangular pair sum; partial sums merge
    // in chunk order, so the scale — and everything downstream of it —
    // is bitwise independent of the thread count.
    let parts = qpp_par::parallel_for_chunks(m, 32, |chunk| {
        let mut total = 0.0;
        let mut pairs = 0usize;
        for i in chunk.range.clone() {
            for j in (i + 1)..m {
                total += qpp_linalg::vector::sq_dist(rows[i], rows[j]);
                pairs += 1;
            }
        }
        (total, pairs)
    });
    let mut total = 0.0;
    let mut pairs = 0usize;
    for (t, p) in parts {
        total += t;
        pairs += p;
    }
    (total / pairs as f64).max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpp_linalg::Matrix;

    #[test]
    fn kernel_properties() {
        let k = GaussianKernel::new(2.0);
        // Self-similarity is 1.
        assert_eq!(k.eval(&[1.0, 2.0], &[1.0, 2.0]), 1.0);
        // Symmetry.
        let a = [0.0, 1.0];
        let b = [3.0, -1.0];
        assert_eq!(k.eval(&a, &b), k.eval(&b, &a));
        // Bounded in (0, 1].
        let v = k.eval(&a, &b);
        assert!(v > 0.0 && v <= 1.0);
        // Monotone decreasing in distance.
        assert!(k.eval(&[0.0], &[1.0]) > k.eval(&[0.0], &[2.0]));
    }

    #[test]
    fn fit_anchors_tau_to_mean_squared_distance() {
        // Two rows at squared distance 4: mean pairwise d² = 4.
        let data = Matrix::from_vec(2, 2, vec![1., 0., 3., 0.]).unwrap();
        let k = GaussianKernel::fit(data.view(), 0.5);
        assert!((k.tau - 2.0).abs() < 1e-12);
        // fraction = 1 ⇒ the average pair evaluates to e⁻¹.
        let k1 = GaussianKernel::fit(data.view(), 1.0);
        assert!((k1.eval(data.row(0), data.row(1)) - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn fit_floors_degenerate_scale() {
        let data = Matrix::from_vec(2, 2, vec![1., 0., 1., 0.]).unwrap(); // identical rows
        let k = GaussianKernel::fit(data.view(), 0.1);
        assert!(k.tau >= 1e-6);
    }

    #[test]
    #[should_panic(expected = "tau must be positive")]
    fn rejects_bad_tau() {
        GaussianKernel::new(0.0);
    }
}
