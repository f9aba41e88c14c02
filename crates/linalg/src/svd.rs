//! Truncated SVD by one direct symmetric eigensolve.
//!
//! The reduced KCCA eigensolve needs the top `components` (8–16)
//! singular triplets of `M = Lx⁻¹ Cxy Ly⁻ᵀ`, which is at most
//! `max_rank x max_rank` (256 x 256) at every caller — a size at which a
//! direct method is the fastest there is and the only kind whose cost
//! does not depend on the spectrum. So: `G = MᵀM` on the narrow side
//! ([`Matrix::gram`]), `G = V Λ Vᵀ` by [`tridiagonal_ql`], then
//! `σⱼ = √λⱼ`, `vⱼ` the top columns of `V` and `uⱼ = M vⱼ / σⱼ`.
//!
//! **Squaring.** Eigenvalues of `G` carry an absolute error of a few
//! `ε·λ₁` (Weyl), so `σⱼ` is resolved to `ε·σ₁²/σⱼ`: full precision for
//! the values the fit keeps — canonical correlations live in `[0, 1]`
//! and the kept ones sit near 1 — and nothing below `√ε·σ₁`.
//!
//! **Determinism.** Each element of [`Matrix::gram`] is one serial sum
//! owned by one output-row block, and the eigensolve is serial, so the
//! triplets are bitwise identical at any thread count. Signs are pinned:
//! the largest-magnitude entry of each right vector is made positive
//! (earliest index on ties).

use crate::eigen::tridiagonal_ql;
use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// The top-`k` singular triplets of a dense matrix.
#[derive(Debug, Clone)]
pub struct TruncatedSvd {
    /// Singular values, descending (length `k`).
    pub singular_values: Vec<f64>,
    /// Left singular vectors as columns (`p x k`). A numerically zero
    /// singular value is reported as exactly zero and its column here
    /// is zero too (the left direction is then undefined).
    pub u: Matrix,
    /// Right singular vectors as columns (`q x k`).
    pub v: Matrix,
}

/// Computes the top-`k` singular triplets `M ≈ U Σ Vᵀ` of `m` (`p x q`)
/// from the eigendecomposition of its narrow-side Gram matrix.
///
/// `k` is capped at `min(p, q)`. Fails with [`LinalgError::NonFinite`]
/// if the input contains NaN or infinity, and with
/// [`LinalgError::NoConvergence`] if the eigensolve's sweep guard trips.
pub fn truncated_svd(m: &Matrix, k: usize) -> Result<TruncatedSvd> {
    let (p, q) = m.shape();
    if p == 0 || q == 0 || k == 0 {
        return Err(LinalgError::Empty("truncated svd"));
    }
    if !m.is_finite() {
        return Err(LinalgError::NonFinite {
            op: "truncated svd",
        });
    }
    // Square the narrow side: a wide matrix is handled by factoring the
    // transpose and swapping U and V.
    if q > p {
        let t = truncated_svd(&m.transpose(), k)?;
        return Ok(TruncatedSvd {
            singular_values: t.singular_values,
            u: t.v,
            v: t.u,
        });
    }
    let k = k.min(q);
    let (lambda, vectors) = tridiagonal_ql(&m.gram())?;
    // Below this an eigenvalue of the Gram matrix is rounding noise (the
    // solve resolves them to a few ε·λ₁; the worst seen at order 256 is
    // 7.5e-16·λ₁): the singular value is reported as exactly zero and its
    // left vector pinned there too.
    let floor = lambda[0].max(0.0) * 1e-14;
    let mut singular_values = Vec::with_capacity(k);
    let mut u = Matrix::zeros(p, k);
    let mut v = Matrix::zeros(q, k);
    for j in 0..k {
        let sigma = if lambda[j] > floor {
            lambda[j].sqrt()
        } else {
            0.0
        };
        singular_values.push(sigma);
        let vj = vectors.col(j);
        // Deterministic sign: the largest-magnitude entry of the right
        // vector is made positive; ties resolve to the earliest index.
        let mut pivot = 0;
        for (i, x) in vj.iter().enumerate() {
            if x.abs() > vj[pivot].abs() {
                pivot = i;
            }
        }
        let flip = if vj[pivot] < 0.0 { -1.0 } else { 1.0 };
        for (i, x) in vj.iter().enumerate() {
            v[(i, j)] = flip * x;
        }
        if sigma > 0.0 {
            for (i, x) in m.matvec(&vj)?.iter().enumerate() {
                u[(i, j)] = flip * (x / sigma);
            }
        }
    }
    Ok(TruncatedSvd {
        singular_values,
        u,
        v,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        crate::vector::max_iter(0.0, a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()))
    }

    #[test]
    fn diagonal_matrix_singular_values() {
        let mut m = Matrix::zeros(4, 3);
        m[(0, 0)] = 3.0;
        m[(1, 1)] = 5.0;
        m[(2, 2)] = 1.0;
        let svd = truncated_svd(&m, 2).unwrap();
        assert!((svd.singular_values[0] - 5.0).abs() < 1e-10);
        assert!((svd.singular_values[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn matches_full_eigendecomposition_of_gram() {
        let m = Matrix::from_vec(
            4,
            3,
            vec![1., 2., 0.5, -1., 0.3, 2., 0.7, -0.2, 1.1, 2.2, 0.4, -0.9],
        )
        .unwrap();
        let svd = truncated_svd(&m, 3).unwrap();
        let eig = crate::eigen::SymmetricEigen::new(&m.gram()).unwrap();
        for (s, l) in svd.singular_values.iter().zip(eig.values.iter()) {
            assert!((s * s - l).abs() < 1e-9, "σ²={} vs λ={}", s * s, l);
        }
    }

    #[test]
    fn triplets_satisfy_m_v_eq_sigma_u() {
        let m = Matrix::from_vec(
            5,
            4,
            vec![
                2., 0.1, 0.3, 1., 0.5, 1.5, -0.2, 0.8, 0.9, -1.1, 2.2, 0.4, 1.3, 0.6, -0.7, 1.8,
                0.2, 2.4, 1.0, -0.5,
            ],
        )
        .unwrap();
        let svd = truncated_svd(&m, 3).unwrap();
        for j in 0..3 {
            let vj = svd.v.col(j);
            let uj = svd.u.col(j);
            let mv = m.matvec(&vj).unwrap();
            let want: Vec<f64> = uj.iter().map(|x| x * svd.singular_values[j]).collect();
            assert!(max_abs_diff(&mv, &want) < 1e-8, "M v = σ u violated at {j}");
        }
        // Orthonormality of both factors.
        let utu = svd.u.transpose().matmul(&svd.u).unwrap();
        let vtv = svd.v.transpose().matmul(&svd.v).unwrap();
        assert!(utu.sub(&Matrix::identity(3)).unwrap().max_abs() < 1e-8);
        assert!(vtv.sub(&Matrix::identity(3)).unwrap().max_abs() < 1e-8);
    }

    #[test]
    fn wide_matrix_via_transpose() {
        let m = Matrix::from_vec(2, 4, vec![1., 0., 2., 0.5, 0., 3., -1., 0.2]).unwrap();
        let svd = truncated_svd(&m, 2).unwrap();
        assert_eq!(svd.u.shape(), (2, 2));
        assert_eq!(svd.v.shape(), (4, 2));
        let eig = crate::eigen::SymmetricEigen::new(&m.transpose().gram()).unwrap();
        for (s, l) in svd.singular_values.iter().zip(eig.values.iter()) {
            assert!((s * s - l).abs() < 1e-9);
        }
    }

    #[test]
    fn rank_deficient_input_reports_zero_sigma() {
        // Rank-1 matrix: the second singular value is below what the
        // squared solve resolves, so it and its left vector are exactly 0.
        let m = Matrix::from_fn(4, 3, |i, j| (i + 1) as f64 * (j + 1) as f64);
        let svd = truncated_svd(&m, 2).unwrap();
        assert!(svd.singular_values[0] > 1.0);
        assert_eq!(svd.singular_values[1], 0.0);
        assert!(svd.u.col(1).iter().all(|&x| x == 0.0));
        assert!(svd.v.col(1).iter().all(|x| x.is_finite()));
    }

    #[test]
    fn sign_convention_is_fixed() {
        let m = Matrix::from_vec(3, 2, vec![2., 0.4, 0.1, 1.5, -0.3, 0.9]).unwrap();
        let a = truncated_svd(&m, 2).unwrap();
        let b = truncated_svd(&m, 2).unwrap();
        for j in 0..2 {
            let vj = a.v.col(j);
            let mut pivot = 0;
            for (i, x) in vj.iter().enumerate() {
                if x.abs() > vj[pivot].abs() {
                    pivot = i;
                }
            }
            assert!(vj[pivot] >= 0.0, "pivot entry must be non-negative");
            assert_eq!(a.v.col(j), b.v.col(j));
            assert_eq!(a.u.col(j), b.u.col(j));
        }
    }

    #[test]
    fn rejects_empty_and_non_finite() {
        assert!(truncated_svd(&Matrix::zeros(0, 3), 1).is_err());
        assert!(truncated_svd(&Matrix::zeros(3, 3), 0).is_err());
        let mut m = Matrix::zeros(2, 2);
        m[(0, 1)] = f64::NAN;
        assert!(matches!(
            truncated_svd(&m, 1),
            Err(LinalgError::NonFinite { .. })
        ));
    }
}
