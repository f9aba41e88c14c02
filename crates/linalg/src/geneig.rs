//! Generalized symmetric-definite eigenproblem `A v = λ B v`.
//!
//! This is the computational heart of (K)CCA: the paper's Eq. (2) pairs a
//! symmetric block matrix `A` of cross-kernel products against a
//! block-diagonal, positive-definite `B` of regularized self-products.
//! We reduce to a standard symmetric problem with `B = L Lᵀ`:
//!
//! ```text
//! A v = λ B v   ⇔   (L⁻¹ A L⁻ᵀ) w = λ w,   v = L⁻ᵀ w
//! ```

use crate::cholesky::Cholesky;
use crate::eigen::SymmetricEigen;
use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// Solution of `A v = λ B v` with symmetric `A` and SPD `B`.
///
/// Eigenvalues descend; eigenvectors are the columns of `vectors` and are
/// `B`-orthonormal (`vᵢᵀ B vⱼ = δᵢⱼ`).
#[derive(Debug, Clone)]
pub struct GeneralizedEigen {
    /// Generalized eigenvalues, descending.
    pub values: Vec<f64>,
    /// Generalized eigenvectors as columns.
    pub vectors: Matrix,
}

impl GeneralizedEigen {
    /// Solves the problem for symmetric `a` and symmetric positive-definite
    /// `b`. A small jitter is applied to `b` automatically if its Cholesky
    /// factorization stalls (kernel Gram matrices are routinely
    /// semi-definite in floating point).
    pub fn new(a: &Matrix, b: &Matrix) -> Result<Self> {
        if !a.is_square() || !b.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if a.shape() != b.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "generalized eigen",
                lhs: a.shape(),
                rhs: b.shape(),
            });
        }
        let scale = b.max_abs().max(1e-30);
        let chol = Cholesky::with_jitter(b, 1e-12 * scale, 10)?;

        // C = L⁻¹ A L⁻ᵀ, formed column by column:
        //   first solve L X = A (forward substitution on each column of A),
        //   then C = L⁻¹ (L⁻¹ Aᵀ)ᵀ exploiting symmetry of A.
        let n = a.rows();
        // X = L⁻¹ A  (apply forward substitution to each column of A)
        let mut x = Matrix::zeros(n, n);
        for j in 0..n {
            let col = a.col(j);
            let y = chol.forward_substitute(&col)?;
            for i in 0..n {
                x[(i, j)] = y[i];
            }
        }
        // C = X L⁻ᵀ = (L⁻¹ Xᵀ)ᵀ
        let xt = x.transpose();
        let mut c = Matrix::zeros(n, n);
        for j in 0..n {
            let col = xt.col(j);
            let y = chol.forward_substitute(&col)?;
            for i in 0..n {
                c[(j, i)] = y[i];
            }
        }
        c.symmetrize();

        let eig = SymmetricEigen::new(&c)?;
        // Back-transform: v = L⁻ᵀ w for each eigenvector column.
        let mut vectors = Matrix::zeros(n, n);
        for k in 0..n {
            let w = eig.vectors.col(k);
            let v = chol.back_substitute(&w)?;
            for i in 0..n {
                vectors[(i, k)] = v[i];
            }
        }
        Ok(GeneralizedEigen {
            values: eig.values,
            vectors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_to_standard_when_b_is_identity() {
        let a = Matrix::from_vec(3, 3, vec![2., 1., 0., 1., 3., 1., 0., 1., 4.]).unwrap();
        let g = GeneralizedEigen::new(&a, &Matrix::identity(3)).unwrap();
        let e = SymmetricEigen::new(&a).unwrap();
        for (gv, ev) in g.values.iter().zip(e.values.iter()) {
            assert!((gv - ev).abs() < 1e-9);
        }
    }

    #[test]
    fn satisfies_generalized_equation() {
        let a = Matrix::from_vec(3, 3, vec![1., 2., 0.5, 2., 0., 1., 0.5, 1., -1.]).unwrap();
        let b = Matrix::from_vec(3, 3, vec![4., 1., 0., 1., 3., 0.5, 0., 0.5, 2.]).unwrap();
        let g = GeneralizedEigen::new(&a, &b).unwrap();
        for k in 0..3 {
            let v = g.vectors.col(k);
            let av = a.matvec(&v).unwrap();
            let bv = b.matvec(&v).unwrap();
            for i in 0..3 {
                assert!(
                    (av[i] - g.values[k] * bv[i]).abs() < 1e-8,
                    "residual too large at ({k},{i})"
                );
            }
        }
    }

    #[test]
    fn vectors_b_orthonormal() {
        let a = Matrix::from_vec(2, 2, vec![1., 0.3, 0.3, 2.]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![2., 0.1, 0.1, 1.]).unwrap();
        let g = GeneralizedEigen::new(&a, &b).unwrap();
        let vt_b_v = g
            .vectors
            .transpose()
            .matmul(&b)
            .unwrap()
            .matmul(&g.vectors)
            .unwrap();
        assert!(vt_b_v.sub(&Matrix::identity(2)).unwrap().max_abs() < 1e-8);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Matrix::identity(2);
        let b = Matrix::identity(3);
        assert!(GeneralizedEigen::new(&a, &b).is_err());
    }
}
