//! Cholesky factorization of symmetric positive-definite matrices.

// Triangular solves and centroid updates read most clearly with index
// loops; the iterator forms clippy suggests obscure the math.
#![allow(clippy::needless_range_loop)]

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            // Diagonal entry.
            let mut d = a[(j, j)];
            for k in 0..j {
                let v = l[(j, k)];
                d -= v * v;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j, value: d });
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            // Column below the diagonal.
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                // dot of rows i and j of L up to column j
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / dj;
            }
        }
        Ok(Cholesky { l })
    }

    /// Factorizes `a + jitter * I`, retrying with growing jitter until the
    /// factorization succeeds or `max_tries` is exhausted.
    ///
    /// Kernel Gram matrices are PSD but often numerically semi-definite;
    /// a tiny ridge restores definiteness without changing the solution
    /// meaningfully (the KCCA formulation regularizes anyway).
    pub fn with_jitter(a: &Matrix, mut jitter: f64, max_tries: usize) -> Result<Self> {
        match Cholesky::new(a) {
            Ok(c) => return Ok(c),
            Err(_) if max_tries > 0 => {}
            Err(e) => return Err(e),
        }
        let mut work = a.clone();
        for _ in 0..max_tries {
            work = a.clone();
            work.add_diagonal(jitter);
            if let Ok(c) = Cholesky::new(&work) {
                return Ok(c);
            }
            jitter *= 10.0;
        }
        // Final attempt reports the real failure.
        Cholesky::new(&work)
    }

    /// Wraps an already lower-triangular `l` for the substitutions
    /// below, which read nothing above its diagonal.
    pub(crate) fn from_factor(l: Matrix) -> Self {
        Cholesky { l }
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` via forward + back substitution.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let y = self.forward_substitute(b)?;
        self.back_substitute(&y)
    }

    /// Solves `L y = b` (forward substitution).
    pub fn forward_substitute(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "forward_substitute",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut y = vec![0.0; n];
        for i in 0..n {
            let row = self.l.row(i);
            let mut s = b[i];
            for k in 0..i {
                s -= row[k] * y[k];
            }
            y[i] = s / row[i];
        }
        Ok(y)
    }

    /// Solves `Lᵀ x = y` (back substitution).
    pub fn back_substitute(&self, y: &[f64]) -> Result<Vec<f64>> {
        let n = self.l.rows();
        if y.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "back_substitute",
                lhs: (n, n),
                rhs: (y.len(), 1),
            });
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in (i + 1)..n {
                s -= self.l[(k, i)] * x[k];
            }
            x[i] = s / self.l[(i, i)];
        }
        Ok(x)
    }

    /// Solves `L Y = B` row by row (forward substitution on a matrix):
    /// row `i` of `Y` is row `i` of `B` less `L[i][k]` times each earlier
    /// row `k`, in ascending `k`, over `L[i][i]` — every entry the chain
    /// [`Cholesky::forward_substitute`] runs down its column.
    ///
    /// This is the workhorse of the reduced KCCA eigensolve: forming
    /// `Lx⁻¹ Cxy` and `(Ly⁻¹ (Lx⁻¹ Cxy)ᵀ)ᵀ` without ever inverting.
    pub fn forward_substitute_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.l.rows();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "forward_substitute_matrix",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let cols = b.cols();
        let mut out = b.clone();
        for i in 0..n {
            let l = self.l.row(i);
            let (solved, rest) = out.as_mut_slice().split_at_mut(i * cols);
            let row = &mut rest[..cols];
            for (k, earlier) in solved.chunks_exact(cols.max(1)).enumerate() {
                crate::vector::axpy(-l[k], earlier, row);
            }
            for v in row.iter_mut() {
                *v /= l[i];
            }
        }
        Ok(out)
    }

    /// Solves `Lᵀ X = Y` column-wise (back substitution on a matrix).
    pub fn back_substitute_matrix(&self, y: &Matrix) -> Result<Matrix> {
        let n = self.l.rows();
        if y.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "back_substitute_matrix",
                lhs: (n, n),
                rhs: y.shape(),
            });
        }
        let mut out = Matrix::zeros(n, y.cols());
        for j in 0..y.cols() {
            let col = y.col(j);
            let x = self.back_substitute(&col)?;
            for i in 0..n {
                out[(i, j)] = x[i];
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = Bᵀ B + I for a random-ish B is SPD; use a fixed instance.
        Matrix::from_vec(3, 3, vec![4., 2., 0.6, 2., 5., 1., 0.6, 1., 3.]).unwrap()
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let l = c.l();
        let rec = l.matmul(&l.transpose()).unwrap();
        assert!(rec.sub(&a).unwrap().max_abs() < 1e-10);
    }

    #[test]
    fn solve_matches_direct() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x = c.solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (got, want) in ax.iter().zip(b.iter()) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 2., 1.]).unwrap();
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn jitter_rescues_semidefinite() {
        // Rank-1 PSD matrix: plain Cholesky fails, jittered succeeds.
        let a = Matrix::from_vec(2, 2, vec![1., 1., 1., 1.]).unwrap();
        assert!(Cholesky::new(&a).is_err());
        let c = Cholesky::with_jitter(&a, 1e-10, 12).unwrap();
        assert!(c.l()[(0, 0)] > 0.0);
    }

    #[test]
    fn matrix_substitution_matches_vector_solves() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let b = Matrix::from_vec(3, 2, vec![1., 4., 2., 5., 3., 6.]).unwrap();
        let fwd = c.forward_substitute_matrix(&b).unwrap();
        let back = c.back_substitute_matrix(&fwd).unwrap();
        for j in 0..2 {
            let col = b.col(j);
            let y = c.forward_substitute(&col).unwrap();
            let x = c.back_substitute(&y).unwrap();
            for i in 0..3 {
                assert_eq!(fwd[(i, j)].to_bits(), y[i].to_bits());
                assert_eq!(back[(i, j)].to_bits(), x[i].to_bits());
            }
        }
        // L Y = B and Lᵀ X = Y compose to A X = B.
        let ax = a.matmul(&back).unwrap();
        assert!(ax.sub(&b).unwrap().max_abs() < 1e-10);
    }
}
