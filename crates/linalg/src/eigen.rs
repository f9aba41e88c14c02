//! Symmetric eigendecomposition, twice over.
//!
//! [`tridiagonal_ql`] — Householder tridiagonalisation, then implicit-
//! shift QL — is the solver the CCA fit runs ([`crate::svd`]): direct,
//! O(n³) whatever the spectrum, serial and so bitwise reproducible.
//!
//! [`SymmetricEigen`] — cyclic Jacobi — is an order of magnitude slower
//! and unconditionally robust. No fit calls it: it is the oracle
//! [`tridiagonal_ql`] is property-tested against and the kernel of
//! [`crate::geneig`], the dense oracle of `Cca::fit`, so the two sides
//! of every equivalence test share no eigensolver.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::vector::{axpy, dot, max_iter};

/// Eigendecomposition `A = V diag(λ) Vᵀ` of a symmetric matrix.
///
/// Eigenpairs are sorted by descending eigenvalue; `V`'s columns are the
/// corresponding orthonormal eigenvectors.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Eigenvectors as columns, aligned with `values`.
    pub vectors: Matrix,
    /// Mean off-diagonal magnitude of the rotated matrix at acceptance —
    /// the residual actually achieved, for callers that want to audit
    /// solution quality instead of trusting a boolean.
    pub off_diagonal_residual: f64,
}

impl SymmetricEigen {
    /// Computes the decomposition of a symmetric matrix.
    ///
    /// Only requires approximate symmetry; the matrix is symmetrized
    /// internally. Fails with [`LinalgError::NoConvergence`] if the
    /// off-diagonal mass does not vanish within the sweep budget.
    pub fn new(a: &Matrix) -> Result<Self> {
        SymmetricEigen::with_sweep_budget(a, 64)
    }

    /// Like [`SymmetricEigen::new`] with an explicit sweep budget.
    ///
    /// A result is returned only when the rotated matrix's off-diagonal
    /// mass actually reached the tolerance; otherwise the error reports
    /// the residual that was achieved. (An earlier revision silently
    /// accepted anything within 100x the tolerance.)
    fn with_sweep_budget(a: &Matrix, max_sweeps: usize) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty("eigendecomposition"));
        }
        let mut m = a.clone();
        m.symmetrize();
        let mut v = Matrix::identity(n);

        let scale = m.max_abs().max(1.0);
        let tol = 1e-14 * scale;
        let mut converged = false;
        for _sweep in 0..max_sweeps {
            let off = off_diagonal_norm(&m);
            if off <= tol * n as f64 {
                converged = true;
                break;
            }
            for p in 0..n - 1 {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() <= tol * 1e-2 {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    // Classic Jacobi rotation.
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;

                    // Update rows/columns p and q of M.
                    for k in 0..n {
                        let mkp = m[(k, p)];
                        let mkq = m[(k, q)];
                        m[(k, p)] = c * mkp - s * mkq;
                        m[(k, q)] = s * mkp + c * mkq;
                    }
                    for k in 0..n {
                        let mpk = m[(p, k)];
                        let mqk = m[(q, k)];
                        m[(p, k)] = c * mpk - s * mqk;
                        m[(q, k)] = s * mpk + c * mqk;
                    }
                    // Accumulate eigenvectors.
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
        // The loop above only re-checks the residual at the top of each
        // sweep; a final sweep may have finished the job. Accept at 1x
        // the tolerance — anything above it is a failed solve, reported
        // with the residual actually achieved so callers can diagnose
        // how far off the result was.
        let achieved = off_diagonal_norm(&m);
        let required = tol * n as f64;
        if !converged && achieved > required {
            return Err(LinalgError::NoConvergence {
                algorithm: "jacobi eigendecomposition",
                iterations: max_sweeps,
                residual: achieved,
                tolerance: required,
            });
        }

        // Extract and sort descending. A NaN eigenvalue means the input
        // (or the rotations) produced garbage; under `partial_cmp(..)
        // .unwrap_or(Equal)` it would land in an arbitrary position of
        // the spectrum, so reject it outright.
        let diag: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
        if diag.iter().any(|v| v.is_nan()) {
            return Err(LinalgError::NonFinite {
                op: "jacobi eigenvalues",
            });
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| descending_nans_last(diag[a], diag[b]));
        let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
        let mut vectors = Matrix::zeros(n, n);
        for (dst, &src) in order.iter().enumerate() {
            for k in 0..n {
                vectors[(k, dst)] = v[(k, src)];
            }
        }
        Ok(SymmetricEigen {
            values,
            vectors,
            off_diagonal_residual: achieved,
        })
    }
}

/// Implicit-shift QL sweeps allowed per eigenvalue — EISPACK's limit.
/// Two or three are typical, so this never shapes a result: it turns a
/// spin on pathological input into a typed error.
const QL_SWEEP_BUDGET: usize = 30;

/// All eigenpairs of a symmetric matrix by Householder tridiagonalisation
/// and implicit-shift QL (EISPACK's `imtql2`): eigenvalues descending,
/// eigenvectors as the aligned orthonormal columns.
///
/// Like [`SymmetricEigen::new`] the input is symmetrized first. Non-finite
/// input is [`LinalgError::NonFinite`] before any arithmetic; a sweep
/// budget that runs out is [`LinalgError::NoConvergence`].
pub fn tridiagonal_ql(a: &Matrix) -> Result<(Vec<f64>, Matrix)> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    if n == 0 {
        return Err(LinalgError::Empty("eigendecomposition"));
    }
    if !a.is_finite() {
        return Err(LinalgError::NonFinite {
            op: "tridiagonal ql",
        });
    }
    let mut t = a.clone();
    t.symmetrize();
    let (mut d, mut e, mut zt) = tridiagonalize(t);
    implicit_ql(&mut d, &mut e, &mut zt, QL_SWEEP_BUDGET)?;
    // Finite input can still overflow on the way here.
    if d.iter().any(|v| !v.is_finite()) {
        return Err(LinalgError::NonFinite {
            op: "tridiagonal ql eigenvalues",
        });
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| descending_nans_last(d[i], d[j]));
    let vectors = Matrix::from_fn(n, n, |k, dst| zt[(order[dst], k)]);
    Ok((order.iter().map(|&i| d[i]).collect(), vectors))
}

/// Householder reduction `T = Qᵀ A Q` of a symmetric matrix to
/// tridiagonal form. Returns `T`'s diagonal, its subdiagonal (`e[i]`
/// couples `i` and `i + 1`; `e[n - 1] = 0`) and `Qᵀ`.
fn tridiagonalize(mut a: Matrix) -> (Vec<f64>, Vec<f64>, Matrix) {
    let n = a.rows();
    // The last pass (a one-entry x) builds no reflector, only e[n - 2].
    let passes = n.saturating_sub(1);
    let mut e = vec![0.0; n];
    let mut betas = vec![0.0; n];
    let mut v = vec![0.0; n];
    let mut w = vec![0.0; n];
    for k in 0..passes {
        // H = I − β v vᵀ sends x = A[k, k+1..] to α e₁; v = x − α e₁,
        // with α opposite in sign to x₀ so the subtraction never cancels.
        let lo = k + 1;
        v[lo..].copy_from_slice(&a.row(k)[lo..]);
        let tail = dot(&v[lo + 1..], &v[lo + 1..]);
        if tail == 0.0 {
            e[k] = v[lo];
            continue;
        }
        let norm = (v[lo] * v[lo] + tail).sqrt();
        let alpha = if v[lo] > 0.0 { -norm } else { norm };
        v[lo] -= alpha;
        let beta = 2.0 / (v[lo] * v[lo] + tail);
        // Trailing block: H A₂₂ H = A₂₂ − v wᵀ − w vᵀ with p = β A₂₂ v
        // and w = p − (β/2)(vᵀp) v.
        for (i, wi) in (lo..n).zip(&mut w[lo..]) {
            *wi = beta * dot(&a.row(i)[lo..], &v[lo..]);
        }
        let half = 0.5 * beta * dot(&w[lo..], &v[lo..]);
        axpy(-half, &v[lo..], &mut w[lo..]);
        for i in lo..n {
            let (vi, wi) = (v[i], w[i]);
            let row = &mut a.row_mut(i)[lo..];
            for ((o, &vj), &wj) in row.iter_mut().zip(&v[lo..]).zip(&w[lo..]) {
                *o -= vi * wj + wi * vj;
            }
        }
        // Row k is finished with; park v there for the accumulation.
        a.row_mut(k)[lo..].copy_from_slice(&v[lo..]);
        e[k] = alpha;
        betas[k] = beta;
    }
    let d = (0..n).map(|i| a[(i, i)]).collect();

    // Qᵀ = H_{n-3} … H₀, built right to left so each reflector only
    // meets the trailing block the later ones have filled.
    let mut qt = Matrix::identity(n);
    for k in (0..passes).rev() {
        if betas[k] == 0.0 {
            continue;
        }
        let v = &a.row(k)[k + 1..];
        for i in k + 1..n {
            let row = &mut qt.row_mut(i)[k + 1..];
            let s = betas[k] * dot(row, v);
            axpy(-s, v, row);
        }
    }
    (d, e, qt)
}

/// Implicit-shift QL on the tridiagonal `(d, e)`, rotating the rows of
/// `zt` along: on return `d` holds the eigenvalues (unsorted) and row
/// `i` of `zt` the eigenvector of `d[i]`.
fn implicit_ql(d: &mut [f64], e: &mut [f64], zt: &mut Matrix, max_sweeps: usize) -> Result<()> {
    let n = d.len();
    // Negligible means against the norm of the whole matrix, not a
    // coupling's two neighbours as in `imtql2`: the Grams this solves are
    // rank deficient, and rounding noise around zero never settles
    // relative to itself.
    let norm = max_iter(0.0, d.iter().zip(e.iter()).map(|(d, e)| d.abs() + e.abs()));
    let negligible = f64::EPSILON * norm;
    for l in 0..n {
        let mut sweeps = 0;
        'sweep: loop {
            let m = (l..n - 1)
                .find(|&m| e[m].abs() <= negligible)
                .unwrap_or(n - 1);
            if m == l {
                break;
            }
            if sweeps == max_sweeps {
                return Err(LinalgError::NoConvergence {
                    algorithm: "tridiagonal ql",
                    iterations: sweeps,
                    residual: e[l].abs(),
                    tolerance: negligible,
                });
            }
            sweeps += 1;
            // Wilkinson shift from the leading 2 x 2, applied implicitly:
            // Givens rotations chase the bulge from m up to l.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            g = d[m] - d[l] + e[l] / (g + g.hypot(1.0).copysign(g));
            let (mut s, mut c, mut p) = (1.0, 1.0, 0.0);
            for i in (l..m).rev() {
                let (f, b) = (s * e[i], c * e[i]);
                let r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Underflow split the block at i + 1: look again.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    continue 'sweep;
                }
                (s, c) = (f / r, g / r);
                g = d[i + 1] - p;
                let r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                let (upper, lower) = zt.as_mut_slice().split_at_mut((i + 1) * n);
                for (a, b) in upper[i * n..].iter_mut().zip(&mut lower[..n]) {
                    let f = *b;
                    *b = s * *a + c * f;
                    *a = c * *a - s * f;
                }
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// Total descending order with NaNs sorted last: a defensive backstop
/// for the (rejected-above) NaN case, and a total order either way so
/// the sort can never give scheduler- or input-order-dependent results.
fn descending_nans_last(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater, // NaN sinks to the end
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => b.total_cmp(&a),
    }
}

fn off_diagonal_norm(m: &Matrix) -> f64 {
    let n = m.rows();
    let mut s = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            s += m[(i, j)].abs();
        }
    }
    s / ((n * n) as f64).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_eigen() {
        let a = Matrix::from_vec(3, 3, vec![3., 0., 0., 0., 1., 0., 0., 0., 2.]).unwrap();
        let e = SymmetricEigen::new(&a).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 2.0).abs() < 1e-12);
        assert!((e.values[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction() {
        let a = Matrix::from_vec(
            4,
            4,
            vec![
                4., 1., 0.5, 0.2, 1., 3., 0.3, 0.1, 0.5, 0.3, 2., 0.4, 0.2, 0.1, 0.4, 1.,
            ],
        )
        .unwrap();
        let e = SymmetricEigen::new(&a).unwrap();
        // Rebuild A = V Λ Vᵀ.
        let n = 4;
        let mut lam = Matrix::zeros(n, n);
        for i in 0..n {
            lam[(i, i)] = e.values[i];
        }
        let rec = e
            .vectors
            .matmul(&lam)
            .unwrap()
            .matmul(&e.vectors.transpose())
            .unwrap();
        assert!(rec.sub(&a).unwrap().max_abs() < 1e-9);
    }

    #[test]
    fn vectors_orthonormal() {
        let a = Matrix::from_vec(3, 3, vec![2., 1., 0., 1., 2., 1., 0., 1., 2.]).unwrap();
        let e = SymmetricEigen::new(&a).unwrap();
        let vtv = e.vectors.transpose().matmul(&e.vectors).unwrap();
        assert!(vtv.sub(&Matrix::identity(3)).unwrap().max_abs() < 1e-9);
    }

    #[test]
    fn eigenvalue_equation_holds() {
        let a = Matrix::from_vec(3, 3, vec![5., 2., 1., 2., 4., 0.5, 1., 0.5, 3.]).unwrap();
        let e = SymmetricEigen::new(&a).unwrap();
        for k in 0..3 {
            let v = e.vectors.col(k);
            let av = a.matvec(&v).unwrap();
            for i in 0..3 {
                assert!((av[i] - e.values[k] * v[i]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn rejects_non_square_and_empty() {
        assert!(SymmetricEigen::new(&Matrix::zeros(2, 3)).is_err());
        assert!(SymmetricEigen::new(&Matrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn stalled_solve_is_rejected_not_silently_accepted() {
        // Off-diagonal mass ~1e-12 sits between 1x and 100x the internal
        // tolerance (1e-14 * n for unit-scale input). With a zero sweep
        // budget the solver cannot reduce it; the old `> tol * n * 100`
        // check accepted this stalled state as converged.
        let eps = 1e-12;
        let a = Matrix::from_vec(3, 3, vec![3., eps, eps, eps, 2., eps, eps, eps, 1.]).unwrap();
        match SymmetricEigen::with_sweep_budget(&a, 0) {
            Err(LinalgError::NoConvergence {
                residual,
                tolerance,
                ..
            }) => {
                assert!(
                    residual > tolerance,
                    "diagnostic must carry the achieved residual ({residual:e} vs {tolerance:e})"
                );
            }
            other => panic!("stalled solve must error with a diagnostic, got {other:?}"),
        }
        // A real budget converges and reports the achieved residual.
        let e = SymmetricEigen::new(&a).unwrap();
        assert!(e.off_diagonal_residual <= 1e-14 * 3.0 * 3.0);
    }

    #[test]
    fn nan_input_surfaces_as_error_not_arbitrary_sort_position() {
        // A NaN on the diagonal propagates into the eigenvalues; the old
        // `partial_cmp(..).unwrap_or(Equal)` sort placed it wherever the
        // sort happened to leave it.
        let a = Matrix::from_vec(3, 3, vec![f64::NAN, 0., 0., 0., 2., 0., 0., 0., 1.]).unwrap();
        assert!(matches!(
            SymmetricEigen::new(&a),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn ql_handles_order_one_and_a_diagonal() {
        let (values, vectors) =
            tridiagonal_ql(&Matrix::from_vec(1, 1, vec![-2.5]).unwrap()).unwrap();
        assert_eq!((values, vectors[(0, 0)]), (vec![-2.5], 1.0));
        let diagonal = Matrix::from_vec(3, 3, vec![1., 0., 0., 0., 3., 0., 0., 0., 2.]).unwrap();
        let (values, vectors) = tridiagonal_ql(&diagonal).unwrap();
        assert_eq!(values, vec![3., 2., 1.]);
        assert_eq!(vectors.col(0), vec![0., 1., 0.]);
    }

    #[test]
    fn ql_rejects_non_square_empty_and_non_finite() {
        assert!(tridiagonal_ql(&Matrix::zeros(2, 3)).is_err());
        assert!(tridiagonal_ql(&Matrix::zeros(0, 0)).is_err());
        for bad in [f64::NAN, f64::INFINITY] {
            let a = Matrix::from_vec(2, 2, vec![1., bad, bad, 1.]).unwrap();
            assert!(matches!(
                tridiagonal_ql(&a),
                Err(LinalgError::NonFinite { .. })
            ));
        }
    }

    #[test]
    fn ql_sweep_guard_errors_with_diagnostics_instead_of_spinning() {
        // A coupled tridiagonal cannot deflate in zero sweeps, nor this
        // one in one: the guard must report the coupling it was left with
        // against the size it had to reach — not loop, and not return.
        let sweep = |budget| {
            let (d, e) = (&mut [2., 2., 2.], &mut [1., 1., 0.]);
            implicit_ql(d, e, &mut Matrix::identity(3), budget)
        };
        match sweep(0) {
            Err(LinalgError::NoConvergence {
                algorithm,
                iterations,
                residual,
                tolerance,
            }) => {
                assert_eq!((algorithm, iterations), ("tridiagonal ql", 0));
                assert!(residual > tolerance, "{residual:e} vs {tolerance:e}");
            }
            other => panic!("exhausted sweep budget must be a typed error, got {other:?}"),
        }
        assert!(sweep(1).is_err());
        assert!(sweep(QL_SWEEP_BUDGET).is_ok());
    }

    #[test]
    fn descending_sort_order_is_total() {
        use std::cmp::Ordering;
        assert_eq!(descending_nans_last(2.0, 1.0), Ordering::Less);
        assert_eq!(descending_nans_last(1.0, 2.0), Ordering::Greater);
        assert_eq!(descending_nans_last(f64::NAN, -1e300), Ordering::Greater);
        assert_eq!(descending_nans_last(-1e300, f64::NAN), Ordering::Less);
        assert_eq!(descending_nans_last(f64::NAN, f64::NAN), Ordering::Equal);
    }
}
