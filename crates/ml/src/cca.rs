//! Regularized linear Canonical Correlation Analysis.
//!
//! Finds directions `wx`, `wy` maximizing `corr(X wx, Y wy)` via the
//! generalized symmetric eigenproblem (paper §V-D / Eq. 2 structure):
//!
//! ```text
//! [ 0    Cxy ] [wx]       [ Cxx + κI   0        ] [wx]
//! [ Cyx  0   ] [wy] = ρ · [ 0          Cyy + κI ] [wy]
//! ```
//!
//! Eigenvalues come in ±ρ pairs; the positive ones are the canonical
//! correlations. This module is also the computational backend of
//! [`crate::kcca`]: KCCA is linear CCA applied to incomplete-Cholesky
//! feature embeddings.
//!
//! Because `B` is block-diagonal the dense problem factors exactly: the
//! canonical correlations are the singular values of
//! `M = Lx⁻¹ Cxy Ly⁻ᵀ` (`p x q`, with `Bx = Lx Lxᵀ`, `By = Ly Lyᵀ`),
//! and `wx = Lx⁻ᵀ u`, `wy = Ly⁻ᵀ v`. [`Cca::fit`] exploits this:
//! `M` is at most ICD rank x ICD rank (256 x 256), so its top
//! `components` triplets come from one direct eigendecomposition of
//! `MᵀM` ([`qpp_linalg::svd`], ~15 ms at rank 256 whatever the
//! spectrum) instead of Jacobi-sweeping the full `(p+q) x (p+q)`
//! generalized problem (~3.7 s). That dense solve
//! ([`qpp_linalg::GeneralizedEigen`]) is the oracle
//! `tests/svd_equivalence.rs` checks this path against; the two share
//! no eigensolver.
//!
//! `Cxx`, `Cyy` and `Cxy` are the blocks of one [`Matrix::centred_gram`]
//! of `[x | y]`, scaled by `1/n`: one kernel reads the rows, centring
//! each tile it reads, so the fit stores no centred copy, no transpose
//! and no product. At 8,000 rows that Gram is most of the fit's work.

use qpp_linalg::{stats, svd, vector, Cholesky, LinalgError, Matrix};

/// Slack on the mathematical bound `|ρ| <= 1`: values within the slack
/// are rounding noise and are clamped; values beyond it mean the solver
/// blew up (ill-conditioned `B`, λ ≫ 1) and must be rejected, not
/// laundered into a perfect correlation of 1.0.
const CORRELATION_SLACK: f64 = 1e-6;

/// Options for [`Cca::fit`].
#[derive(Debug, Clone, Copy)]
pub struct CcaOptions {
    /// Number of canonical components to keep (capped by min(p, q)).
    pub components: usize,
    /// Ridge regularization κ added to the within-set covariances.
    pub regularization: f64,
}

impl Default for CcaOptions {
    fn default() -> Self {
        CcaOptions {
            components: 8,
            regularization: 1e-3,
        }
    }
}

/// A fitted CCA model.
#[derive(Debug, Clone)]
pub struct Cca {
    /// Canonical correlations, descending (length = components kept).
    pub correlations: Vec<f64>,
    pub(crate) wx: Matrix,
    wy: Matrix,
    pub(crate) x_means: Vec<f64>,
    y_means: Vec<f64>,
}

impl Cca {
    /// Fits CCA on paired rows of `x` (`n x p`) and `y` (`n x q`).
    pub fn fit(x: &Matrix, y: &Matrix, opts: CcaOptions) -> Result<Cca, LinalgError> {
        if x.rows() != y.rows() {
            return Err(LinalgError::ShapeMismatch {
                op: "cca fit",
                lhs: x.shape(),
                rhs: y.shape(),
            });
        }
        let n = x.rows();
        if n < 2 {
            return Err(LinalgError::Empty("cca needs >= 2 rows"));
        }
        let (p, q) = (x.cols(), y.cols());
        let mut grams = qpp_obs::span(qpp_obs::Stage::TrainEigenGrams);
        grams.set_value(n as u64);
        let x_means = stats::column_means(x);
        let y_means = stats::column_means(y);
        // One Gram of the centred `[x | y]`: its diagonal blocks are
        // `n·Cxx` and `n·Cyy`, its upper-right block `n·Cxy`. The full
        // Gram is gone before the solve.
        let (cxx, cyy, cxy) = {
            let c = Matrix::centred_gram(x, &x_means, y, &y_means).scale(1.0 / n as f64);
            (
                c.block(0, 0, p, p),
                c.block(p, p, q, q),
                c.block(0, p, p, q),
            )
        };
        drop(grams);

        // Regularize relative to the average variance so κ means the
        // same thing across differently scaled inputs.
        let d = p + q;
        let avg_var = vector::sum_iter(
            (0..p)
                .map(|i| cxx[(i, i)])
                .chain((0..q).map(|j| cyy[(j, j)])),
        ) / d as f64;
        let kappa = opts.regularization * avg_var.max(1e-12);

        let keep = opts.components.min(p.min(q));
        let (correlations, wx, wy) = Cca::fit_reduced_svd(&cxx, &cyy, &cxy, kappa, keep)?;
        Ok(Cca {
            correlations,
            wx,
            wy,
            x_means,
            y_means,
        })
    }

    /// With block-diagonal `B` the generalized problem
    /// factors into a plain SVD. Factor `Bx = Lx Lxᵀ`, `By = Ly Lyᵀ`,
    /// form `M = Lx⁻¹ Cxy Ly⁻ᵀ` (`p x q`), take its top `keep` singular
    /// triplets from the eigendecomposition of `MᵀM`, and back-transform
    /// `wx = Lx⁻ᵀ u`, `wy = Ly⁻ᵀ v`. Each weight column satisfies
    /// `wᵀ B w = 1` on its own side.
    fn fit_reduced_svd(
        cxx: &Matrix,
        cyy: &Matrix,
        cxy: &Matrix,
        kappa: f64,
        keep: usize,
    ) -> Result<(Vec<f64>, Matrix, Matrix), LinalgError> {
        let (p, q) = cxy.shape();
        let (lx, ly, m) = {
            let _s = qpp_obs::span(qpp_obs::Stage::TrainEigenReduce);
            let mut bx = cxx.clone();
            bx.add_diagonal(kappa);
            let mut by = cyy.clone();
            by.add_diagonal(kappa);
            let jx = 1e-12 * bx.max_abs().max(1e-30);
            let jy = 1e-12 * by.max_abs().max(1e-30);
            let lx = Cholesky::with_jitter(&bx, jx, 10)?;
            let ly = Cholesky::with_jitter(&by, jy, 10)?;
            // M = Lx⁻¹ Cxy Ly⁻ᵀ: forward-substitute Cxy through Lx,
            // then its transpose through Ly.
            let x = lx.forward_substitute_matrix(cxy)?;
            let m = ly.forward_substitute_matrix(&x.transpose())?.transpose();
            (lx, ly, m)
        };

        let decomposition = {
            let mut s = qpp_obs::span(qpp_obs::Stage::TrainEigenDecompose);
            s.set_value(p.min(q) as u64);
            svd::truncated_svd(&m, keep)?
        };

        let _s = qpp_obs::span(qpp_obs::Stage::TrainEigenBacktransform);
        let mut correlations = Vec::with_capacity(keep);
        let mut wx = Matrix::zeros(p, keep);
        let mut wy = Matrix::zeros(q, keep);
        for k in 0..keep {
            correlations.push(validated_correlation(decomposition.singular_values[k])?);
            let u = lx.back_substitute(&decomposition.u.col(k))?;
            let v = ly.back_substitute(&decomposition.v.col(k))?;
            for i in 0..p {
                wx[(i, k)] = u[i];
            }
            for j in 0..q {
                wy[(j, k)] = v[j];
            }
        }
        Ok((correlations, wx, wy))
    }

    /// Number of canonical components kept.
    pub fn components(&self) -> usize {
        self.correlations.len()
    }

    /// Projects one x-side row into canonical space: `wxᵀ (row − x̄)`
    /// through [`Matrix::gemv_t_centered_into`], the kernel the folded
    /// query projection ([`crate::kcca`]) also runs.
    pub fn project_x(&self, row: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.wx.cols());
        self.wx.gemv_t_centered_into(row, &self.x_means, &mut out);
        out
    }

    /// Projects every row of an x-side matrix.
    pub fn project_x_matrix(&self, x: &Matrix) -> Matrix {
        project_matrix(x, &self.x_means, &self.wx)
    }

    /// Projects every row of a y-side matrix.
    pub fn project_y_matrix(&self, y: &Matrix) -> Matrix {
        project_matrix(y, &self.y_means, &self.wy)
    }
}

/// Validates a raw solver output against the mathematical bound
/// `|ρ| <= 1`. Rounding noise inside [`CORRELATION_SLACK`] is clamped;
/// anything further out is a solver blow-up (e.g. λ ≫ 1 from an
/// ill-conditioned `B`) that an unconditional `clamp(-1.0, 1.0)` used
/// to mask as a perfect correlation.
fn validated_correlation(rho: f64) -> Result<f64, LinalgError> {
    if !rho.is_finite() {
        return Err(LinalgError::NonFinite {
            op: "canonical correlation",
        });
    }
    if rho.abs() > 1.0 + CORRELATION_SLACK {
        return Err(LinalgError::OutOfRange {
            what: "canonical correlation",
            value: rho,
            bound: 1.0,
        });
    }
    Ok(rho.clamp(-1.0, 1.0))
}

/// `wᵀ (row − means)` for every row of `m`, through one reused buffer.
fn project_matrix(m: &Matrix, means: &[f64], w: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), w.cols());
    let mut buf = Vec::with_capacity(w.cols());
    for i in 0..m.rows() {
        w.gemv_t_centered_into(m.row(i), means, &mut buf);
        out.row_mut(i).copy_from_slice(&buf);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Builds paired datasets sharing one latent variable.
    fn correlated_data(n: usize, seed: u64) -> (Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Matrix::zeros(n, 3);
        let mut y = Matrix::zeros(n, 2);
        for i in 0..n {
            let latent: f64 = rng.random_range(-1.0..1.0);
            x[(i, 0)] = latent + 0.01 * rng.random_range(-1.0..1.0);
            x[(i, 1)] = rng.random_range(-1.0..1.0);
            x[(i, 2)] = -0.5 * latent + 0.01 * rng.random_range(-1.0..1.0);
            y[(i, 0)] = 2.0 * latent + 0.01 * rng.random_range(-1.0..1.0);
            y[(i, 1)] = rng.random_range(-1.0..1.0);
        }
        (x, y)
    }

    #[test]
    fn recovers_shared_latent_direction() {
        let (x, y) = correlated_data(200, 1);
        let cca = Cca::fit(
            &x,
            &y,
            CcaOptions {
                components: 2,
                regularization: 1e-4,
            },
        )
        .unwrap();
        assert!(
            cca.correlations[0] > 0.95,
            "top correlation {}",
            cca.correlations[0]
        );
        // The projections themselves must correlate: check empirically.
        let px = cca.project_x_matrix(&x).col(0);
        let py = cca.project_y_matrix(&y).col(0);
        let r = pearson(&px, &py);
        assert!(r.abs() > 0.95, "projection correlation {r}");
    }

    #[test]
    fn uncorrelated_data_has_low_correlation() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 300;
        let x = Matrix::from_fn(n, 3, |_, _| rng.random_range(-1.0..1.0));
        let y = Matrix::from_fn(n, 2, |_, _| rng.random_range(-1.0..1.0));
        let cca = Cca::fit(&x, &y, CcaOptions::default()).unwrap();
        assert!(
            cca.correlations[0] < 0.35,
            "spurious correlation {}",
            cca.correlations[0]
        );
    }

    #[test]
    fn components_capped_by_dimensions() {
        let (x, y) = correlated_data(50, 5);
        let cca = Cca::fit(
            &x,
            &y,
            CcaOptions {
                components: 10,
                regularization: 1e-3,
            },
        )
        .unwrap();
        assert_eq!(cca.components(), 2); // min(3, 2)
    }

    #[test]
    fn shape_mismatch_rejected() {
        let x = Matrix::zeros(10, 2);
        let y = Matrix::zeros(9, 2);
        assert!(Cca::fit(&x, &y, CcaOptions::default()).is_err());
    }

    #[test]
    fn out_of_range_correlations_are_rejected_not_clamped() {
        // In-slack rounding noise is clamped to the bound …
        assert_eq!(validated_correlation(1.0 + 1e-9).unwrap(), 1.0);
        assert_eq!(validated_correlation(-1.0 - 1e-9).unwrap(), -1.0);
        assert_eq!(validated_correlation(0.5).unwrap(), 0.5);
        // … but a blown-up eigenvalue is an error, never a silent 1.0
        // (the old `clamp(-1.0, 1.0)` reported exactly that).
        assert!(matches!(
            validated_correlation(1.5),
            Err(LinalgError::OutOfRange { value, .. }) if value == 1.5
        ));
        assert!(matches!(
            validated_correlation(-37.0),
            Err(LinalgError::OutOfRange { .. })
        ));
        assert!(matches!(
            validated_correlation(f64::NAN),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    fn pearson(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() as f64;
        let ma = a.iter().sum::<f64>() / n;
        let mb = b.iter().sum::<f64>() / n;
        let mut num = 0.0;
        let mut da = 0.0;
        let mut db = 0.0;
        for (&x, &y) in a.iter().zip(b.iter()) {
            num += (x - ma) * (y - mb);
            da += (x - ma) * (x - ma);
            db += (y - mb) * (y - mb);
        }
        num / (da.sqrt() * db.sqrt()).max(1e-12)
    }
}
