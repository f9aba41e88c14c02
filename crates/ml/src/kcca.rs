//! Kernel Canonical Correlation Analysis (the paper's §VI).
//!
//! Pipeline:
//!
//! 1. Gaussian kernels over the query-feature and performance-feature
//!    vectors, with scales set to fixed fractions (0.25 / 0.5, see
//!    [`KccaOptions`]) of the mean pairwise squared distance — the
//!    paper's 1:2 heuristic on a scale-free base.
//! 2. Pivoted incomplete Cholesky `K ≈ G Gᵀ` on each side (Bach &
//!    Jordan); run to full rank with zero tolerance this is exact, with
//!    a rank cap it is the standard scalable approximation.
//! 3. Regularized linear CCA on the embeddings `Gx`, `Gy` — equivalent
//!    to the kernelized generalized eigenproblem of the paper's Eq. (2)
//!    restricted to the span of the pivots.
//!
//! The result is a pair of maximally correlated projections: `Kx A`
//! ("query projection") and `Ky B` ("performance projection"). Only the
//! query side is kept — prediction looks neighbors up there and reads
//! their measured metrics, never the performance projection. New
//! queries are projected by evaluating the kernel against the pivot
//! points only, and everything after that kernel row `k` is linear in
//! it: with `L` the ICD pivot block, `W` / `μ` the CCA weights and
//! means, `Wᵀ(L⁻¹k − μ) = (L⁻ᵀW)ᵀ(k − Lμ)`. [`Kcca::fit`] folds the
//! right-hand side's two constants once, so a projection is the kernel
//! row and one `rank x components` gemv — no triangular solve, and the
//! fitted model keeps neither `L` nor the CCA weights. The staged
//! left-hand side survives as the oracle of `tests/fold_equivalence.rs`.

use crate::cca::{Cca, CcaOptions};
use crate::kernel::{GaussianKernel, MIN_TAU};
use qpp_linalg::{
    vector, IcdOptions, IncompleteCholesky, LinalgError, Matrix, MatrixView, RowPanels,
};
use serde::{Deserialize, Serialize};

/// Options for [`Kcca::fit`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct KccaOptions {
    /// Gaussian scale fraction for the query side, relative to the mean
    /// pairwise squared distance (see [`GaussianKernel::fit`]). The
    /// paper used 0.1 of the norm variance on raw vectors; the 1:2
    /// query:performance ratio is preserved here.
    pub x_kernel_fraction: f64,
    /// Gaussian scale fraction for the performance side.
    pub y_kernel_fraction: f64,
    /// Canonical components to keep.
    pub components: usize,
    /// CCA ridge regularization.
    pub regularization: f64,
    /// Incomplete-Cholesky rank cap (per side).
    pub max_rank: usize,
    /// Incomplete-Cholesky relative tolerance.
    pub icd_tolerance: f64,
}

impl Default for KccaOptions {
    fn default() -> Self {
        KccaOptions {
            x_kernel_fraction: 0.25,
            y_kernel_fraction: 0.5,
            components: 16,
            regularization: 1e-3,
            max_rank: 256,
            icd_tolerance: 1e-6,
        }
    }
}

impl KccaOptions {
    /// The first option a fit cannot use, as a typed error naming it: a
    /// kernel fraction ≤ 0 would train an identity kernel (the 1e-6 scale
    /// floor), a negative ridge a wrong model, a NaN tolerance as if 0.
    fn check(&self) -> Result<(), LinalgError> {
        let options = [
            ("kcca x_kernel_fraction (> 0)", self.x_kernel_fraction),
            ("kcca y_kernel_fraction (> 0)", self.y_kernel_fraction),
            ("kcca max_rank (> 0)", self.max_rank as f64),
            ("kcca components (> 0)", self.components as f64),
            ("kcca regularization (>= 0)", self.regularization),
            ("kcca icd_tolerance (>= 0)", self.icd_tolerance),
        ];
        for (what, value) in options {
            // Each name states its bound; only "(>= 0)" admits 0.
            let zero_ok = value == 0.0 && what.ends_with("(>= 0)");
            if !(value.is_finite() && (value > 0.0 || zero_ok)) {
                let bound = 0.0;
                return Err(LinalgError::OutOfRange { what, value, bound });
            }
        }
        Ok(())
    }
}

/// A fitted KCCA model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Kcca {
    x_kernel: GaussianKernel,
    /// Query-side pivot points (rows of the training X at ICD pivots),
    /// as the panels the kernel row scans.
    x_pivots: RowPanels,
    /// `L⁻ᵀ W` (`rank x components`): ICD embedding and CCA weights
    /// folded into the one matrix a kernel row is projected through.
    fold: Matrix,
    /// `L μ` (`rank`): the CCA centering, moved in front of the fold.
    kernel_center: Vec<f64>,
    /// Canonical correlations achieved on the training set, descending.
    correlations: Vec<f64>,
    /// Training query projection `Kx A` (one row per training point).
    x_projection: Matrix,
}

impl Kcca {
    /// Fits KCCA on paired rows of `x` (query features) and `y`
    /// (performance features). Both sides are borrowed views over
    /// contiguous storage; nothing is copied until the pivot rows are
    /// extracted.
    pub fn fit(
        x: MatrixView<'_>,
        y: MatrixView<'_>,
        opts: KccaOptions,
    ) -> Result<Kcca, LinalgError> {
        if x.rows() != y.rows() {
            return Err(LinalgError::ShapeMismatch {
                op: "kcca fit",
                lhs: x.shape(),
                rhs: y.shape(),
            });
        }
        let n = x.rows();
        if n < 4 {
            return Err(LinalgError::Empty("kcca needs >= 4 rows"));
        }
        opts.check()?;
        // Stage spans (kernel fit / ICD / eigensolve) feed the training
        // breakdown in `qpp_obs::recorder().stage_summary()`. Kernel
        // *entries* are evaluated lazily inside the ICD factorization,
        // so their cost lands in the ICD span by construction. The two
        // sides factor at once, so that span is the wall time of the
        // slower side, not the sum of the two.
        let (x_kernel, y_kernel) = {
            let _s = qpp_obs::span(qpp_obs::Stage::TrainKernel);
            (
                GaussianKernel::fit(x, opts.x_kernel_fraction),
                GaussianKernel::fit(y, opts.y_kernel_fraction),
            )
        };

        let icd_opts = IcdOptions {
            max_rank: opts.max_rank,
            relative_tolerance: opts.icd_tolerance,
        };
        // One chunk per side. Each factorization is serial, and results
        // come back in side order: the fit is bitwise the serial one at
        // any thread count, and x's error wins when both sides fail.
        let (x_icd, y_icd) = {
            let mut s = qpp_obs::span(qpp_obs::Stage::TrainIcd);
            s.set_value(n as u64);
            let sides = [(&x_kernel, x), (&y_kernel, y)];
            let mut icds = qpp_par::parallel_map(&sides, 1, |&(kernel, m)| {
                IncompleteCholesky::factor(n, |i, j| kernel.eval(m.row(i), m.row(j)), icd_opts)
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
            let y_icd = icds.swap_remove(1);
            (icds.swap_remove(0), y_icd)
        };

        let cca = {
            let _s = qpp_obs::span(qpp_obs::Stage::TrainEigensolve);
            Cca::fit(
                x_icd.g(),
                y_icd.g(),
                CcaOptions {
                    components: opts.components,
                    regularization: opts.regularization,
                },
            )?
        };
        let x_projection = cca.project_x_matrix(x_icd.g());
        let (fold, kernel_center) = x_icd.pivot_block().fold_linear_map(&cca.wx, &cca.x_means)?;
        Ok(Kcca {
            x_kernel,
            x_pivots: RowPanels::from_rows(x.cols(), x_icd.pivots().iter().map(|&p| x.row(p))),
            fold,
            kernel_center,
            correlations: cca.correlations,
            x_projection,
        })
    }

    /// The training query projection `Kx A` (`n x components`).
    pub fn query_projection(&self) -> &Matrix {
        &self.x_projection
    }

    /// Canonical correlations achieved on the training set.
    pub fn correlations(&self) -> &[f64] {
        &self.correlations
    }

    /// Number of canonical components.
    pub fn components(&self) -> usize {
        self.fold.cols()
    }

    /// Achieved incomplete-Cholesky rank on the query side.
    pub fn x_rank(&self) -> usize {
        self.x_pivots.rows()
    }

    /// Structural check of a deserialized model: every matrix holds
    /// `rows * cols` values, pivots (`rank x width`), fold
    /// (`rank x components`), centering (`rank`) and training projection
    /// (`n x components`) fit together, and the kernel scale is finite
    /// and at least the floor [`GaussianKernel::fit`] applies. Names the
    /// first part that does not; [`Kcca::fit`] cannot produce one.
    pub fn validate(&self, width: usize) -> Result<(), &'static str> {
        let (pivots, fold, stored) = (&self.x_pivots, &self.fold, &self.x_projection);
        if !pivots.is_well_formed() || pivots.cols() != width {
            return Err("kcca.x_pivots is not rank x feature width");
        }
        // Below the floor a kernel row is not in (0, 1]: a negative scale
        // grows it without bound, zero makes it NaN.
        let tau = self.x_kernel.tau;
        if !(tau.is_finite() && tau >= MIN_TAU) {
            return Err("kcca.x_kernel.tau is not a kernel scale a fit can produce");
        }
        if !fold.is_well_formed() || fold.rows() != pivots.rows() {
            return Err("kcca.fold is not rank x components");
        }
        if self.kernel_center.len() != pivots.rows() {
            return Err("kcca.kernel_center is not rank long");
        }
        if !stored.is_well_formed() || stored.cols() != fold.cols() {
            return Err("kcca.x_projection is not rows x components");
        }
        Ok(())
    }

    /// Projects a *new* query feature vector into the query projection
    /// space (paper Fig. 7, step 1), returning the largest kernel
    /// evaluation against the pivot points.
    ///
    /// A value near zero means the query is unlike *everything* in the
    /// training set: its kernel row vanishes and the projection
    /// collapses toward a fixed point, so neighbor distances alone can
    /// no longer flag it as anomalous. Callers should treat low
    /// similarity as low prediction confidence.
    ///
    /// The kernel row is one pass over the pivot panels, 16 squared
    /// distances at a time, each bitwise [`GaussianKernel::eval`]'s; it
    /// goes through the folded map in one
    /// [`Matrix::gemv_t_centered_into`]. Once `scratch` and `out` have
    /// warmed up to the model's dimensions this performs no heap
    /// allocation. Fails only on a feature vector of another width than
    /// the pivots.
    pub fn project_query_into(
        &self,
        features: &[f64],
        scratch: &mut ProjectionScratch,
        out: &mut Vec<f64>,
    ) -> Result<f64, LinalgError> {
        if features.len() != self.x_pivots.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "kcca project_query",
                lhs: (1, self.x_pivots.cols()),
                rhs: (1, features.len()),
            });
        }
        let kernel = self.x_kernel;
        scratch.k_row.clear();
        let sq_dists = self.x_pivots.sq_dists(features);
        scratch.k_row.extend(sq_dists.map(|d| kernel.at_sq_dist(d)));
        let similarity = vector::max_iter(0.0, scratch.k_row.iter().copied());
        self.fold
            .gemv_t_centered_into(&scratch.k_row, &self.kernel_center, out);
        Ok(similarity)
    }
}

/// Reusable buffer for [`Kcca::project_query_into`]: the kernel row
/// against the pivots. One scratch per worker thread is enough; it
/// grows to the model's rank on first use and is then recycled.
#[derive(Debug, Default, Clone)]
pub struct ProjectionScratch {
    k_row: Vec<f64>,
}

impl ProjectionScratch {
    /// Empty scratch; the buffer is sized lazily on first projection.
    pub fn new() -> Self {
        ProjectionScratch::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpp_linalg::vector;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Nonlinearly related pair: y depends on ‖x‖ (a relation linear CCA
    /// cannot capture but a Gaussian kernel can).
    fn nonlinear_pair(n: usize, seed: u64) -> (Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Matrix::zeros(n, 2);
        let mut y = Matrix::zeros(n, 2);
        for i in 0..n {
            let a = rng.random_range(-2.0..2.0);
            let b = rng.random_range(-2.0..2.0);
            x[(i, 0)] = a;
            x[(i, 1)] = b;
            let r = (a * a + b * b).sqrt();
            y[(i, 0)] = r + 0.02 * rng.random_range(-1.0..1.0);
            y[(i, 1)] = rng.random_range(-1.0..1.0);
        }
        (x, y)
    }

    fn project(model: &Kcca, features: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        model
            .project_query_into(features, &mut ProjectionScratch::new(), &mut out)
            .unwrap();
        out
    }

    #[test]
    fn captures_nonlinear_correlation() {
        let (x, y) = nonlinear_pair(150, 2);
        let model = Kcca::fit(x.view(), y.view(), KccaOptions::default()).unwrap();
        assert!(
            model.correlations()[0] > 0.9,
            "top kernel correlation {}",
            model.correlations()[0]
        );
    }

    #[test]
    fn projection_collocates_similar_points() {
        // Points with similar x land near each other in the query
        // projection (the paper's clustering-effect claim, Fig. 6).
        let (x, y) = nonlinear_pair(120, 7);
        let model = Kcca::fit(x.view(), y.view(), KccaOptions::default()).unwrap();
        let p0 = project(&model, x.row(0));
        // Training projection of point 0 should match its out-of-sample
        // projection (same point).
        let stored = model.query_projection().row(0);
        let d = vector::dist(&p0, stored);
        let scale = vector::norm(stored).max(1e-9);
        assert!(d / scale < 1e-6, "relative drift {}", d / scale);
    }

    #[test]
    fn nearest_neighbor_in_projection_agrees_with_performance() {
        // For a new point, its nearest training neighbor in query
        // projection should have similar performance (the prediction
        // premise). Construct data where x fully determines y.
        let (x, y) = nonlinear_pair(200, 9);
        let model = Kcca::fit(x.view(), y.view(), KccaOptions::default()).unwrap();
        // Leave point 0 out conceptually: find nearest *other* neighbor.
        let probe = project(&model, x.row(0));
        let mut best = (usize::MAX, f64::INFINITY);
        for i in 1..x.rows() {
            let d = vector::dist(&probe, model.query_projection().row(i));
            if d < best.1 {
                best = (i, d);
            }
        }
        let neighbor = best.0;
        // y[:, 0] = ||x||; neighbor's radius should approximate ours.
        let r0 = y[(0, 0)];
        let rn = y[(neighbor, 0)];
        assert!(
            (r0 - rn).abs() < 0.4,
            "neighbor radius {rn} too far from {r0}"
        );
    }

    #[test]
    fn rank_cap_respected() {
        let (x, y) = nonlinear_pair(100, 4);
        let opts = KccaOptions {
            max_rank: 10,
            icd_tolerance: 0.0,
            ..KccaOptions::default()
        };
        let model = Kcca::fit(x.view(), y.view(), opts).unwrap();
        assert!(model.x_rank() <= 10);
        assert!(model.components() <= 10);
    }

    #[test]
    fn mismatched_rows_rejected() {
        let x = Matrix::zeros(10, 2);
        let y = Matrix::zeros(9, 2);
        assert!(Kcca::fit(x.view(), y.view(), KccaOptions::default()).is_err());
    }

    #[test]
    fn tiny_input_rejected() {
        let x = Matrix::zeros(2, 2);
        let y = Matrix::zeros(2, 2);
        assert!(Kcca::fit(x.view(), y.view(), KccaOptions::default()).is_err());
    }
}
