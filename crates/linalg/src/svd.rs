//! Truncated SVD via deterministic blocked subspace iteration.
//!
//! The reduced KCCA eigensolve only needs the top `components` (8–16)
//! singular triplets of the (at most `rank x rank`) correlation matrix
//! `M = Lx⁻¹ Cxy Ly⁻ᵀ` — far less than the full dense Jacobi solve on
//! the `(p+q) x (p+q)` generalized problem it replaces. This module
//! extracts exactly those triplets:
//!
//! 1. Start from a fixed pseudorandom block `V₀` (splitmix64 stream
//!    with a compile-time seed — no wall clock, no global RNG), applied
//!    through `Mᵀ` and orthonormalized.
//! 2. Power steps on `MᵀM`: `V ← orth(Mᵀ (M V))`, re-orthonormalized
//!    every step with Householder QR ([`QrDecomposition::thin_q`]),
//!    which stays orthonormal even on rank-deficient blocks.
//! 3. Stop when the top-`k` Ritz values of `MᵀM` are stationary to a
//!    relative tolerance — or when the iteration provably stagnates
//!    below a documented accuracy cap (near-degenerate clusters
//!    converge with ratio ≈ 1; see `STAGNATION_PATIENCE`)
//!    — then Rayleigh–Ritz: eigendecompose the small `b x b`
//!    projection to rotate the block onto singular vectors. Stagnating
//!    *above* the cap, or exhausting the budget, is a hard error.
//!
//! **Determinism.** Every operation in the loop — [`Matrix::matmul`] /
//! [`Matrix::gram`] (fixed chunking, ordered reduction on the `qpp-par`
//! pool), serial Householder QR, serial Jacobi on the `b x b`
//! projection — is bitwise thread-invariant, so the iteration
//! trajectory, the data-dependent stopping sweep, and the final
//! triplets are identical at any thread count. Singular-vector signs
//! are pinned by a fixed rule (largest-magnitude entry of each right
//! vector made positive, earliest index on ties).

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::qr::QrDecomposition;

/// Extra subspace columns beyond the requested `k` (oversampling
/// accelerates convergence of the trailing requested triplets).
const OVERSAMPLE: usize = 8;

/// Hard cap on power iterations before the solve is declared failed
/// (the fixed part of the schedule).
const MAX_ITERATIONS: usize = 512;

/// Stationarity tolerance on the top-`k` Ritz values of `MᵀM` (i.e. σ²,
/// not σ), relative to the dominant one (the convergence part of the
/// schedule). Comparing the *squared* values is what makes a single
/// fixed value safe: symmetric eigenvalue perturbation is absolute
/// (Weyl), so the rounding jitter of every Ritz value of `MᵀM` is a few
/// ULPs of `λ₁` regardless of how ill-conditioned the kept block is —
/// whereas deltas of σ itself jitter like `eps · σ₁/σₖ` and stall above
/// any fixed tolerance once the spread is wide.
const RITZ_TOLERANCE: f64 = 1e-13;

/// Consecutive iterations without the delta improving on its best value
/// by at least 2% (cumulatively) before the iteration is declared
/// stagnant. The window is wide and the threshold low on purpose:
/// genuinely slow convergence (per-step ratio 0.999) still clears 2%
/// every ~20 iterations and is left to run, while a true plateau
/// oscillates with no systematic decay and cannot. Plateaus happen on
/// near-degenerate trailing clusters (kept values tying with the
/// oversampling buffer converge with ratio ≈ 1): the delta sits far
/// above [`RITZ_TOLERANCE`] without the values being wrong — they are
/// trapped inside the cluster, within its width of the truth.
const STAGNATION_PATIENCE: usize = 64;

/// Hard accuracy cap for stagnation acceptance, relative to the dominant
/// Ritz value. A plateaued iteration is accepted only if its delta is
/// below this bound; stagnating above it is a
/// [`LinalgError::NoConvergence`] error with the achieved delta in the
/// payload — never a silent return.
const STAGNATION_TOLERANCE: f64 = 1e-8;

/// The top-`k` singular triplets of a dense matrix.
#[derive(Debug, Clone)]
pub struct TruncatedSvd {
    /// Singular values, descending (length `k`).
    pub singular_values: Vec<f64>,
    /// Left singular vectors as columns (`p x k`). A column is zero
    /// when its singular value is numerically zero (the left direction
    /// is then undefined).
    pub u: Matrix,
    /// Right singular vectors as columns (`q x k`).
    pub v: Matrix,
    /// Power iterations performed before the Ritz values went
    /// stationary.
    pub iterations: usize,
}

/// Computes the top-`k` singular triplets `M ≈ U Σ Vᵀ` of `m` (`p x q`)
/// by blocked subspace iteration on `MᵀM`.
///
/// `k` is capped at `min(p, q)`. Fails with
/// [`LinalgError::NoConvergence`] if the Ritz values are still moving
/// after `MAX_ITERATIONS` power steps, and with
/// [`LinalgError::NonFinite`] if the input contains NaN or infinity.
pub fn truncated_svd(m: &Matrix, k: usize) -> Result<TruncatedSvd> {
    subspace_iteration(m, k, MAX_ITERATIONS)
}

/// [`truncated_svd`] under an explicit power-iteration budget.
fn subspace_iteration(m: &Matrix, k: usize, max_iterations: usize) -> Result<TruncatedSvd> {
    let (p, q) = m.shape();
    if p == 0 || q == 0 || k == 0 {
        return Err(LinalgError::Empty("truncated svd"));
    }
    if !m.is_finite() {
        return Err(LinalgError::NonFinite {
            op: "truncated svd",
        });
    }
    // Iterate on the narrow side: the basis lives in the column space
    // of Mᵀ, so a wide matrix is handled by factoring the transpose and
    // swapping U and V.
    if q > p {
        let t = subspace_iteration(&m.transpose(), k, max_iterations)?;
        return Ok(TruncatedSvd {
            singular_values: t.singular_values,
            u: t.v,
            v: t.u,
            iterations: t.iterations,
        });
    }
    let k = k.min(q);
    let b = (k + OVERSAMPLE).min(q);

    // Fixed pseudorandom start: Ω (p x b) from a seeded splitmix64
    // stream, pushed through Mᵀ so V₀ already lies in the row space.
    let omega = Matrix::from_fn(p, b, {
        let mut stream = SplitMix64::new(0x9e37_79b9_7f4a_7c15);
        move |_, _| stream.next_unit()
    });
    let mt = m.transpose();
    let mut v = orthonormalize(&mt.matmul(&omega)?)?;

    let mut prev_ritz: Option<Vec<f64>> = None;
    let mut iterations = 0;
    let mut last_delta = f64::INFINITY;
    let mut best_delta = f64::INFINITY;
    let mut since_improved = 0usize;
    let mut converged = false;
    while iterations < max_iterations {
        iterations += 1;
        // One power step on MᵀM with a Rayleigh quotient read mid-step:
        // T = Vᵀ (MᵀM V) is the b x b projection whose eigenvalues are
        // the Ritz values of MᵀM at the current basis.
        let y = mt.matmul(&m.matmul(&v)?)?;
        let t = v.transpose().matmul(&y)?;
        let ritz = ritz_values(&t, k)?;
        if let Some(prev) = &prev_ritz {
            let scale = ritz.first().copied().unwrap_or(0.0).max(1e-300);
            last_delta = crate::vector::max_iter(
                0.0,
                ritz.iter()
                    .zip(prev.iter())
                    .map(|(a, b)| (a - b).abs() / scale),
            );
            if last_delta <= RITZ_TOLERANCE {
                converged = true;
                break;
            }
            // Stagnation: no 2% *cumulative* improvement on the
            // best delta within the patience window (clustered
            // trailing values converge with ratio ≈ 1 and plateau far
            // above the tight target). Accept only under the hard cap;
            // a plateau above it is an error, not a silent return.
            if last_delta <= best_delta * 0.98 {
                best_delta = last_delta;
                since_improved = 0;
            } else {
                since_improved += 1;
                if since_improved >= STAGNATION_PATIENCE {
                    if last_delta <= STAGNATION_TOLERANCE {
                        converged = true;
                        break;
                    }
                    return Err(LinalgError::NoConvergence {
                        algorithm: "subspace iteration (stagnated)",
                        iterations,
                        residual: last_delta,
                        tolerance: STAGNATION_TOLERANCE,
                    });
                }
            }
        }
        prev_ritz = Some(ritz);
        v = orthonormalize(&y)?;
    }
    // Budget exhaustion uses the same explicit accuracy cap as
    // stagnation: accept if the values are moving less than the cap
    // per step, error with full diagnostics otherwise.
    if !converged && last_delta > STAGNATION_TOLERANCE {
        return Err(LinalgError::NoConvergence {
            algorithm: "subspace iteration",
            iterations,
            residual: last_delta,
            tolerance: STAGNATION_TOLERANCE,
        });
    }

    // Rayleigh–Ritz rotation onto singular vectors: B = M V, T = BᵀB,
    // T = W Λ Wᵀ gives σⱼ = √λⱼ, right vectors V W and left vectors
    // B W / σ.
    let bm = m.matmul(&v)?;
    let t = bm.gram();
    let eig = crate::eigen::SymmetricEigen::new(&t)?;
    let sigma_max = eig.values.first().copied().unwrap_or(0.0).max(0.0).sqrt();
    let floor = sigma_max * 1e-14;
    let mut singular_values = Vec::with_capacity(k);
    let mut u = Matrix::zeros(p, k);
    let mut v_out = Matrix::zeros(q, k);
    for j in 0..k {
        let sigma = eig.values[j].max(0.0).sqrt();
        singular_values.push(sigma);
        let w = eig.vectors.col(j);
        let vj = v.matvec(&w)?;
        let uj = if sigma > floor && sigma > 0.0 {
            let bw = bm.matvec(&w)?;
            bw.iter().map(|x| x / sigma).collect()
        } else {
            vec![0.0; p]
        };
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
            v_out[(i, j)] = flip * x;
        }
        for (i, x) in uj.iter().enumerate() {
            u[(i, j)] = flip * x;
        }
    }
    Ok(TruncatedSvd {
        singular_values,
        u,
        v: v_out,
        iterations,
    })
}

/// Orthonormalizes the columns of `y` via Householder QR.
fn orthonormalize(y: &Matrix) -> Result<Matrix> {
    Ok(QrDecomposition::new(y)?.thin_q())
}

/// Top-`k` Ritz values of `MᵀM` (projected eigenvalues clamped at 0 —
/// deliberately NOT square-rooted: stationarity is judged on λ = σ²,
/// where the rounding floor is condition-independent; see
/// [`RITZ_TOLERANCE`]).
fn ritz_values(t: &Matrix, k: usize) -> Result<Vec<f64>> {
    let eig = crate::eigen::SymmetricEigen::new(t)?;
    Ok(eig.values.iter().take(k).map(|l| l.max(0.0)).collect())
}

/// Fixed-seed splitmix64 stream mapped to `[-1, 1)`. Deterministic by
/// construction: no wall clock, no global state, no thread identity.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn next_unit(&mut self) -> f64 {
        // 53 mantissa bits → uniform in [0, 1), then shifted to [-1, 1).
        let x = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        2.0 * x - 1.0
    }
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
        // Rank-1 matrix: second singular value is 0 and its left vector
        // is pinned to zero rather than NaN.
        let m = Matrix::from_fn(4, 3, |i, j| (i + 1) as f64 * (j + 1) as f64);
        let svd = truncated_svd(&m, 2).unwrap();
        assert!(svd.singular_values[0] > 1.0);
        assert!(svd.singular_values[1].abs() < 1e-8);
        assert!(svd.u.col(1).iter().all(|x| x.is_finite()));
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

    #[test]
    fn exhausted_budget_errors_with_diagnostics() {
        let m = Matrix::from_vec(3, 2, vec![1., 0.5, 0.2, 2., 0.7, 0.1]).unwrap();
        // One iteration cannot even compare two Ritz snapshots.
        assert!(matches!(
            subspace_iteration(&m, 1, 1),
            Err(LinalgError::NoConvergence { .. })
        ));
    }
}
