//! Equivalence of `Cca::fit` with the dense oracle, and determinism of
//! the direct solve.
//!
//! `Cca::fit` (block-Cholesky reduction, then the truncated SVD read
//! off one tridiagonal-QL eigendecomposition of `MᵀM`) must agree with
//! the dense reference (full Jacobi on the `(p+q) x (p+q)` generalized
//! problem, `qpp_linalg::GeneralizedEigen`, assembled here — it shares
//! no eigensolver with the path it checks) on random problems — the
//! same canonical correlations, and the same canonical directions up to
//! the per-path sign and normalization conventions. `Cca::fit` must
//! additionally be bitwise identical at 1 and 8 threads.

use qpp_linalg::{stats, svd, vector, GeneralizedEigen, Matrix};
use qpp_ml::{Cca, CcaOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Paired datasets with two latent variables so several canonical
/// directions are well-determined; `p != q` by construction.
fn latent_pair(n: usize, p: usize, q: usize, seed: u64) -> (Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Matrix::zeros(n, p);
    let mut y = Matrix::zeros(n, q);
    for i in 0..n {
        let s: f64 = rng.random_range(-1.0..1.0);
        let t: f64 = rng.random_range(-1.0..1.0);
        for j in 0..p {
            let noise = 0.05 * rng.random_range(-1.0..1.0);
            x[(i, j)] = match j % 3 {
                0 => s + noise,
                1 => t - 0.5 * s + noise,
                _ => rng.random_range(-1.0..1.0),
            };
        }
        for j in 0..q {
            let noise = 0.05 * rng.random_range(-1.0..1.0);
            y[(i, j)] = match j % 3 {
                0 => 2.0 * s + noise,
                1 => -t + noise,
                _ => rng.random_range(-1.0..1.0),
            };
        }
    }
    (x, y)
}

const REGULARIZATION: f64 = 1e-3;

fn fit(x: &Matrix, y: &Matrix, components: usize) -> Cca {
    Cca::fit(
        x,
        y,
        CcaOptions {
            components,
            regularization: REGULARIZATION,
        },
    )
    .expect("cca fit")
}

/// The dense oracle: the same covariances and ridge as `Cca::fit`,
/// assembled into the full `(p+q) x (p+q)` blocked generalized
/// eigenproblem and Jacobi-solved for the whole spectrum. Returns the
/// top `components` correlations and the x- and y-side projections of
/// the training rows.
fn dense_reference(x: &Matrix, y: &Matrix, components: usize) -> (Vec<f64>, Matrix, Matrix) {
    let (n, p, q) = (x.rows(), x.cols(), y.cols());
    let (x_means, y_means) = (stats::column_means(x), stats::column_means(y));
    let xc = Matrix::from_fn(n, p, |i, j| x[(i, j)] - x_means[j]);
    let yc = Matrix::from_fn(n, q, |i, j| y[(i, j)] - y_means[j]);
    let scale = 1.0 / n as f64;
    let cxx = xc.gram().scale(scale);
    let cyy = yc.gram().scale(scale);
    let cxy = xc.transpose().matmul(&yc).unwrap().scale(scale);
    let trace: f64 =
        (0..p).map(|i| cxx[(i, i)]).sum::<f64>() + (0..q).map(|j| cyy[(j, j)]).sum::<f64>();
    let kappa = REGULARIZATION * (trace / (p + q) as f64).max(1e-12);

    let mut a = Matrix::zeros(p + q, p + q);
    a.set_block(0, p, &cxy);
    a.set_block(p, 0, &cxy.transpose());
    let mut b = Matrix::zeros(p + q, p + q);
    b.set_block(0, 0, &cxx);
    b.set_block(p, p, &cyy);
    b.add_diagonal(kappa);
    let eig = GeneralizedEigen::new(&a, &b).expect("dense generalized eigensolve");

    // Eigenvalues are sorted descending; the top `keep` are the
    // positive half of the ± pairs.
    let keep = components.min(p.min(q));
    let wx = Matrix::from_fn(p, keep, |i, k| eig.vectors[(i, k)]);
    let wy = Matrix::from_fn(q, keep, |j, k| eig.vectors[(p + j, k)]);
    (
        eig.values[..keep].to_vec(),
        xc.matmul(&wx).unwrap(),
        yc.matmul(&wy).unwrap(),
    )
}

/// |cos| of the angle between two vectors (1 = same direction up to
/// sign).
fn abs_cosine(a: &[f64], b: &[f64]) -> f64 {
    let na = vector::norm(a).max(1e-300);
    let nb = vector::norm(b).max(1e-300);
    (vector::dot(a, b) / (na * nb)).abs()
}

/// Asserts `Cca::fit` and the dense oracle produce matching
/// correlations, and matching projection directions for every
/// well-separated component with
/// non-trivial correlation (degenerate / near-zero components have
/// ill-determined directions in exact arithmetic too).
fn assert_paths_equivalent(x: &Matrix, y: &Matrix, components: usize) {
    let reduced = fit(x, y, components);
    let (dense_correlations, pd_x, pd_y) = dense_reference(x, y, components);
    assert_eq!(reduced.components(), dense_correlations.len());
    for (k, (r, d)) in reduced
        .correlations
        .iter()
        .zip(dense_correlations.iter())
        .enumerate()
    {
        assert!(
            (r - d).abs() < 1e-6,
            "correlation {k}: reduced {r} vs dense {d}"
        );
    }
    // Compare canonical directions through the projections they induce
    // (projection columns are invariant to the weight parameterization
    // up to per-component sign and scale).
    let pr_x = reduced.project_x_matrix(x);
    let pr_y = reduced.project_y_matrix(y);
    for k in 0..reduced.components() {
        let rho = reduced.correlations[k];
        let gap_ok =
            k + 1 >= reduced.correlations.len() || (rho - reduced.correlations[k + 1]).abs() > 5e-2;
        let prev_gap_ok = k == 0 || (reduced.correlations[k - 1] - rho).abs() > 5e-2;
        if rho < 0.2 || !gap_ok || !prev_gap_ok {
            continue; // direction not identifiable; correlation already checked
        }
        let cx = abs_cosine(&pr_x.col(k), &pd_x.col(k));
        let cy = abs_cosine(&pr_y.col(k), &pd_y.col(k));
        assert!(cx > 1.0 - 1e-5, "x projection {k} diverges: |cos| = {cx}");
        assert!(cy > 1.0 - 1e-5, "y projection {k} diverges: |cos| = {cy}");
    }
}

#[test]
fn reduced_matches_dense_on_random_problems() {
    for seed in [3, 11, 29] {
        let (x, y) = latent_pair(250, 6, 4, seed);
        assert_paths_equivalent(&x, &y, 4);
    }
}

#[test]
fn reduced_matches_dense_when_p_less_than_q() {
    // Wide y side exercises the transpose branch of the truncated SVD.
    let (x, y) = latent_pair(220, 3, 7, 41);
    assert_paths_equivalent(&x, &y, 3);
}

#[test]
fn reduced_matches_dense_on_rank_deficient_input() {
    // Duplicate x columns: Cxx is singular before regularization, the
    // jittered Cholesky and the ridge must keep both paths in
    // agreement.
    let (x0, y) = latent_pair(200, 3, 4, 17);
    let mut x = Matrix::zeros(x0.rows(), 5);
    for i in 0..x0.rows() {
        for j in 0..3 {
            x[(i, j)] = x0[(i, j)];
        }
        x[(i, 3)] = x0[(i, 0)]; // exact duplicates
        x[(i, 4)] = x0[(i, 1)];
    }
    assert_paths_equivalent(&x, &y, 3);
}

#[test]
fn reduced_matches_dense_on_a_clustered_top_spectrum() {
    // Fewer rows than p + q, every column independent noise: the centred
    // column spaces (dimensions 9 and 7 inside 11) intersect in at least
    // five directions, so the leading correlations are one gapless cluster
    // just under 1 (the ridge keeps them off it) — a small retrain window.
    let mut rng = StdRng::seed_from_u64(53);
    let x = Matrix::from_fn(12, 9, |_, _| rng.random_range(-1.0..1.0));
    let y = Matrix::from_fn(12, 7, |_, _| rng.random_range(-1.0..1.0));
    let correlations = fit(&x, &y, 7).correlations;
    let clustered = correlations.iter().filter(|&&r| r > 0.98).count();
    assert!(clustered >= 5, "the case lost its shape: {correlations:?}");
    assert_paths_equivalent(&x, &y, 7);
}

#[test]
fn reduced_fit_is_bitwise_identical_across_thread_counts() {
    let (x, y) = latent_pair(300, 8, 5, 71);
    let serial = qpp_par::with_threads(1, || fit(&x, &y, 4));
    let parallel = qpp_par::with_threads(8, || fit(&x, &y, 4));
    assert_eq!(serial.correlations, parallel.correlations);
    let ps = qpp_par::with_threads(1, || serial.project_x_matrix(&x));
    let pp = qpp_par::with_threads(8, || parallel.project_x_matrix(&x));
    for i in 0..ps.rows() {
        for (a, b) in ps.row(i).iter().zip(pp.row(i).iter()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "projection bits differ at row {i}"
            );
        }
    }
}

#[test]
fn truncated_svd_is_bitwise_identical_across_thread_counts() {
    // 80 columns: the Gram's output spans three of its 32-row blocks, so
    // the thread count decides who owns which elements; 1,100 rows are
    // read in nine tiles.
    let mut rng = StdRng::seed_from_u64(5);
    let m = Matrix::from_fn(1100, 80, |_, _| rng.random_range(-1.0..1.0));
    let serial = qpp_par::with_threads(1, || svd::truncated_svd(&m, 12).unwrap());
    let parallel = qpp_par::with_threads(8, || svd::truncated_svd(&m, 12).unwrap());
    for (a, b) in serial
        .singular_values
        .iter()
        .zip(parallel.singular_values.iter())
    {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(serial.u, parallel.u);
    assert_eq!(serial.v, parallel.v);
}

#[test]
fn truncated_svd_matches_dense_gram_spectrum_on_random_matrices() {
    for seed in [1, 9] {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = Matrix::from_fn(60, 40, |_, _| rng.random_range(-1.0..1.0));
        let svd = svd::truncated_svd(&m, 6).unwrap();
        let eig = qpp_linalg::SymmetricEigen::new(&m.transpose().matmul(&m).unwrap()).unwrap();
        for (k, (s, l)) in svd
            .singular_values
            .iter()
            .zip(eig.values.iter())
            .enumerate()
        {
            let want = l.max(0.0).sqrt();
            assert!(
                (s - want).abs() < 1e-8 * want.max(1.0),
                "σ[{k}] = {s} vs dense {want}"
            );
        }
    }
}
