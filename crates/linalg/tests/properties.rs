//! Property tests over the linear-algebra substrate. Each runs its
//! cases as `StdRng::seed_from_u64(seed)` for `seed` in `0..cases`, so
//! a failure names the one seed that reruns it alone.

use qpp_linalg::{
    eigen::tridiagonal_ql, stats, vector, Cholesky, GeneralizedEigen, IcdOptions,
    IncompleteCholesky, LeastSquares, Matrix, QrDecomposition, SymmetricEigen,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

const DIM: usize = 5;

/// Cases of each dense-factorization property.
const CASES: u64 = 64;

/// `len` uniform draws from `range`.
fn draws(rng: &mut StdRng, range: Range<f64>, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.random_range(range.clone())).collect()
}

/// A well-conditioned SPD matrix built as `BᵀB + I`.
fn spd_matrix(rng: &mut StdRng) -> Matrix {
    let b = Matrix::from_vec(DIM, DIM, draws(rng, -2.0..2.0, DIM * DIM)).unwrap();
    let mut a = b.transpose().matmul(&b).unwrap();
    a.add_diagonal(1.0);
    a
}

/// An arbitrary symmetric matrix.
fn symmetric_matrix(rng: &mut StdRng) -> Matrix {
    let mut m = Matrix::from_vec(DIM, DIM, draws(rng, -3.0..3.0, DIM * DIM)).unwrap();
    m.symmetrize();
    m
}

/// Largest order the QL property test draws.
const MAX_ORDER: usize = 48;

/// `Q D Qᵀ` with `D = diag(spectrum)` and `Q` a product of one random
/// reflector per `MAX_ORDER` values: dense, with known eigenvalues.
fn with_spectrum(spectrum: &[f64], reflectors: &[f64]) -> Matrix {
    let n = spectrum.len();
    let mut a = Matrix::from_fn(n, n, |i, j| if i == j { spectrum[i] } else { 0.0 });
    for v in reflectors.chunks_exact(MAX_ORDER) {
        let vtv: f64 = v[..n].iter().map(|x| x * x).sum();
        let h = Matrix::from_fn(n, n, |i, j| {
            (if i == j { 1.0 } else { 0.0 }) - 2.0 * v[i] * v[j] / vtv.max(1e-300)
        });
        a = h.matmul(&a).unwrap().matmul(&h).unwrap();
    }
    a.symmetrize();
    a
}

#[test]
fn tridiagonal_ql_matches_known_spectra_and_the_jacobi_oracle() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(1usize..=MAX_ORDER);
        let shape = rng.random_range(0usize..5);
        let vals = draws(&mut rng, -1.0..1.0, 4 * MAX_ORDER);
        // The spectra that break eigensolvers: 0 = generic, 1 = three
        // values repeated n/3 times each, 2 = every other one exactly
        // zero, 3 = graded from 1 down to 1e-12, 4 = generic and the
        // matrix left diagonal.
        let mut spectrum: Vec<f64> = (0..n)
            .map(|i| match shape {
                1 => [2.0, -1.0, 0.5][i % 3],
                2 if i % 2 == 1 => 0.0,
                3 => 10f64.powf(-12.0 * i as f64 / (n.max(2) - 1) as f64),
                _ => vals[i],
            })
            .collect();
        let a = with_spectrum(&spectrum, if shape == 4 { &[] } else { &vals[MAX_ORDER..] });
        spectrum.sort_by(|x, y| y.total_cmp(x));
        let (values, vectors) = tridiagonal_ql(&a).unwrap();
        let oracle = SymmetricEigen::new(&a).unwrap();
        let norm = spectrum.iter().fold(0.0f64, |m, l| m.max(l.abs()));
        // Jacobi stops at a mean off-diagonal magnitude it reports; by
        // Gershgorin its eigenvalues are within that, summed over the
        // matrix, of the truth, and no solver can be held closer to it.
        let oracle_slack = oracle.off_diagonal_residual * (n * n) as f64;
        let what = format!("seed {seed} order {n} shape {shape}");
        for ((got, known), jacobi) in values.iter().zip(&spectrum).zip(&oracle.values) {
            assert!(
                (got - known).abs() <= 1e-12 * norm,
                "{what}: {got} vs {known}"
            );
            let slack = 1e-12 * norm + oracle_slack;
            assert!(
                (got - jacobi).abs() <= slack,
                "{what}: {got} vs jacobi {jacobi}"
            );
        }
        let lambda = Matrix::from_fn(n, n, |i, j| if i == j { values[i] } else { 0.0 });
        let av = a.matmul(&vectors).unwrap();
        let residual = av.sub(&vectors.matmul(&lambda).unwrap()).unwrap();
        let max = residual.max_abs();
        assert!(max <= 1e-10, "{what}: ‖AV − VΛ‖ = {max:e}");
        let vtv = vectors.transpose().matmul(&vectors).unwrap();
        let drift = vtv.sub(&Matrix::identity(n)).unwrap().max_abs();
        assert!(drift <= 1e-10, "{what}: ‖VᵀV − I‖ = {drift:e}");
    }
}

#[test]
fn cholesky_reconstructs() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = spd_matrix(&mut rng);
        let c = Cholesky::new(&a).unwrap();
        let l = c.l();
        let rec = l.matmul(&l.transpose()).unwrap();
        assert!(rec.sub(&a).unwrap().max_abs() < 1e-8, "seed {seed}");
    }
}

#[test]
fn cholesky_solve_is_inverse() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = spd_matrix(&mut rng);
        let b = draws(&mut rng, -5.0..5.0, DIM);
        let c = Cholesky::new(&a).unwrap();
        let x = c.solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (got, want) in ax.iter().zip(b.iter()) {
            assert!((got - want).abs() < 1e-6, "seed {seed}: {got} vs {want}");
        }
    }
}

#[test]
fn eigen_reconstructs_symmetric() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = symmetric_matrix(&mut rng);
        let e = SymmetricEigen::new(&a).unwrap();
        let mut lam = Matrix::zeros(DIM, DIM);
        for i in 0..DIM {
            lam[(i, i)] = e.values[i];
        }
        let rec = e.vectors.matmul(&lam).unwrap();
        let rec = rec.matmul(&e.vectors.transpose()).unwrap();
        assert!(rec.sub(&a).unwrap().max_abs() < 1e-7, "seed {seed}");
    }
}

#[test]
fn eigen_values_sorted_descending() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let e = SymmetricEigen::new(&symmetric_matrix(&mut rng)).unwrap();
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "seed {seed}: {w:?}");
        }
    }
}

#[test]
fn eigen_trace_preserved() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = symmetric_matrix(&mut rng);
        let e = SymmetricEigen::new(&a).unwrap();
        let trace: f64 = (0..DIM).map(|i| a[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-8, "seed {seed}: {trace} vs {sum}");
    }
}

#[test]
fn generalized_eigen_residual_small() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = symmetric_matrix(&mut rng);
        let b = spd_matrix(&mut rng);
        let g = GeneralizedEigen::new(&a, &b).unwrap();
        for k in 0..DIM {
            let v = g.vectors.col(k);
            let av = a.matvec(&v).unwrap();
            let bv = b.matvec(&v).unwrap();
            for i in 0..DIM {
                let r = av[i] - g.values[k] * bv[i];
                assert!(r.abs() < 1e-5, "seed {seed}: pair {k} residual {r:e}");
            }
        }
    }
}

#[test]
fn qr_solves_square_systems() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = spd_matrix(&mut rng);
        let b = draws(&mut rng, -5.0..5.0, DIM);
        // SPD matrices are invertible, so QR must solve exactly.
        let qr = QrDecomposition::new(&a).unwrap();
        let x = qr.solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (got, want) in ax.iter().zip(b.iter()) {
            assert!((got - want).abs() < 1e-6, "seed {seed}: {got} vs {want}");
        }
    }
}

#[test]
fn least_squares_recovers_exact_linear_model() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let coefs = draws(&mut rng, -3.0..3.0, 3);
        let rows = rng.random_range(8usize..20);
        let x = Matrix::from_vec(rows, 2, draws(&mut rng, -5.0..5.0, 2 * rows)).unwrap();
        let mut y = Matrix::zeros(rows, 1);
        for i in 0..rows {
            y[(i, 0)] = coefs[0] + coefs[1] * x[(i, 0)] + coefs[2] * x[(i, 1)];
        }
        let ls = LeastSquares::fit(&x, &y).unwrap();
        let p = ls.predict(&[1.5, -2.5]).unwrap();
        let expected = coefs[0] + coefs[1] * 1.5 - coefs[2] * 2.5;
        assert!(
            (p[0] - expected).abs() < 1e-5,
            "seed {seed}: {} vs {expected}",
            p[0]
        );
    }
}

#[test]
fn icd_never_overshoots_diag() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let vals = draws(&mut rng, -2.0..2.0, DIM * 3);
        // Points in 3-d; Gaussian kernel Gram matrix.
        let pts: Vec<&[f64]> = vals.chunks_exact(3).collect();
        let n = pts.len();
        let kern = |i: usize, j: usize| {
            let d: f64 = pts[i]
                .iter()
                .zip(pts[j].iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            (-d / 2.0).exp()
        };
        let opts = IcdOptions {
            max_rank: n,
            relative_tolerance: 0.0,
        };
        let icd = IncompleteCholesky::factor(n, kern, opts).unwrap();
        let g = icd.g();
        let approx = g.matmul(&g.transpose()).unwrap();
        for i in 0..n {
            for j in 0..n {
                let err = approx[(i, j)] - kern(i, j);
                assert!(err.abs() < 1e-7, "seed {seed}: ({i}, {j}) off by {err:e}");
            }
        }
    }
}

#[test]
fn matmul_associative() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::from_vec(3, 4, draws(&mut rng, -2.0..2.0, 12)).unwrap();
        let b = Matrix::from_vec(4, 3, draws(&mut rng, -2.0..2.0, 12)).unwrap();
        let c = Matrix::from_vec(3, 4, draws(&mut rng, -2.0..2.0, 12)).unwrap();
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        assert!(left.sub(&right).unwrap().max_abs() < 1e-9, "seed {seed}");
    }
}

#[test]
fn transpose_involution() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = Matrix::from_vec(3, 4, draws(&mut rng, -10.0..10.0, 12)).unwrap();
        assert_eq!(m.transpose().transpose(), m, "seed {seed}");
    }
}

#[test]
fn blocked_gemv_is_bitwise_equal_to_naive_loop() {
    for seed in 0..256 {
        let mut rng = StdRng::seed_from_u64(seed);
        // Odd shapes on purpose: cols spans sub-block, block-remainder,
        // and multi-block widths so every lane/remainder path runs.
        let rows = rng.random_range(1usize..24);
        let cols = rng.random_range(1usize..40);
        let vals = draws(&mut rng, -3.0..3.0, 24 * 40 + 2 * 24);
        let w = Matrix::from_vec(rows, cols, vals[..rows * cols].to_vec()).unwrap();
        let row = &vals[rows * cols..rows * cols + rows];
        let mut means: Vec<f64> = vals[rows * cols + rows..rows * cols + 2 * rows].to_vec();
        // Force some exact zero centers to exercise the skip branch.
        if rows > 2 {
            means[1] = row[1];
        }
        // The naive kernel the blocked gemv replaced in Cca::project_into.
        let mut naive = vec![0.0; cols];
        for i in 0..rows {
            let c = row[i] - means[i];
            if c == 0.0 {
                continue;
            }
            for (k, o) in naive.iter_mut().enumerate() {
                *o += c * w[(i, k)];
            }
        }
        let mut blocked = Vec::new();
        w.gemv_t_centered_into(row, &means, &mut blocked);
        assert_eq!(blocked.len(), naive.len(), "seed {seed}");
        for (b, n) in blocked.iter().zip(naive.iter()) {
            assert_eq!(b.to_bits(), n.to_bits(), "seed {seed}: {rows} x {cols}");
        }
    }
}

/// The factorization `IncompleteCholesky::factor` replaced, kept as its
/// oracle: `G` column-major (column `t` at `cols[t * n..]`), each row's
/// residual update striding `n` through every earlier column, and the
/// transpose to `n x r` at the end. Same pivot rule, same stopping rule.
fn column_major_icd(
    n: usize,
    gram: impl Fn(usize, usize) -> f64,
    opts: IcdOptions,
) -> (Matrix, Vec<usize>, f64) {
    let max_rank = opts.max_rank.min(n);
    let mut d: Vec<f64> = (0..n).map(|i| gram(i, i)).collect();
    let tol = opts.relative_tolerance * vector::sum(&d); // a Gaussian kernel's trace is n
    let remaining = |d: &[f64], selected: &[bool]| {
        vector::sum_iter(
            d.iter()
                .zip(selected)
                .filter(|(_, &s)| !s)
                .map(|(v, _)| v.max(0.0)),
        )
    };
    let (mut cols, mut pivots, mut selected) = (Vec::<f64>::new(), Vec::new(), vec![false; n]);
    for t in 0..max_rank {
        let (mut p, mut best) = (usize::MAX, 0.0);
        for i in 0..n {
            if !selected[i] && d[i] > best {
                (p, best) = (i, d[i]);
            }
        }
        if p == usize::MAX || best <= 0.0 || (t > 0 && remaining(&d, &selected) <= tol) {
            break;
        }
        let gpp = best.sqrt();
        let mut col = vec![0.0; n];
        for i in (0..n).filter(|&i| !selected[i] && i != p) {
            let mut v = gram(i, p);
            for prev in cols.chunks_exact(n) {
                v -= prev[i] * prev[p];
            }
            col[i] = v / gpp;
            d[i] -= col[i] * col[i];
        }
        col[p] = gpp;
        cols.extend(col);
        selected[p] = true;
        d[p] = 0.0;
        pivots.push(p);
    }
    let g = Matrix::from_fn(n, pivots.len(), |i, t| cols[t * n + i]);
    (g, pivots, remaining(&d, &selected))
}

#[test]
fn row_major_icd_is_bitwise_equal_to_the_column_major_oracle() {
    for seed in 0..12 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(60usize..160);
        let width = rng.random_range(0.05f64..0.5);
        let coords = draws(&mut rng, -2.0..2.0, 2 * 160);
        let kern = |i: usize, j: usize| {
            let (a, b) = (&coords[2 * i..2 * i + 2], &coords[2 * j..2 * j + 2]);
            (-vector::sq_dist(a, b) / width).exp()
        };
        // Capped below n (G reserved once); uncapped and stopped by the
        // tolerance, and a cap above n (the doubling is clamped to n):
        // both pass rank 32, so their stride doubles from 32.
        let cases = [
            IcdOptions {
                max_rank: 48,
                relative_tolerance: 0.0,
            },
            IcdOptions {
                max_rank: usize::MAX,
                relative_tolerance: 1e-3,
            },
            IcdOptions {
                max_rank: n + 7,
                relative_tolerance: 0.0,
            },
        ];
        for (case, opts) in cases.into_iter().enumerate() {
            let icd = IncompleteCholesky::factor(n, kern, opts).unwrap();
            let (g, pivots, residual) = column_major_icd(n, kern, opts);
            let what = format!("seed {seed} case {case}");
            assert!(icd.rank() > 32, "{what}: rank {} of {n}", icd.rank());
            if case == 1 {
                assert!(icd.rank() < n, "{what}: rank {} of {n}", icd.rank());
            }
            assert!(icd.pivots() == pivots, "{what}: pivots differ");
            assert!(
                icd.g().shape() == g.shape() && bits(icd.g()) == bits(&g),
                "{what}: G differs"
            );
            let same = icd.residual_trace().to_bits() == residual.to_bits();
            assert!(same, "{what}: residual differs");
        }
    }
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn panel_icd_edges_are_bitwise_equal_to_the_column_major_oracle() {
    // G is held as 16-row panels while it factors. n ≡ 15, 0, 1 and 15
    // mod 16, the first a single partial panel; per n, a cap the rank
    // reaches (r == stride), a tolerance stop below a cap (r < stride:
    // the in-place conversion back to row-major closes the gap), and an
    // uncapped run, past the first doubling of the stride from 32 when
    // n allows. Every row is a pivot in the last, so one falls in the
    // padded last panel.
    let coords: Vec<f64> = (0..2 * 64).map(|k| 2.0 * (k as f64 * 0.61).sin()).collect();
    let kern = |i: usize, j: usize| {
        let (a, b) = (&coords[2 * i..2 * i + 2], &coords[2 * j..2 * j + 2]);
        (-vector::sq_dist(a, b) / 0.2).exp()
    };
    for n in [15, 48, 49, 63] {
        let cases = [(12, 0.0), (n - 1, 0.05), (usize::MAX, 0.0)];
        for (max_rank, relative_tolerance) in cases {
            let opts = IcdOptions {
                max_rank,
                relative_tolerance,
            };
            let icd = IncompleteCholesky::factor(n, kern, opts).unwrap();
            let (g, pivots, residual) = column_major_icd(n, kern, opts);
            let what = format!("n {n}, cap {max_rank}, tolerance {relative_tolerance}");
            match max_rank {
                12 => assert_eq!(icd.rank(), 12, "{what}"),
                usize::MAX => {
                    assert_eq!(icd.rank(), n, "{what}");
                    assert!(n < 32 || icd.rank() > 32, "{what}");
                }
                _ => assert!(icd.rank() < max_rank, "{what}: rank {}", icd.rank()),
            }
            assert_eq!(icd.pivots(), pivots, "{what}");
            assert_eq!(bits(icd.g()), bits(&g), "{what}");
            assert_eq!(icd.residual_trace().to_bits(), residual.to_bits(), "{what}");
        }
    }
}

/// `Matrix::gram`'s oracle: each element one serial sum over the rows in
/// ascending order, both triangles computed.
fn per_element_gram(m: &Matrix) -> Matrix {
    let sum = |a, b| m.row_iter().fold(0.0, |sum, row| sum + row[a] * row[b]);
    Matrix::from_fn(m.cols(), m.cols(), sum)
}

#[test]
fn gram_is_bitwise_equal_to_per_element_serial_sums() {
    // Rows cover each remainder of the four-row pass and, past 128, more
    // than one input tile; columns the edges of the 32-row output blocks.
    for rows in [1, 3, 4, 5, 513, 1027] {
        for cols in [1, 31, 32, 33, 80] {
            let m = Matrix::from_fn(rows, cols, |i, j| ((i * cols + j) as f64 * 0.7).sin());
            let oracle = per_element_gram(&m);
            assert_eq!(bits(&m.gram()), bits(&oracle), "{rows} x {cols}");
        }
    }
}

#[test]
fn centred_gram_is_bitwise_equal_to_per_element_serial_sums() {
    // Each element is the serial sum of `(x_ia − x̄_a)(z_ib − z̄_b)` over
    // `[x | y]` in row order. A 32-column block edge falls inside x, on
    // the seam and inside y; the rows cover each n mod 4 and two tiles.
    for (p, q) in [(40, 9), (32, 17), (9, 40)] {
        for n in [1, 2, 3, 4, 129, 262] {
            let z = Matrix::from_fn(n, p + q, |i, j| ((i * (p + q) + j) as f64 * 0.37).cos());
            let means = stats::column_means(&z);
            let centred = Matrix::from_fn(n, p + q, |i, j| z[(i, j)] - means[j]);
            let oracle = bits(&per_element_gram(&centred));
            let (x, y) = (z.block(0, 0, n, p), z.block(0, p, n, q));
            let gram = Matrix::centred_gram(&x, &means[..p], &y, &means[p..]);
            assert_eq!(bits(&gram), oracle, "{n} x {p}+{q}");
        }
    }
}
