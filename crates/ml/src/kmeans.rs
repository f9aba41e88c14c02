//! K-means clustering (paper §V-B).
//!
//! Considered and rejected by the paper: clustering works on a *single*
//! dataset, so query-feature clusters need not align with
//! performance-feature clusters. Retained here as the coarse quantizer
//! that partitions the kNN reference set ([`crate::ann::IvfIndex`]),
//! its only caller.
//!
//! Because the ANN build (and through it the qpp-adapt retrain loop)
//! calls [`KMeans::fit`] with runtime-sized windows, it degrades into a typed
//! [`KMeansError`] instead of panicking, and non-finite rows are
//! skipped exactly like `knn.rs::query` skips non-finite distances: a
//! corrupt row can neither become a centroid nor poison the k-means++
//! roulette.

// Triangular solves and centroid updates read most clearly with index
// loops; the iterator forms clippy suggests obscure the math.
#![allow(clippy::needless_range_loop)]

use qpp_linalg::{vector, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Errors from [`KMeans::fit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KMeansError {
    /// `k` must satisfy `1 <= k <= n` for `n` data rows.
    DegenerateK {
        /// Requested cluster count.
        k: usize,
        /// Rows in the data matrix.
        n: usize,
    },
    /// Every input row carries a non-finite component, so no centroid
    /// can be seeded.
    NoFiniteRows,
}

impl fmt::Display for KMeansError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KMeansError::DegenerateK { k, n } => {
                write!(f, "k-means needs 1 <= k <= n, got k={k} with n={n} rows")
            }
            KMeansError::NoFiniteRows => {
                write!(f, "k-means input has no fully finite row to seed from")
            }
        }
    }
}

impl std::error::Error for KMeansError {}

/// A fitted k-means model.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Cluster centroids as rows (`k x p`).
    pub centroids: Matrix,
}

impl KMeans {
    /// Fits k-means with k-means++-style seeding, deterministic under
    /// `seed`.
    ///
    /// A degenerate request (`k` outside `1..=n`) or an input with no
    /// fully finite row returns a typed [`KMeansError`] — this runs
    /// inside serve workers (ANN build, adaptive retrains), where a
    /// panic would tear the worker down. Rows containing non-finite
    /// components are skipped throughout: they are never chosen as
    /// seeds (a NaN distance used to turn the seeding roulette's `total`
    /// into NaN, failing the `total <= 0.0` guard and silently electing
    /// row `n-1` every round) and they do not contribute to centroid
    /// updates.
    pub fn fit(
        data: &Matrix,
        k: usize,
        seed: u64,
        max_iters: usize,
    ) -> Result<KMeans, KMeansError> {
        let n = data.rows();
        let p = data.cols();
        if k < 1 || k > n {
            return Err(KMeansError::DegenerateK { k, n });
        }
        let finite: Vec<bool> = (0..n)
            .map(|i| data.row(i).iter().all(|v| v.is_finite()))
            .collect();
        let finite_count = finite.iter().filter(|&&f| f).count();
        if finite_count == 0 {
            return Err(KMeansError::NoFiniteRows);
        }
        // `chosen` falls back to the last usable row when the roulette
        // roll survives every decrement (floating-point slack), mirroring
        // the historical `n - 1` fallback restricted to finite rows.
        let last_finite = finite.iter().rposition(|&f| f).unwrap_or(0); // finite_count > 0 guarantees a hit
        let mut rng = StdRng::seed_from_u64(seed);
        let nth_finite = |target: usize| -> usize {
            let mut seen = 0;
            for i in 0..n {
                if finite[i] {
                    if seen == target {
                        return i;
                    }
                    seen += 1;
                }
            }
            last_finite
        };

        // k-means++ seeding over the finite rows.
        let mut centroids = Matrix::zeros(k, p);
        let first = nth_finite(rng.random_range(0..finite_count));
        centroids.row_mut(0).copy_from_slice(data.row(first));
        // Non-finite rows keep a NaN distance and are filtered wherever
        // `min_d2` is consumed — the same skip `knn.rs::query` applies
        // to non-finite neighbor distances.
        let mut min_d2: Vec<f64> = (0..n)
            .map(|i| {
                if finite[i] {
                    vector::sq_dist(data.row(i), centroids.row(0))
                } else {
                    f64::NAN
                }
            })
            .collect();
        for c in 1..k {
            let total = vector::sum_iter(min_d2.iter().copied().filter(|d| d.is_finite()));
            // The non-finite check is defensive: the summed terms are
            // all finite, but a pathological sum could still overflow.
            let pick = if !total.is_finite() || total <= 0.0 {
                nth_finite(rng.random_range(0..finite_count))
            } else {
                let mut roll = rng.random_range(0.0..total);
                let mut chosen = last_finite;
                for (i, &d) in min_d2.iter().enumerate() {
                    if !d.is_finite() {
                        continue;
                    }
                    roll -= d;
                    if roll <= 0.0 {
                        chosen = i;
                        break;
                    }
                }
                chosen
            };
            centroids.row_mut(c).copy_from_slice(data.row(pick));
            for i in 0..n {
                if !finite[i] {
                    continue;
                }
                let d = vector::sq_dist(data.row(i), centroids.row(c));
                if d < min_d2[i] {
                    min_d2[i] = d;
                }
            }
        }

        // Lloyd iterations over the finite rows.
        let mut assignment = vec![0usize; n];
        for it in 0..max_iters {
            let mut changed = false;
            for i in 0..n {
                if !finite[i] {
                    continue;
                }
                let mut best = (0usize, f64::INFINITY);
                for c in 0..k {
                    let d = vector::sq_dist(data.row(i), centroids.row(c));
                    if d < best.1 {
                        best = (c, d);
                    }
                }
                if assignment[i] != best.0 {
                    assignment[i] = best.0;
                    changed = true;
                }
            }
            if !changed && it > 0 {
                break;
            }
            let mut sums = Matrix::zeros(k, p);
            let mut counts = vec![0usize; k];
            for i in 0..n {
                if !finite[i] {
                    continue;
                }
                let c = assignment[i];
                counts[c] += 1;
                vector::axpy(1.0, data.row(i), sums.row_mut(c));
            }
            for c in 0..k {
                if counts[c] > 0 {
                    let inv = 1.0 / counts[c] as f64;
                    for v in sums.row_mut(c) {
                        *v *= inv;
                    }
                    centroids.row_mut(c).copy_from_slice(sums.row(c));
                }
                // Empty clusters keep their previous centroid.
            }
        }
        Ok(KMeans { centroids })
    }

    /// Cluster index of a point.
    pub fn assign(&self, point: &[f64]) -> usize {
        let mut best = (0usize, f64::INFINITY);
        for c in 0..self.centroids.rows() {
            let d = vector::sq_dist(point, self.centroids.row(c));
            if d < best.1 {
                best = (c, d);
            }
        }
        best.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Matrix {
        let mut rows = Vec::new();
        for i in 0..20 {
            let j = (i % 5) as f64 * 0.01;
            rows.push(vec![0.0 + j, 0.0 + j]);
            rows.push(vec![10.0 + j, 10.0 + j]);
        }
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn separates_two_blobs() {
        let data = blobs();
        let km = KMeans::fit(&data, 2, 7, 50).unwrap();
        let a = km.assign(&[0.0, 0.0]);
        let b = km.assign(&[10.0, 10.0]);
        assert_ne!(a, b);
        // Every row joins its own blob's cell, whose centroid sits
        // inside that blob.
        for i in 0..data.rows() {
            let row = data.row(i);
            let cell = if row[0] < 5.0 { a } else { b };
            assert_eq!(km.assign(row), cell, "row {i}");
            assert!(vector::sq_dist(row, km.centroids.row(cell)) < 0.01);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = KMeans::fit(&blobs(), 2, 3, 50).unwrap();
        let b = KMeans::fit(&blobs(), 2, 3, 50).unwrap();
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn k_equals_n_puts_every_row_on_its_own_centroid() {
        let data = Matrix::from_rows(&[vec![0.0], vec![5.0], vec![9.0]]).unwrap();
        let km = KMeans::fit(&data, 3, 1, 50).unwrap();
        let mut cells: Vec<usize> = (0..3).map(|i| km.assign(data.row(i))).collect();
        for (i, &c) in cells.iter().enumerate() {
            assert_eq!(km.centroids.row(c), data.row(i), "row {i}");
        }
        cells.sort_unstable();
        assert_eq!(cells, [0, 1, 2]);
    }

    #[test]
    fn rejects_k_larger_than_n_with_typed_error() {
        // Used to be an `assert!` that tore down the calling worker; the
        // ANN build and adaptive retrains reach this with runtime-sized
        // windows, so it must degrade into a typed error.
        let data = Matrix::from_rows(&[vec![0.0]]).unwrap();
        assert_eq!(
            KMeans::fit(&data, 2, 1, 10).err(),
            Some(KMeansError::DegenerateK { k: 2, n: 1 })
        );
        assert_eq!(
            KMeans::fit(&data, 0, 1, 10).err(),
            Some(KMeansError::DegenerateK { k: 0, n: 1 })
        );
    }

    #[test]
    fn non_finite_rows_are_skipped() {
        // Mirror of knn.rs `non_finite_reference_rows_are_skipped`: one
        // corrupt row must neither seed a centroid nor poison the
        // roulette. Before the fix, its NaN `min_d2` entry made `total`
        // NaN, the `total <= 0.0` guard failed, and the roulette fell
        // through to `chosen = n - 1` every round.
        let mut rows = Vec::new();
        for i in 0..10 {
            let j = i as f64 * 0.01;
            rows.push(vec![0.0 + j, 0.0 + j]);
            rows.push(vec![10.0 + j, 10.0 + j]);
        }
        rows.push(vec![f64::NAN, 0.0]);
        rows.push(vec![f64::INFINITY, f64::INFINITY]);
        let data = Matrix::from_rows(&rows).unwrap();
        for seed in 0..32 {
            let km = KMeans::fit(&data, 2, seed, 50).unwrap();
            assert!(
                km.centroids.is_finite(),
                "seed {seed} produced a non-finite centroid: {:?}",
                km.centroids
            );
            assert_ne!(km.assign(&[0.0, 0.0]), km.assign(&[10.0, 10.0]));
        }
    }

    #[test]
    fn nan_poisoned_roulette_no_longer_elects_the_last_row() {
        // Regression for the exact fall-through: with a NaN row anywhere,
        // every k-means++ round used to pick row n-1. Put a far outlier
        // at n-1; under the bug both centroids collapse onto it for all
        // seeds. Fixed, the outlier may legitimately win the roulette for
        // some seeds, but not *every* centroid for *every* seed.
        let mut rows = vec![vec![f64::NAN, 0.0]];
        for i in 0..20 {
            rows.push(vec![i as f64 * 0.01, 0.0]);
        }
        rows.push(vec![1e6, 1e6]);
        let data = Matrix::from_rows(&rows).unwrap();
        let n = data.rows();
        let mut centroids_on_outlier = 0;
        let mut centroids_total = 0;
        for seed in 0..16 {
            let km = KMeans::fit(&data, 3, seed, 0).unwrap();
            for c in 0..3 {
                centroids_total += 1;
                if km.centroids.row(c) == data.row(n - 1) {
                    centroids_on_outlier += 1;
                }
            }
        }
        assert!(
            centroids_on_outlier < centroids_total / 2,
            "{centroids_on_outlier}/{centroids_total} seeded centroids landed on the \
             NaN-roulette fall-through row"
        );
    }

    #[test]
    fn all_corrupt_input_is_a_typed_error() {
        let data = Matrix::from_rows(&[vec![f64::NAN, 1.0], vec![2.0, f64::NEG_INFINITY]]).unwrap();
        assert_eq!(
            KMeans::fit(&data, 1, 0, 10).err(),
            Some(KMeansError::NoFiniteRows)
        );
    }
}
