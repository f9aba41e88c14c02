//! Zero-copy data-plane equivalence: every `*_into` scratch-buffer
//! path must produce, through dirty, oversized, reused buffers, the
//! bits it produces through cold ones (and the bits its owned or
//! whole-matrix counterpart produces, where one exists), for arbitrary
//! inputs — the contract that lets the serving hot path reuse buffers
//! without changing a single output bit.

use proptest::prelude::*;
use qpp::linalg::stats::Standardizer;
use qpp::linalg::Matrix;
use qpp::ml::{
    DistanceMetric, IvfIndex, IvfOptions, Kcca, KccaOptions, KnnScratch, NearestNeighbors,
    NeighborWeighting, ProjectionScratch,
};
use qpp_core::NeighborIds;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Matrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            m[(i, j)] = rng.random_range(-3.0..3.0);
        }
    }
    m
}

fn correlated_pair(n: usize, dx: usize, dy: usize, seed: u64) -> (Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Matrix::zeros(n, dx);
    let mut y = Matrix::zeros(n, dy);
    for i in 0..n {
        let mut norm = 0.0;
        for j in 0..dx {
            let v = rng.random_range(-2.0..2.0);
            x[(i, j)] = v;
            norm += v * v;
        }
        for j in 0..dy {
            y[(i, j)] = norm.sqrt() * (j as f64 + 1.0) + 0.05 * rng.random_range(-1.0..1.0);
        }
    }
    (x, y)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `project_query_into` through fresh buffers: the projection and the
/// max kernel similarity.
fn project_cold(model: &Kcca, features: &[f64]) -> (Vec<f64>, f64) {
    let mut out = Vec::new();
    let similarity = model
        .project_query_into(features, &mut ProjectionScratch::new(), &mut out)
        .unwrap();
    (out, similarity)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The standardizer's row path (predict time) is bitwise-equal to
    /// its whole-matrix path (fit time) on every row.
    #[test]
    fn standardize_row_into_matches_owned(seed in 0u64..1_000, rows in 4usize..30, cols in 1usize..8) {
        let data = random_matrix(rows, cols, seed);
        let scaler = Standardizer::fit(&data);
        let owned = scaler.transform(&data);
        let mut scratch = vec![f64::NAN; 1];
        for i in 0..rows {
            scaler.transform_row_into(data.row(i), &mut scratch);
            prop_assert_eq!(bits(owned.row(i)), bits(&scratch));
        }
    }

    /// Full KCCA query projection through a dirty, oversized, reused
    /// scratch yields the bits a cold one does: same projection, same
    /// max kernel similarity.
    #[test]
    fn kcca_projection_into_matches_owned(seed in 0u64..200) {
        let (x, y) = correlated_pair(40, 6, 3, seed);
        let model = Kcca::fit(x.view(), y.view(), KccaOptions::default()).unwrap();
        let probe: Vec<f64> = x.row(7).to_vec();
        let (owned, sim_owned) = project_cold(&model, &probe);

        // Dirty the scratch with a different query first, and hand in an
        // oversized, NaN-filled output buffer.
        let mut scratch = ProjectionScratch::new();
        let mut out = vec![f64::NAN; 64];
        model.project_query_into(x.row(21), &mut scratch, &mut out).unwrap();
        // Run twice through the same scratch: the second pass must not
        // see residue from the first.
        for _ in 0..2 {
            let sim = model.project_query_into(&probe, &mut scratch, &mut out).unwrap();
            prop_assert_eq!(bits(&owned), bits(&out));
            prop_assert_eq!(sim_owned.to_bits(), sim.to_bits());
        }
    }

    /// kNN prediction through reused scratch is bitwise-equal to the
    /// same call through cold buffers: combined metrics, neighbor ids,
    /// neighbor distances.
    #[test]
    fn knn_predict_into_matches_owned(seed in 0u64..500, n in 8usize..60, k in 1usize..6) {
        let reference = random_matrix(n, 4, seed);
        let targets = random_matrix(n, 6, seed.wrapping_add(1));
        let probe: Vec<f64> = reference.row(n / 3).to_vec();
        let knn = NearestNeighbors::new(reference, DistanceMetric::Euclidean);

        let mut cold = KnnScratch::new();
        let mut owned = Vec::new();
        knn.predict_into(
            &probe,
            &targets,
            k,
            NeighborWeighting::InverseDistance,
            &mut cold,
            &mut owned,
        )
        .unwrap();
        let found_owned = cold.neighbors;

        // Dirty the scratch with a different probe and a larger k first.
        let mut scratch = KnnScratch::new();
        let mut combined = vec![f64::NAN; 1];
        knn.predict_into(
            &[0.5; 4],
            &targets,
            k + 2,
            NeighborWeighting::Equal,
            &mut scratch,
            &mut combined,
        )
        .unwrap();
        for _ in 0..2 {
            knn.predict_into(
                &probe,
                &targets,
                k,
                NeighborWeighting::InverseDistance,
                &mut scratch,
                &mut combined,
            )
            .unwrap();
            prop_assert_eq!(bits(&owned), bits(&combined));
            prop_assert_eq!(found_owned.len(), scratch.neighbors.len());
            for (a, b) in found_owned.iter().zip(scratch.neighbors.iter()) {
                prop_assert_eq!(a.index, b.index);
                prop_assert_eq!(a.distance.to_bits(), b.distance.to_bits());
            }
        }
    }

    /// IVF query through reused (and dirty) scratch is bitwise-equal to
    /// the owned IVF path and to the brute scan; with `nprobe == nlist`
    /// the probed lists cover the whole reference, so equality is exact
    /// for arbitrary inputs.
    #[test]
    fn ivf_query_into_matches_owned_and_brute(seed in 0u64..300, n in 30usize..120, k in 1usize..6) {
        let reference = random_matrix(n, 4, seed);
        let ivf = IvfIndex::build(
            reference.clone(),
            DistanceMetric::Euclidean,
            IvfOptions { nlist: 4, nprobe: 4 },
        )
        .unwrap();
        let brute = NearestNeighbors::new(reference.clone(), DistanceMetric::Euclidean);
        let probe: Vec<f64> = reference.row(n / 3).to_vec();
        let owned = ivf.query(&probe, k);
        let exact = brute.query(&probe, k);
        prop_assert_eq!(owned.len(), exact.len());
        for (a, b) in owned.iter().zip(exact.iter()) {
            prop_assert_eq!(a.index, b.index);
            prop_assert_eq!(a.distance.to_bits(), b.distance.to_bits());
        }
        let mut scratch = KnnScratch::new();
        // Run twice through the same scratch: the second pass must not
        // see residue from the first.
        for _ in 0..2 {
            ivf.query_into(&probe, k, &mut scratch);
            prop_assert_eq!(owned.len(), scratch.neighbors.len());
            for (a, b) in owned.iter().zip(scratch.neighbors.iter()) {
                prop_assert_eq!(a.index, b.index);
                prop_assert_eq!(a.distance.to_bits(), b.distance.to_bits());
            }
        }
    }

    /// The inline neighbor-id set behaves exactly like a Vec for any
    /// length, across its inline-to-spill boundary.
    #[test]
    fn neighbor_ids_match_vec_semantics(ids in proptest::collection::vec(0usize..10_000, 0..20)) {
        let n: NeighborIds = ids.iter().copied().collect();
        prop_assert_eq!(n.as_slice(), ids.as_slice());
        prop_assert_eq!(n.len(), ids.len());
        let collected: Vec<usize> = n.into_iter().copied().collect();
        prop_assert_eq!(collected, ids);
    }
}

/// Projecting the rows of a borrowed matrix view one after another
/// through a single shared scratch — what every predicting thread does
/// — equals projecting each through cold buffers: reuse across
/// *different* queries introduces no drift.
#[test]
fn batch_projection_matches_rowwise_owned() {
    let (x, y) = correlated_pair(60, 8, 4, 77);
    let model = Kcca::fit(x.view(), y.view(), KccaOptions::default()).unwrap();
    let mut scratch = ProjectionScratch::new();
    let mut proj = Vec::new();
    for row in x.view().row_iter() {
        let sim = model
            .project_query_into(row, &mut scratch, &mut proj)
            .unwrap();
        let (owned, sim_owned) = project_cold(&model, row);
        assert_eq!(bits(&owned), bits(&proj));
        assert_eq!(sim_owned.to_bits(), sim.to_bits());
    }
}
