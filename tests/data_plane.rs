//! Zero-copy data-plane equivalence: every `*_into` scratch-buffer
//! path must produce, through dirty, oversized, reused buffers, the
//! bits it produces through cold ones (and the bits its owned or
//! whole-matrix counterpart produces, where one exists), for arbitrary
//! inputs — the contract that lets the serving hot path reuse buffers
//! without changing a single output bit. Case `seed` of each property
//! runs alone from `StdRng::seed_from_u64(seed)`.

use qpp::linalg::stats::Standardizer;
use qpp::linalg::{vector, Matrix, RowPanels, PANEL_ROWS};
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

/// Cases of each property.
const CASES: u64 = 24;

/// The standardizer's row path (predict time) is bitwise-equal to
/// its whole-matrix path (fit time) on every row.
#[test]
fn standardize_row_into_matches_owned() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let data_seed = rng.random_range(0u64..1_000);
        let rows = rng.random_range(4usize..30);
        let cols = rng.random_range(1usize..8);
        let data = random_matrix(rows, cols, data_seed);
        let scaler = Standardizer::fit(&data);
        let owned = scaler.transform(&data);
        let mut scratch = vec![f64::NAN; 1];
        for i in 0..rows {
            scaler.transform_row_into(data.row(i), &mut scratch);
            assert_eq!(bits(owned.row(i)), bits(&scratch), "seed {seed}");
        }
    }
}

/// Full KCCA query projection through a dirty, oversized, reused
/// scratch yields the bits a cold one does: same projection, same
/// max kernel similarity.
#[test]
fn kcca_projection_into_matches_owned() {
    for seed in 0..CASES {
        let data_seed = StdRng::seed_from_u64(seed).random_range(0u64..200);
        let (x, y) = correlated_pair(40, 6, 3, data_seed);
        let model = Kcca::fit(x.view(), y.view(), KccaOptions::default()).unwrap();
        let probe: Vec<f64> = x.row(7).to_vec();
        let (owned, sim_owned) = project_cold(&model, &probe);

        // Dirty the scratch with a different query first, and hand in an
        // oversized, NaN-filled output buffer.
        let mut scratch = ProjectionScratch::new();
        let mut out = vec![f64::NAN; 64];
        model
            .project_query_into(x.row(21), &mut scratch, &mut out)
            .unwrap();
        // Run twice through the same scratch: the second pass must not
        // see residue from the first.
        for _ in 0..2 {
            let sim = model
                .project_query_into(&probe, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(bits(&owned), bits(&out), "seed {seed}");
            assert_eq!(sim_owned.to_bits(), sim.to_bits(), "seed {seed}");
        }
    }
}

/// kNN prediction through reused scratch is bitwise-equal to the
/// same call through cold buffers: combined metrics, neighbor ids,
/// neighbor distances.
#[test]
fn knn_predict_into_matches_owned() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let data_seed = rng.random_range(0u64..500);
        let n = rng.random_range(8usize..60);
        let k = rng.random_range(1usize..6);
        let reference = random_matrix(n, 4, data_seed);
        let targets = random_matrix(n, 6, data_seed.wrapping_add(1));
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
            assert_eq!(bits(&owned), bits(&combined), "seed {seed}");
            assert_eq!(found_owned.len(), scratch.neighbors.len(), "seed {seed}");
            for (a, b) in found_owned.iter().zip(scratch.neighbors.iter()) {
                assert_eq!(a.index, b.index, "seed {seed}");
                assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "seed {seed}");
            }
        }
    }
}

/// IVF query through reused (and dirty) scratch is bitwise-equal to
/// the owned IVF path and to the brute scan; with `nprobe == nlist`
/// the probed lists cover the whole reference, so equality is exact
/// for arbitrary inputs.
#[test]
fn ivf_query_into_matches_owned_and_brute() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let data_seed = rng.random_range(0u64..300);
        let n = rng.random_range(30usize..120);
        let k = rng.random_range(1usize..6);
        let reference = random_matrix(n, 4, data_seed);
        let ivf = IvfIndex::build(
            reference.clone(),
            DistanceMetric::Euclidean,
            IvfOptions {
                nlist: 4,
                nprobe: 4,
            },
        )
        .unwrap();
        let brute = NearestNeighbors::new(reference.clone(), DistanceMetric::Euclidean);
        let probe: Vec<f64> = reference.row(n / 3).to_vec();
        let owned = ivf.query(&probe, k);
        let exact = brute.query(&probe, k);
        assert_eq!(owned.len(), exact.len(), "seed {seed}");
        for (a, b) in owned.iter().zip(exact.iter()) {
            assert_eq!(a.index, b.index, "seed {seed}");
            assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "seed {seed}");
        }
        let mut scratch = KnnScratch::new();
        // Run twice through the same scratch: the second pass must not
        // see residue from the first.
        for _ in 0..2 {
            ivf.query_into(&probe, k, &mut scratch);
            assert_eq!(owned.len(), scratch.neighbors.len(), "seed {seed}");
            for (a, b) in owned.iter().zip(scratch.neighbors.iter()) {
                assert_eq!(a.index, b.index, "seed {seed}");
                assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "seed {seed}");
            }
        }
    }
}

/// The inline neighbor-id set behaves exactly like a Vec for any
/// length, across its inline-to-spill boundary.
#[test]
fn neighbor_ids_match_vec_semantics() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.random_range(0usize..20);
        let ids: Vec<usize> = (0..len).map(|_| rng.random_range(0usize..10_000)).collect();
        let n: NeighborIds = ids.iter().copied().collect();
        assert_eq!(n.as_slice(), ids.as_slice(), "seed {seed}");
        assert_eq!(n.len(), ids.len(), "seed {seed}");
        let collected: Vec<usize> = n.into_iter().copied().collect();
        assert_eq!(collected, ids, "seed {seed}");
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

/// Row panels hold the row-major bits: every squared distance, dot
/// product and squared norm a panel pass computes is the row-major
/// `vector` function's value bit for bit, and `gather` gives the rows
/// back, over 1..=50 rows (every remainder mod 16) of 1..=17 columns
/// with NaN and ±∞ cells, a panel closed early at a random row, and
/// probes of the rows' width.
#[test]
fn row_panels_hold_the_row_major_bits() {
    for seed in 0..128 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (n, dims) = (rng.random_range(1usize..51), rng.random_range(1usize..18));
        let mut m = random_matrix(n, dims, seed);
        for _ in 0..n / 8 {
            let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.random_range(0..3)];
            m[(rng.random_range(0..n), rng.random_range(0..dims))] = bad;
        }
        let probe = random_matrix(1, dims, seed + 1000);
        let probe = probe.row(0);
        let what = format!("seed {seed}: {n} x {dims}");

        let panels = RowPanels::from(&m);
        assert!(panels.is_well_formed(), "{what}");
        let gathered = panels.gather(0..n);
        assert_eq!(gathered.shape(), m.shape(), "{what}");
        assert_eq!(bits(gathered.as_slice()), bits(m.as_slice()), "{what}");
        let sq: Vec<u64> = panels.sq_dists(probe).map(f64::to_bits).collect();
        let want: Vec<u64> = m
            .row_iter()
            .map(|r| vector::sq_dist(probe, r).to_bits())
            .collect();
        assert_eq!(sq, want, "{what}");
        for (i, row) in m.row_iter().enumerate() {
            let (dots, squares) = panels.dots(i / PANEL_ROWS, probe);
            let lane = i % PANEL_ROWS;
            assert_eq!(
                dots[lane].to_bits(),
                vector::dot(probe, row).to_bits(),
                "{what}"
            );
            assert_eq!(
                squares[lane].to_bits(),
                vector::dot(row, row).to_bits(),
                "{what}"
            );
        }

        // Closing a panel pads it with zero rows; the next row starts
        // the next panel.
        let cut = rng.random_range(0..=n);
        let mut padded = RowPanels::from_rows(dims, m.row_iter().take(cut));
        padded.close_panel();
        let skip = padded.rows();
        assert_eq!(skip % PANEL_ROWS, 0, "{what}");
        for row in m.row_iter().skip(cut) {
            padded.push_row(row);
        }
        assert!(padded.is_well_formed(), "{what}");
        let slots = (0..cut).chain(skip..skip + n - cut);
        assert_eq!(
            bits(padded.gather(slots).as_slice()),
            bits(m.as_slice()),
            "{what}"
        );
        let zeros = padded.gather(cut..skip);
        assert!(zeros.as_slice().iter().all(|&v| v == 0.0), "{what}");
    }
}
