//! IVF-vs-brute-force equivalence suite — the correctness oracle for
//! the neighbor index (DESIGN.md §8), whose exact arm serves every model
//! up to `ivf_threshold` rows.
//!
//! The IVF rescan is exact over the probed cells, so whenever those
//! cells cover the true top-k the result must be *bitwise* identical to
//! the serial brute scan: same neighbor indices, same distance bits,
//! same `(distance, index)` tie-breaking. Exhaustive probing
//! (`nprobe == nlist`, the exact arm) guarantees coverage
//! unconditionally; clustered data with the default probe width
//! exercises the approximate regime. The list bound that skips far
//! lists must change no answer of either.
//! Every comparison is repeated under 1 and 8 worker threads — results
//! must not depend on the thread count, at build time or query time.
//!
//! Both arms are one panel scan (16 rows at a time over column-interleaved
//! panels, keyed by squared distance, early abandon); a property test
//! holds it to the one-row-at-a-time loop it replaced, written out here,
//! under both metrics.
//!
//! `ci.sh` gates on this suite actually running (all 10 tests), the
//! same pattern as the svd_equivalence gate.

use qpp_linalg::{vector, Matrix};
use qpp_ml::{
    AnnIndex, AnnOptions, DistanceMetric, IvfIndex, IvfOptions, KnnScratch, NearestNeighbors,
    Neighbor, NeighborWeighting,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tight, well-separated blobs: `clusters` centers on a coarse grid,
/// `per` points jittered ±0.05 around each. Neighbors of any probe near
/// a center are that blob's points, so a coarse quantizer that finds
/// the blobs gives the default probe width full top-k coverage.
fn blobs(clusters: usize, per: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::new(); // allow-vecvec: test fixture
    for c in 0..clusters {
        let cx = (c % 8) as f64 * 10.0;
        let cy = (c / 8) as f64 * 10.0;
        for _ in 0..per {
            rows.push(vec![
                cx + rng.random_range(-0.05..0.05),
                cy + rng.random_range(-0.05..0.05),
            ]);
        }
    }
    Matrix::from_rows(&rows).unwrap()
}

fn assert_bitwise_equal(brute: &[Neighbor], ivf: &[Neighbor], what: &str) {
    assert_eq!(brute.len(), ivf.len(), "{what}: neighbor count differs");
    for (i, (b, a)) in brute.iter().zip(ivf.iter()).enumerate() {
        assert_eq!(b.index, a.index, "{what}: neighbor {i} index differs");
        assert_eq!(
            b.distance.to_bits(),
            a.distance.to_bits(),
            "{what}: neighbor {i} distance bits differ"
        );
    }
}

#[test]
fn exhaustive_probe_is_bitwise_identical_to_serial_brute() {
    let data = blobs(24, 200, 1); // 4800 rows
    let nn = NearestNeighbors::new(data.clone(), DistanceMetric::Euclidean);
    let ivf = IvfIndex::build(
        data,
        DistanceMetric::Euclidean,
        IvfOptions {
            nlist: 32,
            nprobe: 32, // exhaustive: coverage holds for every probe
        },
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    for q in 0..200 {
        let probe = [rng.random_range(-5.0..80.0), rng.random_range(-5.0..30.0)];
        for k in [1, 3, 9] {
            let brute = qpp_par::with_threads(1, || nn.query(&probe, k));
            let approx = ivf.query(&probe, k);
            assert_bitwise_equal(&brute, &approx, &format!("probe {q} k {k}"));
        }
    }
}

#[test]
fn default_nprobe_is_bitwise_identical_on_clustered_data() {
    // The approximate regime: 8 of 24 lists probed. On separated blobs
    // the probed cells still cover the true top-k for probes near the
    // data, so equality stays bitwise — this is the recall argument of
    // DESIGN.md §8 made executable.
    let data = blobs(24, 200, 3);
    let nn = NearestNeighbors::new(data.clone(), DistanceMetric::Euclidean);
    let ivf = IvfIndex::build(
        data.clone(),
        DistanceMetric::Euclidean,
        IvfOptions {
            nlist: 24,
            ..IvfOptions::default() // nprobe: 8
        },
    )
    .unwrap();
    assert_eq!(ivf.nprobe(), 8);
    // Probe at every 17th reference row: its blob-mates are the true
    // neighbors and share its cell.
    for i in (0..data.rows()).step_by(17) {
        let probe = data.row(i);
        let brute = qpp_par::with_threads(1, || nn.query(probe, 5));
        let approx = ivf.query(probe, 5);
        assert_bitwise_equal(&brute, &approx, &format!("reference probe {i}"));
    }
}

#[test]
fn ties_resolve_identically_with_duplicated_rows() {
    // Duplicate every row: equal distances everywhere, so results are
    // decided purely by the (distance, index) tie-break — which must
    // match the serial scan's first-seen order exactly.
    let base = blobs(8, 60, 5);
    let mut rows = Vec::new(); // allow-vecvec: test fixture
    for i in 0..base.rows() {
        rows.push(base.row(i).to_vec());
    }
    for i in 0..base.rows() {
        rows.push(base.row(i).to_vec());
    }
    let data = Matrix::from_rows(&rows).unwrap();
    let nn = NearestNeighbors::new(data.clone(), DistanceMetric::Euclidean);
    let ivf = IvfIndex::build(
        data.clone(),
        DistanceMetric::Euclidean,
        IvfOptions {
            nlist: 12,
            nprobe: 12,
        },
    )
    .unwrap();
    for i in (0..data.rows()).step_by(23) {
        let brute = qpp_par::with_threads(1, || nn.query(data.row(i), 6));
        let approx = ivf.query(data.row(i), 6);
        assert_bitwise_equal(&brute, &approx, &format!("duplicated probe {i}"));
        // The probe row itself (distance 0) and its duplicate must both
        // surface, lower index first.
        assert_eq!(brute[0].distance, 0.0);
        assert!(brute[0].index < brute[1].index);
    }
}

#[test]
fn build_and_query_are_thread_count_invariant() {
    let data = blobs(20, 180, 7); // 3600 rows
    let opts = IvfOptions {
        nlist: 20,
        nprobe: 20,
    };
    let ivf1 = qpp_par::with_threads(1, || {
        IvfIndex::build(data.clone(), DistanceMetric::Euclidean, opts).unwrap()
    });
    let ivf8 = qpp_par::with_threads(8, || {
        IvfIndex::build(data.clone(), DistanceMetric::Euclidean, opts).unwrap()
    });
    // The whole structure must agree bitwise: centroids, list layout.
    assert_eq!(ivf1.centroids(), ivf8.centroids());
    assert_eq!(ivf1.nlist(), ivf8.nlist());
    for c in 0..ivf1.nlist() {
        assert_eq!(ivf1.list(c), ivf8.list(c), "list {c} differs");
    }
    // And so must every query, from either build, at either thread
    // count — all equal to the serial brute scan.
    let nn = NearestNeighbors::new(data.clone(), DistanceMetric::Euclidean);
    let mut rng = StdRng::seed_from_u64(8);
    for q in 0..50 {
        let probe = [rng.random_range(0.0..70.0), rng.random_range(0.0..20.0)];
        let brute = qpp_par::with_threads(1, || nn.query(&probe, 7));
        let a1 = qpp_par::with_threads(1, || ivf1.query(&probe, 7));
        let a8 = qpp_par::with_threads(8, || ivf8.query(&probe, 7));
        assert_bitwise_equal(&brute, &a1, &format!("probe {q} (1 thread)"));
        assert_bitwise_equal(&brute, &a8, &format!("probe {q} (8 threads)"));
    }
}

#[test]
fn non_finite_reference_rows_are_skipped_like_brute() {
    let base = blobs(6, 80, 9);
    let mut rows = Vec::new(); // allow-vecvec: test fixture
    for i in 0..base.rows() {
        rows.push(base.row(i).to_vec());
        if i % 37 == 0 {
            rows.push(vec![f64::NAN, 0.0]);
        }
    }
    let data = Matrix::from_rows(&rows).unwrap();
    let nn = NearestNeighbors::new(data.clone(), DistanceMetric::Euclidean);
    let ivf = IvfIndex::build(
        data,
        DistanceMetric::Euclidean,
        IvfOptions {
            nlist: 8,
            nprobe: 8,
        },
    )
    .unwrap();
    for probe in [[0.1, 0.2], [50.0, 10.0], [20.0, 0.0]] {
        let brute = qpp_par::with_threads(1, || nn.query(&probe, 5));
        let approx = ivf.query(&probe, 5);
        assert_bitwise_equal(&brute, &approx, "corrupt-reference probe");
        assert!(approx.iter().all(|n| n.distance.is_finite()));
    }
}

/// The panel scan — 16 rows a panel, squared-distance keys, a panel
/// dropped once a quarter of its columns put all its rows past the k-th
/// key — returns what offering one full distance at a time does: the
/// same rows, the same distance bits, under both metrics. Coordinates
/// sit on a half-integer grid so equal distances are common, one row in
/// eight repeats an earlier one (exact ties, resolved by index), one in
/// eight carries a NaN or an infinity, widths run 1..=17 and lengths
/// 1..=50 (every remainder mod 16, and lists over three panels), and
/// `k` reaches past both ends.
#[test]
fn strip_scan_is_the_one_row_at_a_time_scan() {
    for seed in 0..256 {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = rng.random_range(1usize..18);
        let n = rng.random_range(1usize..51);
        let k_choice = rng.random_range(0usize..5);
        let mut grid = |_, _| rng.random_range(-3i32..4) as f64 * 0.5;
        let mut data = Matrix::from_fn(n, dims, &mut grid);
        let probe = Matrix::from_fn(1, dims, &mut grid);
        let probe = probe.row(0);
        for i in 1..n {
            match rng.random_range(0u8..8) {
                0 => {
                    let earlier = data.row(rng.random_range(0..i)).to_vec();
                    data.row_mut(i).copy_from_slice(&earlier);
                }
                1 => {
                    let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
                    data.row_mut(i)[rng.random_range(0..dims)] = bad[rng.random_range(0..3)];
                }
                _ => {}
            }
        }
        let k = [0, 1, 3, n, n + 5][k_choice];

        for metric in [DistanceMetric::Euclidean, DistanceMetric::Cosine] {
            // The loop the scan replaced: every row's full key (the
            // square under Euclidean), finite ones kept in (key, index)
            // order, the first k made distances.
            let key = match metric {
                DistanceMetric::Euclidean => vector::sq_dist,
                DistanceMetric::Cosine => vector::cosine_dist,
            };
            let euclidean = metric == DistanceMetric::Euclidean;
            let distance = |key: f64| if euclidean { key.sqrt() } else { key };
            let mut keyed: Vec<(f64, usize)> = (0..n)
                .map(|i| (key(probe, data.row(i)), i))
                .filter(|(key, _)| key.is_finite())
                .collect();
            keyed.sort_by(|a, b| a.partial_cmp(b).expect("finite keys"));
            keyed.truncate(k);
            let one_at_a_time: Vec<Neighbor> = keyed
                .iter()
                .map(|&(key, index)| Neighbor {
                    index,
                    distance: distance(key),
                })
                .collect();

            let what = format!("seed {seed} {metric:?} dims {dims} n {n} k {k}");
            let brute = NearestNeighbors::new(data.clone(), metric).query(probe, k);
            assert_bitwise_equal(&one_at_a_time, &brute, &what);
            let nlist = n.min(3);
            let exhaustive = IvfOptions {
                nlist,
                nprobe: nlist,
            };
            let ivf = IvfIndex::build(data.clone(), metric, exhaustive).unwrap();
            assert_bitwise_equal(&brute, &ivf.query(probe, k), &what);
        }
    }
}

#[test]
fn fewer_finite_rows_than_k_yields_the_same_short_list() {
    let data = Matrix::from_rows(&[
        vec![0.0, 0.0],
        vec![f64::NAN, 1.0],
        vec![3.0, 4.0],
        vec![f64::INFINITY, f64::INFINITY],
        vec![1.0, 1.0],
    ])
    .unwrap();
    let nn = NearestNeighbors::new(data.clone(), DistanceMetric::Euclidean);
    let ivf = IvfIndex::build(
        data,
        DistanceMetric::Euclidean,
        IvfOptions {
            nlist: 2,
            nprobe: 2,
        },
    )
    .unwrap();
    let brute = qpp_par::with_threads(1, || nn.query(&[0.0, 0.0], 10));
    let approx = ivf.query(&[0.0, 0.0], 10);
    assert_eq!(brute.len(), 3); // only the finite rows
    assert_bitwise_equal(&brute, &approx, "short-list probe");
}

#[test]
fn auto_switch_arms_agree_bitwise_across_the_threshold() {
    let data = blobs(16, 150, 11); // 2400 rows
    let nn = NearestNeighbors::new(data.clone(), DistanceMetric::Euclidean);
    let exact_arm = AnnIndex::build(
        data.clone(),
        DistanceMetric::Euclidean,
        &AnnOptions {
            ivf_threshold: 10_000, // stay exact
            ..AnnOptions::default()
        },
    )
    .unwrap();
    let ivf_arm = AnnIndex::build(
        data,
        DistanceMetric::Euclidean,
        &AnnOptions {
            ivf_threshold: 100, // force IVF
            ivf: IvfOptions {
                nlist: 16,
                nprobe: 16,
            },
        },
    )
    .unwrap();
    assert!(matches!(exact_arm, AnnIndex::Exact { .. }));
    assert!(ivf_arm.is_ivf());
    let mut rng = StdRng::seed_from_u64(12);
    for _ in 0..50 {
        let probe = [rng.random_range(0.0..70.0), rng.random_range(0.0..20.0)];
        let brute = qpp_par::with_threads(1, || nn.query(&probe, 3));
        let exact = qpp_par::with_threads(1, || exact_arm.query(&probe, 3));
        let approx = ivf_arm.query(&probe, 3);
        assert_bitwise_equal(&brute, &exact, "auto-switch probe, exact arm");
        assert_bitwise_equal(&brute, &approx, "auto-switch probe, exhaustive IVF arm");
    }
}

/// The brute scan over the lists `ivf` probes: the `nprobe` centroids
/// nearest `probe` by `(key, list)`, finite keys only, as the coarse
/// probe ranks them, and no list bound.
fn brute_over_probed(ivf: &IvfIndex, data: &Matrix, probe: &[f64], k: usize) -> Vec<Neighbor> {
    let key = match ivf.metric() {
        DistanceMetric::Euclidean => vector::sq_dist,
        DistanceMetric::Cosine => vector::cosine_dist,
    };
    let centroids = ivf.centroids().gather(0..ivf.nlist());
    let mut ranked: Vec<(f64, usize)> = (0..ivf.nlist())
        .map(|c| (key(probe, centroids.row(c)), c))
        .filter(|(key, _)| key.is_finite())
        .collect();
    ranked.sort_by(|a, b| a.partial_cmp(b).expect("finite keys"));
    let lists = ranked.iter().take(ivf.nprobe());
    let mut rows: Vec<usize> = lists.flat_map(|&(_, c)| ivf.list(c).to_vec()).collect();
    rows.sort_unstable();
    let mut found = NearestNeighbors::new(data.select_rows(&rows), ivf.metric()).query(probe, k);
    for n in &mut found {
        n.index = rows[n.index];
    }
    found
}

/// The list bound changes no answer, under both metrics, on inputs built
/// to trip it. Blobs sit 10 apart on the first axis, centred near 0,
/// with ids interleaved across them and points on a half-integer grid,
/// so distances tie exactly across lists: a probe midway between two
/// blobs ties rows of both, a mirrored row ties its mirror image's list,
/// and a far list's member can tie the k-th key with a lower id. In one
/// dimension each blob's extreme row lies exactly on its radius, on the
/// probe's side. One row in eight repeats an earlier one (duplicates
/// share a list, since assignment is a function of the row); one in
/// sixteen carries a NaN or an infinity, making its list's radius ∞.
/// Probes include rows, centroids, NaN and ±∞; scales reach overflow
/// (a centroid key past `f64::MAX` with members inside it) and the
/// subnormal range; `k` runs from 0 past the row count. The exact arm
/// and an exhaustive index over the blobs must equal the brute scan,
/// and an index probing fewer lists the brute scan over those lists.
#[test]
fn list_bound_keeps_every_answer() {
    for seed in 0..128 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (dims, blobs) = (rng.random_range(1usize..5), rng.random_range(2usize..7));
        let n = blobs * rng.random_range(4usize..40);
        let scale = [1.0, 1.0, 1e153, 1e-160, 1e-75][rng.random_range(0..5)];
        let grid = |rng: &mut StdRng| rng.random_range(-4i32..5) as f64 * 0.5;
        let mut data = Matrix::from_fn(n, dims, |i, j| {
            let centre = ((i % blobs) as f64 - (blobs / 2) as f64) * 10.0;
            (grid(&mut rng) + if j == 0 { centre } else { 0.0 }) * scale
        });
        for i in 1..n {
            match rng.random_range(0u8..16) {
                0 | 1 => {
                    let earlier = data.row(rng.random_range(0..i)).to_vec();
                    data.row_mut(i).copy_from_slice(&earlier);
                }
                2 => {
                    let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
                    data.row_mut(i)[rng.random_range(0..dims)] = bad[rng.random_range(0..3)];
                }
                _ => {}
            }
        }
        for metric in [DistanceMetric::Euclidean, DistanceMetric::Cosine] {
            let nn = NearestNeighbors::new(data.clone(), metric);
            let options = AnnOptions {
                ivf_threshold: usize::MAX,
                ..AnnOptions::default()
            };
            let exact = AnnIndex::build(data.clone(), metric, &options).unwrap();
            assert!(matches!(exact, AnnIndex::Exact { .. }));
            // Every list probed, and fewer than every list.
            let [listed, some] = [blobs, rng.random_range(1..blobs)].map(|nprobe| {
                let options = IvfOptions {
                    nlist: blobs,
                    nprobe,
                };
                IvfIndex::build(data.clone(), metric, options).unwrap()
            });
            let centroids = listed.centroids().gather(0..listed.nlist());
            let pick = |rng: &mut StdRng, m: &Matrix| m.row(rng.random_range(0..m.rows())).to_vec();
            for q in 0..12 {
                let mut probe: Vec<f64> = match q % 6 {
                    0 => pick(&mut rng, &data),
                    1 => pick(&mut rng, &data).iter().map(|v| -v).collect(),
                    2 => pick(&mut rng, &centroids),
                    3 => (0..dims)
                        .map(|j| if j == 0 { 5.0 * scale } else { 0.0 })
                        .collect(),
                    _ => (0..dims).map(|_| grid(&mut rng) * 10.0 * scale).collect(),
                };
                if q % 6 == 5 {
                    let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
                    probe[rng.random_range(0..dims)] = bad[rng.random_range(0..3)];
                }
                let k = [0, 1, 3, 7, n, n + 3][rng.random_range(0..6)];
                let what = format!("seed {seed} {metric:?} probe {q} k {k}");
                let brute = nn.query(&probe, k);
                assert_bitwise_equal(&brute, &exact.query(&probe, k), &what);
                assert_bitwise_equal(&brute, &listed.query(&probe, k), &what);
                let probed = brute_over_probed(&some, &data, &probe, k);
                assert_bitwise_equal(&probed, &some.query(&probe, k), &what);
            }
        }
    }
}

#[test]
fn ivf_predictions_are_bitwise_equal_to_brute_predictions() {
    // The full predict tail: same neighbors in, same weights and axpy
    // combination out — shared code, so predictions must agree bitwise
    // for every weighting scheme.
    let data = blobs(12, 120, 13);
    let mut rng = StdRng::seed_from_u64(14);
    let targets = Matrix::from_fn(data.rows(), 6, |_, _| rng.random_range(0.0..100.0));
    let nn = NearestNeighbors::new(data.clone(), DistanceMetric::Euclidean);
    let ivf = IvfIndex::build(
        data.clone(),
        DistanceMetric::Euclidean,
        IvfOptions {
            nlist: 12,
            nprobe: 12,
        },
    )
    .unwrap();
    let (mut scratch, mut ap) = (KnnScratch::new(), Vec::new());
    let (mut brute_scratch, mut bp) = (KnnScratch::new(), Vec::new());
    for weighting in [
        NeighborWeighting::Equal,
        NeighborWeighting::RankRatio,
        NeighborWeighting::InverseDistance,
    ] {
        for i in (0..data.rows()).step_by(31) {
            let probe = data.row(i);
            nn.predict_into(probe, &targets, 3, weighting, &mut brute_scratch, &mut bp)
                .unwrap();
            ivf.predict_into(probe, &targets, 3, weighting, &mut scratch, &mut ap)
                .unwrap();
            assert_bitwise_equal(
                &brute_scratch.neighbors,
                &scratch.neighbors,
                "prediction neighbors",
            );
            assert_eq!(bp.len(), ap.len());
            for (x, y) in bp.iter().zip(ap.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "prediction value differs");
            }
        }
    }
}

/// The sub-linear claim, counted rather than timed: the most distance
/// evaluations one default-options query can cost (`nlist` centroids
/// plus the `nprobe` longest lists) stays within 3x while the brute
/// scan's count — the row count — grows 64x.
#[test]
fn worst_case_distance_evaluations_stay_flat_as_rows_grow() {
    let worst_case = |rows: usize| {
        let mut rng = StdRng::seed_from_u64(rows as u64);
        let data = Matrix::from_fn(rows, 8, |_, _| rng.random_range(-1.0..1.0));
        let ivf = IvfIndex::build(data, DistanceMetric::Euclidean, IvfOptions::default()).unwrap();
        assert_eq!(ivf.len(), rows);
        let mut lens: Vec<usize> = (0..ivf.nlist()).map(|c| ivf.list(c).len()).collect();
        lens.sort_unstable_by(|a, b| b.cmp(a));
        ivf.nlist() + lens[..ivf.nprobe()].iter().sum::<usize>()
    };
    let sizes = [1024, 8192, 65_536];
    let evals = sizes.map(worst_case);
    assert!(sizes[2] >= 64 * sizes[0]);
    assert!(
        evals[2] <= 3 * evals[0] && evals[1] <= 3 * evals[0],
        "worst-case evaluations {evals:?} at {sizes:?} rows grew past 3x"
    );
    // Below `nprobe` lists the index is exhaustive: every row, once.
    assert_eq!(evals[0], 1024 / 128 + 1024);
}
