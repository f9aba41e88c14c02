//! k-nearest-neighbor lookup in projection space.
//!
//! The paper's prediction step (§VI-B, Fig. 7): project the new query,
//! find its k nearest training neighbors in the query projection, and
//! combine their measured performance vectors. §VI-E evaluates the
//! three design choices reproduced here:
//!
//! * distance metric — Euclidean vs. cosine (Table I; Euclidean won);
//! * k — 3..7 (Table II; negligible differences, k=3 chosen);
//! * weighting — equal vs. 3:2:1 vs. distance-proportional (Table III;
//!   no consistent winner, equal chosen).

use crate::kmeans::KMeansError;
use qpp_linalg::{vector, Matrix};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Reference rows scanned per parallel work chunk. Paper-scale indexes
/// (~1000 training points) fit in one chunk — the scan stays serial and
/// identical to the historical one — while larger references fan out
/// across the pool.
const SCAN_CHUNK: usize = 2048;

/// Errors from neighbor prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnnError {
    /// The reference matrix has no rows to search.
    EmptyReference,
    /// Every reference row sits at a non-finite distance from the probe
    /// (e.g. the probe carries a NaN component), so no neighbor is
    /// usable.
    NoFiniteNeighbors,
    /// The targets matrix does not have one row per reference row.
    TargetMismatch {
        /// Rows in the targets matrix.
        targets: usize,
        /// Rows in the reference matrix.
        reference: usize,
    },
    /// Building the IVF coarse quantizer failed (degenerate k or an
    /// all-corrupt reference); see [`crate::ann::IvfIndex::build`].
    IndexBuild(KMeansError),
}

impl fmt::Display for KnnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KnnError::EmptyReference => write!(f, "knn reference is empty"),
            KnnError::NoFiniteNeighbors => {
                write!(f, "no reference row is at a finite distance from the probe")
            }
            KnnError::TargetMismatch { targets, reference } => write!(
                f,
                "targets must align with reference rows ({targets} target rows \
                 vs {reference} reference rows)"
            ),
            KnnError::IndexBuild(e) => write!(f, "ann index build failed: {e}"),
        }
    }
}

impl std::error::Error for KnnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KnnError::IndexBuild(e) => Some(e),
            _ => None,
        }
    }
}

impl From<KMeansError> for KnnError {
    fn from(e: KMeansError) -> Self {
        KnnError::IndexBuild(e)
    }
}

/// Distance metric for neighbor search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DistanceMetric {
    /// Magnitude-aware Euclidean distance (the paper's winner).
    Euclidean,
    /// Direction-only cosine distance.
    Cosine,
}

impl DistanceMetric {
    /// Distance between two vectors under this metric.
    // qpp-lint: hot-path
    pub fn distance(self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            DistanceMetric::Euclidean => vector::dist(a, b),
            DistanceMetric::Cosine => vector::cosine_dist(a, b),
        }
    }
}

/// How neighbor target vectors are combined into a prediction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NeighborWeighting {
    /// Equal weight for all k neighbors (the paper's choice).
    Equal,
    /// Fixed 3:2:1-style ratio by nearness rank (k weights `k, k-1, …, 1`).
    RankRatio,
    /// Weight inversely proportional to distance.
    InverseDistance,
}

impl NeighborWeighting {
    /// Weights for neighbors sorted by ascending distance.
    pub fn weights(self, distances: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(distances.len());
        self.weights_for(distances.iter().copied(), &mut out);
        out
    }

    /// Weights for neighbors found by [`NearestNeighbors::query`],
    /// written into a reusable buffer. Bitwise equal to
    /// [`NeighborWeighting::weights`] on the same distances.
    // qpp-lint: hot-path
    pub fn weights_into(self, neighbors: &[Neighbor], out: &mut Vec<f64>) {
        self.weights_for(neighbors.iter().map(|n| n.distance), out)
    }

    /// Shared raw-weight / normalize pipeline: fill `out` with the raw
    /// scheme weights, then divide by their sum.
    // qpp-lint: hot-path
    fn weights_for(self, distances: impl ExactSizeIterator<Item = f64>, out: &mut Vec<f64>) {
        let k = distances.len();
        out.clear();
        match self {
            NeighborWeighting::Equal => out.extend((0..k).map(|_| 1.0)),
            NeighborWeighting::RankRatio => out.extend((0..k).map(|i| (k - i) as f64)),
            NeighborWeighting::InverseDistance => out.extend(distances.map(|d| 1.0 / (d + 1e-9))),
        }
        let total = vector::sum(out);
        for w in out.iter_mut() {
            *w /= total;
        }
    }
}

/// A found neighbor: training-row index and distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Row index into the reference matrix.
    pub index: usize,
    /// Distance from the probe under the chosen metric.
    pub distance: f64,
}

/// Nearest-neighbor index over the rows of a reference matrix.
///
/// Linear scan — exact, cache-friendly, and fast at the scale of the
/// paper's training sets (~1000 points, ≤16 projection dims).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NearestNeighbors {
    reference: Matrix,
    metric: DistanceMetric,
}

impl NearestNeighbors {
    /// Builds an index over `reference` rows with the given metric.
    pub fn new(reference: Matrix, metric: DistanceMetric) -> Self {
        NearestNeighbors { reference, metric }
    }

    /// Number of reference points.
    pub fn len(&self) -> usize {
        self.reference.rows()
    }

    /// The distance metric this index was built with.
    pub fn metric(&self) -> DistanceMetric {
        self.metric
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.reference.rows() == 0
    }

    /// The `k` nearest neighbors of `probe`, ascending by distance,
    /// ties broken by ascending row index.
    ///
    /// Rows at a non-finite distance from the probe are skipped: a NaN
    /// distance compares false against everything, which used to make
    /// `partition_point` park the NaN neighbor unsorted at the *front*
    /// of the result, poisoning the prediction. The scan runs in fixed
    /// [`SCAN_CHUNK`]-row chunks across the worker pool, with per-chunk
    /// top-k buffers merged in `(distance, index)` order — exactly the
    /// serial scan's outcome, for any thread count.
    ///
    /// Allocates per-chunk buffers and the result vector by design:
    /// `query_into` only takes this branch when the reference outgrows a
    /// single scan chunk, where the scan itself dwarfs the allocations.
    pub fn query(&self, probe: &[f64], k: usize) -> Vec<Neighbor> {
        let k = k.min(self.len());
        if k == 0 {
            return Vec::new();
        }
        let per_chunk = qpp_par::parallel_for_chunks(self.len(), SCAN_CHUNK, |chunk| {
            // Max-heap-free selection: keep a sorted buffer of size k.
            let mut best: Vec<Neighbor> = Vec::with_capacity(k + 1);
            for i in chunk.range.clone() {
                let d = self.metric.distance(probe, self.reference.row(i));
                push_top_k(&mut best, k, i, d);
            }
            best
        });
        merge_top_k(per_chunk, k)
    }

    /// Like [`NearestNeighbors::query`], writing into a reusable buffer.
    ///
    /// References that fit in a single scan chunk (the paper-scale case)
    /// are scanned serially — the identical loop a one-chunk parallel
    /// scan runs, so results are bitwise equal — and, once `out` has
    /// warmed up to capacity `k + 1`, without any heap allocation.
    /// Larger references delegate to the chunked parallel scan.
    // qpp-lint: hot-path
    pub fn query_into(&self, probe: &[f64], k: usize, out: &mut Vec<Neighbor>) {
        out.clear();
        let k = k.min(self.len());
        if k == 0 {
            return;
        }
        if self.len() > SCAN_CHUNK {
            out.extend(self.query(probe, k));
            return;
        }
        out.reserve(k + 1);
        for i in 0..self.len() {
            let d = self.metric.distance(probe, self.reference.row(i));
            push_top_k(out, k, i, d);
        }
    }

    /// Predicts a target vector for `probe` by combining the `targets`
    /// rows of the k nearest neighbors under `weighting`.
    ///
    /// Returns the prediction and the neighbors used. Fails when the
    /// targets are misaligned with the reference, when the reference is
    /// empty, or when no reference row is at a finite distance from the
    /// probe — the latter two used to yield a silent all-zero prediction
    /// with an empty neighbor list.
    pub fn predict(
        &self,
        probe: &[f64],
        targets: &Matrix,
        k: usize,
        weighting: NeighborWeighting,
    ) -> Result<(Vec<f64>, Vec<Neighbor>), KnnError> {
        let mut scratch = KnnScratch::new();
        let mut out = Vec::with_capacity(targets.cols());
        self.predict_into(probe, targets, k, weighting, &mut scratch, &mut out)?;
        Ok((out, scratch.neighbors))
    }

    /// Like [`NearestNeighbors::predict`], writing the prediction into
    /// `out` and the neighbors used into `scratch.neighbors`. With warm
    /// buffers and a reference that fits one scan chunk, this performs
    /// no heap allocation. Bitwise equal to
    /// [`NearestNeighbors::predict`].
    // qpp-lint: hot-path
    pub fn predict_into(
        &self,
        probe: &[f64],
        targets: &Matrix,
        k: usize,
        weighting: NeighborWeighting,
        scratch: &mut KnnScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), KnnError> {
        predict_with(self.len(), targets, weighting, scratch, out, |scratch| {
            self.query_into(probe, k, &mut scratch.neighbors)
        })
    }
}

/// The one `validate → query → combine` body behind every
/// `predict_into`: the brute scan and the IVF index differ only in the
/// `query` that fills `scratch.neighbors`, so the error order
/// (misaligned targets, then empty reference, then no finite neighbor)
/// and the combination cannot drift apart between arms.
// qpp-lint: hot-path
pub(crate) fn predict_with(
    reference_rows: usize,
    targets: &Matrix,
    weighting: NeighborWeighting,
    scratch: &mut KnnScratch,
    out: &mut Vec<f64>,
    query: impl FnOnce(&mut KnnScratch),
) -> Result<(), KnnError> {
    if targets.rows() != reference_rows {
        return Err(KnnError::TargetMismatch {
            targets: targets.rows(),
            reference: reference_rows,
        });
    }
    if reference_rows == 0 {
        return Err(KnnError::EmptyReference);
    }
    query(scratch);
    if scratch.neighbors.is_empty() {
        return Err(KnnError::NoFiniteNeighbors);
    }
    weighting.weights_into(&scratch.neighbors, &mut scratch.weights);
    out.clear();
    out.resize(targets.cols(), 0.0);
    for (n, &w) in scratch.neighbors.iter().zip(scratch.weights.iter()) {
        vector::axpy(w, targets.row(n.index), out);
    }
    Ok(())
}

/// Offers `(index, distance)` to a sorted top-`k` buffer.
///
/// This is *the* selection step of every scan in this crate — the serial
/// probe, each parallel chunk, and the IVF list rescans all funnel
/// through it, which is what makes their results bitwise comparable.
/// Non-finite distances are rejected (a NaN would land unsorted at the
/// front, because `NaN <= d` is false for every `d`); finite ones are
/// placed by `partition_point(|n| n.distance <= d)`, so equal distances
/// keep first-seen (ascending-index) order, and the buffer never grows
/// past `k` entries.
// qpp-lint: hot-path
pub(crate) fn push_top_k(best: &mut Vec<Neighbor>, k: usize, index: usize, distance: f64) {
    if !distance.is_finite() {
        return;
    }
    if best.len() < k || distance < best.last().map_or(f64::INFINITY, |n| n.distance) {
        let pos = best.partition_point(|n| n.distance <= distance);
        best.insert(pos, Neighbor { index, distance });
        if best.len() > k {
            best.pop();
        }
    }
}

/// Reusable buffers for [`NearestNeighbors::predict_into`] and the IVF
/// probe path: the sorted neighbor list, the combination weights, and
/// the per-list buffers the inverted-file rescan fills. One scratch per
/// worker thread is enough; buffers grow on first use (the list pool is
/// grow-only) and are then recycled.
#[derive(Debug, Default, Clone)]
pub struct KnnScratch {
    /// Neighbors found by the last `predict_into` call, ascending by
    /// distance.
    pub neighbors: Vec<Neighbor>,
    pub(crate) weights: Vec<f64>,
    /// Nearest coarse centroids (IVF probe step).
    pub(crate) probed: Vec<Neighbor>,
    /// Per-probed-list top-k buffers, merged by [`merge_top_k_into`].
    /// `Vec<Vec<Neighbor>>` is deliberate: each inner buffer must keep
    /// its capacity across calls so the steady-state rescan is
    /// alloc-free.
    pub(crate) lists: Vec<Vec<Neighbor>>,
    /// Merge cursors, one per probed list.
    pub(crate) heads: Vec<usize>,
}

impl KnnScratch {
    /// Empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        KnnScratch::default()
    }
}

/// Ordered k-way merge of per-chunk top-k lists (each already sorted by
/// ascending distance, with chunk-local indexes ascending within ties).
///
/// Selecting the minimum by `(distance, index)` reproduces the serial
/// scan's tie-breaking — first-seen (lowest-index) row wins — so the
/// merged result is independent of how chunks were scheduled.
fn merge_top_k(mut lists: Vec<Vec<Neighbor>>, k: usize) -> Vec<Neighbor> {
    if let [single] = &mut lists[..] {
        return std::mem::take(single);
    }
    let mut heads = Vec::with_capacity(lists.len());
    let mut out = Vec::with_capacity(k);
    merge_top_k_into(&lists, k, &mut heads, &mut out);
    out
}

/// The allocation-free core of [`merge_top_k`], shared with the IVF
/// probe path: `heads` holds one cursor per list, `out` receives at most
/// `k` merged neighbors. Both buffers are cleared and refilled, so warm
/// callers pay no heap traffic. An empty `lists` slice — or lists with
/// fewer than `k` entries in total — simply yields fewer results.
// qpp-lint: hot-path
pub(crate) fn merge_top_k_into(
    lists: &[Vec<Neighbor>],
    k: usize,
    heads: &mut Vec<usize>,
    out: &mut Vec<Neighbor>,
) {
    heads.clear();
    heads.resize(lists.len(), 0);
    out.clear();
    while out.len() < k {
        let mut best: Option<(usize, Neighbor)> = None;
        for (li, list) in lists.iter().enumerate() {
            if let Some(&n) = list.get(heads[li]) {
                let closer = match &best {
                    None => true,
                    Some((_, b)) => (n.distance, n.index) < (b.distance, b.index),
                };
                if closer {
                    best = Some((li, n));
                }
            }
        }
        match best {
            Some((li, n)) => {
                heads[li] += 1;
                out.push(n);
            }
            None => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> Matrix {
        Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![5.0, 5.0],
            vec![10.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn finds_nearest_in_order() {
        let nn = NearestNeighbors::new(reference(), DistanceMetric::Euclidean);
        let res = nn.query(&[0.1, 0.0], 3);
        assert_eq!(res[0].index, 0);
        assert_eq!(res[1].index, 1);
        assert_eq!(res[2].index, 2);
        assert!(res[0].distance <= res[1].distance);
    }

    #[test]
    fn cosine_prefers_direction_over_magnitude() {
        let nn = NearestNeighbors::new(reference(), DistanceMetric::Cosine);
        // Probe along +x: cosine says the 10,0 point is as close as 1,0.
        let res = nn.query(&[2.0, 0.0], 2);
        let idx: Vec<usize> = res.iter().map(|n| n.index).collect();
        assert!(idx.contains(&1) && idx.contains(&4), "{idx:?}");
    }

    #[test]
    fn k_capped_by_reference_size() {
        let nn = NearestNeighbors::new(reference(), DistanceMetric::Euclidean);
        assert_eq!(nn.query(&[0.0, 0.0], 99).len(), 5);
    }

    #[test]
    fn equal_weighting_averages() {
        let nn = NearestNeighbors::new(reference(), DistanceMetric::Euclidean);
        let targets =
            Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0], vec![100.0], vec![100.0]])
                .unwrap();
        let (pred, neigh) = nn
            .predict(&[0.0, 0.0], &targets, 3, NeighborWeighting::Equal)
            .unwrap();
        assert_eq!(neigh.len(), 3);
        assert!((pred[0] - 2.0).abs() < 1e-12); // mean of 1, 2, 3
    }

    #[test]
    fn nan_probe_component_is_rejected_not_front_inserted() {
        // Regression: a NaN distance used to land *first* in the sorted
        // buffer (partition_point returns 0 because NaN <= d is false),
        // silently poisoning the prediction with index-0's targets.
        let nn = NearestNeighbors::new(reference(), DistanceMetric::Euclidean);
        assert!(nn.query(&[f64::NAN, 0.0], 3).is_empty());
        let targets =
            Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0], vec![100.0], vec![100.0]])
                .unwrap();
        assert_eq!(
            nn.predict(&[f64::NAN, 0.0], &targets, 3, NeighborWeighting::Equal),
            Err(KnnError::NoFiniteNeighbors)
        );
    }

    #[test]
    fn non_finite_reference_rows_are_skipped() {
        // One corrupt reference row must not shadow the healthy ones.
        let nn = NearestNeighbors::new(
            Matrix::from_rows(&[vec![f64::INFINITY, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap(),
            DistanceMetric::Euclidean,
        );
        let res = nn.query(&[1.0, 0.1], 3);
        assert_eq!(res.len(), 2, "{res:?}");
        assert_eq!(res[0].index, 1);
        assert!(res.iter().all(|n| n.distance.is_finite()));
    }

    #[test]
    fn empty_reference_is_a_typed_error() {
        let nn = NearestNeighbors::new(Matrix::zeros(0, 2), DistanceMetric::Euclidean);
        assert!(nn.query(&[0.0, 0.0], 3).is_empty());
        let targets = Matrix::zeros(0, 1);
        assert_eq!(
            nn.predict(&[0.0, 0.0], &targets, 3, NeighborWeighting::Equal),
            Err(KnnError::EmptyReference)
        );
    }

    #[test]
    fn chunked_scan_matches_serial_scan_bitwise() {
        // A reference big enough to span several scan chunks, probed
        // under 1 and 8 threads: identical neighbors either way, and
        // equal-distance ties resolve to the lowest index.
        let rows: Vec<Vec<f64>> = // allow-vecvec: test fixture
            (0..5000)
                .map(|i| vec![(i % 97) as f64, ((i * 31) % 89) as f64])
                .collect();
        let nn =
            NearestNeighbors::new(Matrix::from_rows(&rows).unwrap(), DistanceMetric::Euclidean);
        let probe = [13.0, 42.0];
        let serial = qpp_par::with_threads(1, || nn.query(&probe, 9));
        let parallel = qpp_par::with_threads(8, || nn.query(&probe, 9));
        assert_eq!(serial.len(), 9);
        for (s, p) in serial.iter().zip(parallel.iter()) {
            assert_eq!(s.index, p.index);
            assert_eq!(s.distance.to_bits(), p.distance.to_bits());
        }
        // Sorted ascending with index tie-break.
        for w in serial.windows(2) {
            assert!(
                w[0].distance < w[1].distance
                    || (w[0].distance == w[1].distance && w[0].index < w[1].index)
            );
        }
    }

    #[test]
    fn rank_ratio_weights_follow_3_2_1() {
        let w = NeighborWeighting::RankRatio.weights(&[0.1, 0.2, 0.3]);
        assert!((w[0] - 0.5).abs() < 1e-12);
        assert!((w[1] - 1.0 / 3.0).abs() < 1e-12);
        assert!((w[2] - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_distance_prefers_closest() {
        let w = NeighborWeighting::InverseDistance.weights(&[0.1, 1.0, 10.0]);
        assert!(w[0] > w[1] && w[1] > w[2]);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_match_has_zero_distance() {
        let nn = NearestNeighbors::new(reference(), DistanceMetric::Euclidean);
        let res = nn.query(&[5.0, 5.0], 1);
        assert_eq!(res[0].index, 3);
        assert_eq!(res[0].distance, 0.0);
        // Inverse-distance weighting must survive a zero distance.
        let w = NeighborWeighting::InverseDistance.weights(&[0.0, 1.0]);
        assert!(w[0] > 0.99);
    }

    fn n(index: usize, distance: f64) -> Neighbor {
        Neighbor { index, distance }
    }

    #[test]
    fn merge_of_no_lists_is_empty() {
        // The IVF probe path hits this when every probed list is empty
        // (all-corrupt partitions) or nothing was probed at all.
        assert!(merge_top_k(Vec::new(), 3).is_empty());
        let mut heads = Vec::new();
        let mut out = vec![n(9, 9.0)]; // stale content must be cleared
        merge_top_k_into(&[], 3, &mut heads, &mut out);
        assert!(out.is_empty());
        merge_top_k_into(&[Vec::new(), Vec::new()], 3, &mut heads, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn merge_with_fewer_than_k_total_returns_everything_in_order() {
        let lists = vec![vec![n(4, 2.0)], Vec::new(), vec![n(1, 0.5), n(7, 3.0)]];
        let merged = merge_top_k(lists.clone(), 10);
        assert_eq!(merged, vec![n(1, 0.5), n(4, 2.0), n(7, 3.0)]);
        // The `_into` core agrees and reuses warm buffers.
        let mut heads = Vec::new();
        let mut out = Vec::new();
        merge_top_k_into(&lists, 10, &mut heads, &mut out);
        assert_eq!(out, merged);
        assert_eq!(heads, vec![1, 0, 2]);
    }

    #[test]
    fn merge_ties_resolve_to_lowest_index_across_lists() {
        // Equal distances in *different* lists must still come out in
        // ascending index order — the serial scan's first-seen rule.
        let lists = vec![vec![n(5, 1.0), n(6, 1.0)], vec![n(0, 1.0), n(9, 2.0)]];
        let merged = merge_top_k(lists, 3);
        assert_eq!(merged, vec![n(0, 1.0), n(5, 1.0), n(6, 1.0)]);
    }

    proptest::proptest! {
        #[test]
        fn merged_lists_match_serial_scan(
            // u8 distances collide often, exercising the index tie-break.
            raw in proptest::collection::vec(0u8..16, 0..64),
            chunk in 1usize..9,
            k in 0usize..8,
        ) {
            let mut serial = Vec::new();
            for (i, &d) in raw.iter().enumerate() {
                push_top_k(&mut serial, k, i, d as f64);
            }
            let lists: Vec<Vec<Neighbor>> = raw
                .chunks(chunk)
                .enumerate()
                .map(|(ci, ds)| {
                    let mut best = Vec::new();
                    for (j, &d) in ds.iter().enumerate() {
                        push_top_k(&mut best, k, ci * chunk + j, d as f64);
                    }
                    best
                })
                .collect();
            let merged = merge_top_k(lists, k);
            proptest::prop_assert_eq!(&merged, &serial);
        }
    }
}
