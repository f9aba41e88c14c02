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

    /// The `k` nearest neighbors of `probe`, ascending by
    /// `(distance, index)` — allocating convenience over
    /// [`NearestNeighbors::query_into`].
    pub fn query(&self, probe: &[f64], k: usize) -> Vec<Neighbor> {
        let mut out = Vec::new();
        self.query_into(probe, k, &mut out);
        out
    }

    /// Fills `out` with the `k` nearest neighbors of `probe`, ascending
    /// by `(distance, index)`: one serial pass, every row offered to
    /// [`push_top_k`] (which skips non-finite distances). Once `out` has
    /// capacity `k + 1` the scan allocates nothing, at any reference size.
    // qpp-lint: hot-path
    pub fn query_into(&self, probe: &[f64], k: usize, out: &mut Vec<Neighbor>) {
        out.clear();
        let k = k.min(self.len());
        out.reserve(k + 1);
        for i in 0..self.len() {
            let d = self.metric.distance(probe, self.reference.row(i));
            push_top_k(out, k, i, d);
        }
    }

    /// Predicts a target vector for `probe` by combining the `targets`
    /// rows of the k nearest neighbors under `weighting`, writing the
    /// prediction into `out` and the neighbors used into
    /// `scratch.neighbors`. With warm buffers this performs no heap
    /// allocation.
    ///
    /// Fails when the targets are misaligned with the reference, when
    /// the reference is empty, or when no reference row is at a finite
    /// distance from the probe — the latter two used to yield a silent
    /// all-zero prediction with an empty neighbor list.
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

/// Offers `(index, distance)` to a top-`k` buffer kept sorted by
/// `(distance, index)`.
///
/// This is *the* selection step of every scan in this crate — the brute
/// scan, the IVF coarse probe and the IVF list rescan all funnel through
/// it, which is what makes their results bitwise comparable. The order
/// is total, not first-seen, so the result does not depend on the order
/// rows are offered in: the IVF rescan offers list after list to the one
/// buffer and still breaks ties as the ascending brute scan does.
/// Non-finite distances are rejected (a NaN compares false against
/// everything and would land unsorted at the front). A full buffer
/// rejects a farther row on one float compare, inlined into the scan
/// loops (as a call per row a 2,000-row scan takes 18 µs, not 15.5).
// qpp-lint: hot-path
#[inline]
pub(crate) fn push_top_k(best: &mut Vec<Neighbor>, k: usize, index: usize, distance: f64) {
    if !distance.is_finite() {
        return;
    }
    if best.len() >= k {
        let Some(last) = best.last() else { return };
        if distance > last.distance || (distance == last.distance && index > last.index) {
            return;
        }
    }
    let pos = best.partition_point(|n| (n.distance, n.index) < (distance, index));
    best.insert(pos, Neighbor { index, distance });
    if best.len() > k {
        best.pop();
    }
}

/// Reusable buffers for the `predict_into` / `query_into` family: the
/// sorted neighbor list, the combination weights, and the IVF arm's
/// probed centroids. One scratch per worker thread is enough; buffers
/// grow on first use and are then recycled.
#[derive(Debug, Default, Clone)]
pub struct KnnScratch {
    /// Neighbors found by the last `predict_into` call, ascending by
    /// `(distance, index)`.
    pub neighbors: Vec<Neighbor>,
    pub(crate) weights: Vec<f64>,
    /// Nearest coarse centroids (IVF probe step).
    pub(crate) probed: Vec<Neighbor>,
}

impl KnnScratch {
    /// Empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        KnnScratch::default()
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

    /// `predict_into` through cold buffers: the prediction and the
    /// neighbors it used.
    fn predict(
        nn: &NearestNeighbors,
        probe: &[f64],
        targets: &Matrix,
    ) -> Result<(Vec<f64>, Vec<Neighbor>), KnnError> {
        let mut scratch = KnnScratch::new();
        let mut out = Vec::new();
        nn.predict_into(
            probe,
            targets,
            3,
            NeighborWeighting::Equal,
            &mut scratch,
            &mut out,
        )?;
        Ok((out, scratch.neighbors))
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
        let (pred, neigh) = predict(&nn, &[0.0, 0.0], &targets).unwrap();
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
            predict(&nn, &[f64::NAN, 0.0], &targets),
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
            predict(&nn, &[0.0, 0.0], &targets),
            Err(KnnError::EmptyReference)
        );
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

    #[test]
    fn equal_distances_come_out_by_index_whatever_the_arrival_order() {
        // The IVF rescan offers rows list by list, not in index order;
        // ties must still resolve to the lowest index.
        let mut best = Vec::new();
        for index in (0..6).rev() {
            push_top_k(&mut best, 4, index, 1.0);
        }
        let found: Vec<usize> = best.iter().map(|n| n.index).collect();
        assert_eq!(found, vec![0, 1, 2, 3]);
    }

    proptest::proptest! {
        #[test]
        fn offer_order_does_not_change_the_result(
            // u8 distances collide often, exercising the index tie-break.
            raw in proptest::collection::vec(0u8..16, 0..64),
            rotate in 0usize..64,
            k in 0usize..8,
        ) {
            let mut ascending = Vec::new();
            for (i, &d) in raw.iter().enumerate() {
                push_top_k(&mut ascending, k, i, d as f64);
            }
            // The same rows, descending from an arbitrary starting row.
            let mut shuffled = Vec::new();
            for step in 0..raw.len() {
                let i = (rotate + raw.len() - step) % raw.len();
                push_top_k(&mut shuffled, k, i, raw[i] as f64);
            }
            proptest::prop_assert_eq!(&shuffled, &ascending);
        }
    }
}
