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
use qpp_linalg::{vector, Matrix, RowPanels, PANEL_ROWS};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

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
    fn weights_into(self, neighbors: &[Neighbor], out: &mut Vec<f64>) {
        self.weights_for(neighbors.iter().map(|n| n.distance), out)
    }

    /// Shared raw-weight / normalize pipeline: fill `out` with the raw
    /// scheme weights, then divide by their sum.
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

/// Nearest-neighbor index over the rows of a reference matrix: one
/// linear scan over the rows as [`RowPanels`]. No prediction runs
/// through it; it is the oracle [`crate::ann::IvfIndex`] is tested
/// against, exhaustive or not.
#[derive(Debug, Clone)]
pub struct NearestNeighbors {
    reference: RowPanels,
    metric: DistanceMetric,
}

impl NearestNeighbors {
    /// Builds an index over `reference` rows with the given metric.
    pub fn new(reference: Matrix, metric: DistanceMetric) -> Self {
        let reference = RowPanels::from(&reference);
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
    /// by `(distance, index)`: one serial `scan_rows` over the whole
    /// reference (non-finite distances skipped). Once `out` has capacity
    /// `k + 1` the scan allocates nothing, at any reference size.
    pub fn query_into(&self, probe: &[f64], k: usize, out: &mut Vec<Neighbor>) {
        out.clear();
        let k = k.min(self.len());
        out.reserve(k + 1);
        let all = 0..self.len();
        scan_rows(self.metric, probe, &self.reference, all, k, out, |i| i);
        keys_to_distances(self.metric, out);
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

/// [`scan_rows`] holds a panel against the current k-th key after
/// `cols / ABANDON_DIVISOR` columns: the first quarter. Measured on
/// `predict_large` (20,000 rows, 16 dims, ~1,950 rows rescanned per
/// query, 2-vCPU Xeon), `latency_p50_us` from `benchmark/run.sh` over
/// 16-row panels, runs alternating: after half 15.2–15.8, after a third
/// 13.9–15.4, after a quarter 13.7–15.3 (4 runs each); never 16.2–16.9
/// where a quarter read 13.3–13.4 (2 runs each); after an eighth
/// 13.1–14.8 where a quarter read 13.4–15.0 (4 runs each) — inside a
/// quarter's spread, and at widths under eight columns no check at all.
const ABANDON_DIVISOR: usize = 4;

/// The one row scan of this crate: offers the rows in slots `range` of
/// `rows` (`range.start` on a panel boundary) to the top-`k` buffer
/// `best` under the ids `id_of` gives them. The brute scan, the IVF
/// coarse probe and the IVF list rescan are this loop over the whole
/// reference, the centroids and one list.
///
/// `best` is keyed by *selection key*, not distance: the cosine distance
/// itself, but under `Euclidean` the **squared** distance — same order
/// (up to [`push_top_k`]'s note on ties), no `sqrt` per row.
/// [`keys_to_distances`] turns the `k` survivors into distances once
/// every list has been offered.
///
/// Rows advance a [`PANEL_ROWS`] panel at a time, each row's terms
/// added in [`vector::sq_dist`]'s (or [`vector::cosine_dist`]'s) order,
/// so every key is bitwise that function's value. Under `Euclidean`,
/// after the first [`ABANDON_DIVISOR`]th of the columns a panel whose
/// live rows' partial sums all exceed the current k-th key is abandoned: the terms are
/// non-negative, so in floating point a prefix sum never exceeds the
/// full sum, and a row that is dropped could only have been rejected by
/// `push_top_k`. A NaN partial sum compares greater than nothing, so its
/// panel runs on to `push_top_k`'s finite filter. Padding slots past
/// `range.end` are summed with their panel and never offered.
///
/// A probe of another width than `rows`, which no caller passes, is
/// compared over the columns both have and never reads out of range.
pub(crate) fn scan_rows(
    metric: DistanceMetric,
    probe: &[f64],
    rows: &RowPanels,
    range: Range<usize>,
    k: usize,
    best: &mut Vec<Neighbor>,
    id_of: impl Fn(usize) -> usize,
) {
    debug_assert_eq!(probe.len(), rows.cols());
    debug_assert!(range.start.is_multiple_of(PANEL_ROWS));
    let width = rows.cols().min(probe.len());
    let head = width / ABANDON_DIVISOR;
    let probe_norm = vector::norm(probe);
    for start in range.clone().step_by(PANEL_ROWS) {
        let panel = start / PANEL_ROWS;
        let live = PANEL_ROWS.min(range.end - start);
        let keys = match metric {
            DistanceMetric::Euclidean => {
                let mut sums = [-0.0; PANEL_ROWS];
                rows.add_sq_diffs(panel, probe, 0..head, &mut sums);
                let kth = match best.last() {
                    Some(last) if best.len() >= k => last.distance,
                    _ => f64::INFINITY,
                };
                if sums[..live].iter().all(|&partial| partial > kth) {
                    continue;
                }
                rows.add_sq_diffs(panel, probe, head..width, &mut sums);
                sums
            }
            DistanceMetric::Cosine => {
                let (dots, squares) = rows.dots(panel, probe);
                std::array::from_fn(|r| {
                    let row_norm = squares[r].sqrt();
                    if probe_norm == 0.0 || row_norm == 0.0 {
                        return 1.0;
                    }
                    1.0 - dots[r] / (probe_norm * row_norm)
                })
            }
        };
        for (r, &key) in keys[..live].iter().enumerate() {
            push_top_k(best, k, id_of(start + r), key);
        }
    }
}

/// Ends a scan: the survivors' selection keys become distances — a
/// `sqrt` per neighbor under `Euclidean`, nothing under `Cosine`.
pub(crate) fn keys_to_distances(metric: DistanceMetric, best: &mut [Neighbor]) {
    if metric == DistanceMetric::Euclidean {
        for n in best {
            n.distance = n.distance.sqrt();
        }
    }
}

/// Offers `(index, key)` to a top-`k` buffer kept sorted by
/// `(key, index)`.
///
/// This is *the* selection step of every scan in this crate —
/// [`scan_rows`] funnels the brute scan, the IVF coarse probe and the
/// IVF list rescan through it, which is what makes their results bitwise
/// comparable. The order is total, not first-seen, so the result does
/// not depend on the order rows are offered in: the IVF rescan offers
/// list after list to the one buffer and still breaks ties as the
/// ascending brute scan does. Under `Euclidean` the key is the *squared*
/// distance, so the order is `(squared distance, index)`: two rows whose
/// squares differ but round to the same `sqrt` come out ordered by
/// square, where a scan keyed by the rounded distance ordered them by
/// index.
/// Non-finite keys are rejected (a NaN compares false against
/// everything and would land unsorted at the front). A full buffer
/// rejects a farther row on one float compare, inlined into the scan
/// loop (as a call per row a 2,000-row scan takes 18 µs, not 15.5).
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        // The same through the panel scan, on the abandon's edge: 20
        // equal rows whose checked head column already *equals* the k-th
        // key and whose other columns add nothing, offered under
        // descending ids. The second panel (four live rows) holds the
        // lower ids and must not be dropped.
        let (n, cols) = (PANEL_ROWS + 4, ABANDON_DIVISOR);
        let rows = RowPanels::from(&Matrix::from_fn(n, cols, |_, j| (j == 0) as u8 as f64));
        best.clear();
        let (metric, probe) = (DistanceMetric::Euclidean, vec![0.0; cols]);
        scan_rows(metric, &probe, &rows, 0..n, 2, &mut best, |p| n - 1 - p);
        let found: Vec<usize> = best.iter().map(|n| n.index).collect();
        assert_eq!(found, vec![0, 1]);
    }

    #[test]
    fn offer_order_does_not_change_the_result() {
        for seed in 0..256 {
            let mut rng = StdRng::seed_from_u64(seed);
            // u8 distances collide often, exercising the index tie-break.
            let len = rng.random_range(0usize..64);
            let raw: Vec<u8> = (0..len).map(|_| rng.random_range(0u8..16)).collect();
            let rotate = rng.random_range(0usize..64);
            let k = rng.random_range(0usize..8);
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
            assert_eq!(&shuffled, &ascending, "seed {seed}");
        }
    }
}
