//! Nearest-neighbour index over inverted lists (IVF), exact or
//! sub-linear. The paper's prediction step (§VI-B) is a kNN lookup in
//! KCCA projection space: k-means partitions the reference rows into
//! `nlist` lists, and a query rescans the lists of the `nprobe` nearest
//! centroids. Determinism is preserved end to end:
//!
//! * the coarse quantizer is [`KMeans::fit`] under a fixed seed on a
//!   deterministic, evenly spaced sample, so the partition is bitwise
//!   reproducible;
//! * row-to-list assignment is a pure per-row function of the frozen
//!   centroids, fanned out with [`qpp_par::parallel_for_chunks`] and
//!   merged in chunk order — thread-count invariant;
//! * every rescanned row is offered to the one top-k buffer by the
//!   `scan_rows` loop the brute scan is (finite-filtered, ordered by
//!   `(key, index)`), so ties break as in the serial scan whichever list
//!   or panel slot a row sits in.
//!
//! **The list bound.** Each list records its radius (∞ if a member is
//! not finite). Under `Euclidean`, a full buffer skips a list whose
//! centroid distance minus radius, shrunk by a relative `1e-9`, still
//! exceeds the k-th distance: no member could enter, even on a tie, so
//! answers are bitwise those of the same lists scanned without it.
//! Cosine distance skips nothing. With `nprobe == nlist` every list is
//! visited and the answer is bitwise [`NearestNeighbors::query`]'s.
//! `tests/ann_equivalence.rs` pins both.
//!
//! [`AnnIndex`] wraps the size-triggered switch: at or below the
//! threshold every list is probed (exact), above it `nprobe` lists.
//!
//! [`NearestNeighbors::query`]: crate::knn::NearestNeighbors::query

use crate::kmeans::KMeans;
use crate::knn::{
    keys_to_distances, predict_with, scan_rows, DistanceMetric, KnnError, KnnScratch, Neighbor,
    NeighborWeighting,
};
use qpp_linalg::{vector, Matrix, RowPanels, PANEL_ROWS};
use serde::{Deserialize, Serialize};

/// Target mean inverted-list length when `nlist` is auto-sized.
///
/// Query cost is ~`nlist + nprobe * list_len` distances; a *fixed*
/// list length keeps the probed-row term constant as N grows (the
/// centroid term grows, but is capped by [`MAX_NLIST`]), which is what
/// keeps the p99-vs-N curve flat. The textbook `sqrt(N)` sizing makes
/// both terms grow as `sqrt(N)` — 10x from 1k to 100k rows — and would
/// fail the `knn_sweep` flatness gate.
const TARGET_LIST_LEN: usize = 128;

/// Upper bound on the auto-sized `nlist`: past this, the centroid scan
/// itself would start to dominate.
const MAX_NLIST: usize = 4096;

/// Seed for the k-means coarse quantizer — fixes the partition, and with
/// it every query result, bitwise.
const QUANTIZER_SEED: u64 = 0x1CDE_2009;

/// Lloyd iterations for the quantizer. The partition only has to be
/// balanced, not converged; a handful of rounds is plenty.
const QUANTIZER_ITERS: usize = 5;

/// Quantizer training-sample cap: the k-means runs on an evenly spaced
/// sample of at most this many rows (never fewer than `nlist`), then
/// all rows are assigned in one parallel pass. Keeps build time bounded
/// for million-row references.
const TRAIN_SAMPLE_CAP: usize = 32_768;

/// Mean list length of [`AnnIndex::Exact`], which probes every list
/// and lets the list bound skip the far ones. Shorter lists bound more
/// tightly but add centroids to rank. Against a 2,000-row TPC-DS model
/// (16 projection dimensions, `k` = 3), 1,000 live queries took, best
/// of nine runs on a 2-vCPU Xeon: 6.5 µs each over 128-row lists, 5.3
/// over 64-row, 5.4 over 32-row, and 10.4 by the brute scan.
const EXACT_LIST_LEN: usize = 64;

/// Relative shrink applied to the list bound before it is trusted: the
/// sums it compares are rounded to ~1e-15 of their size (16 terms), so
/// a 1e-9 margin never lets rounding skip a list that holds an answer.
const RADIUS_SLACK: f64 = 1e-9;

/// Build-time options for [`IvfIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IvfOptions {
    /// Number of k-means cells; `0` auto-sizes to
    /// `clamp(rows / 128, 1, 4096)` (see `TARGET_LIST_LEN`).
    pub nlist: usize,
    /// Probed cells per query; clamped to `[1, nlist]` at build time.
    /// `nprobe == nlist` makes the index exact.
    pub nprobe: usize,
}

impl Default for IvfOptions {
    fn default() -> Self {
        IvfOptions {
            nlist: 0,
            nprobe: 8,
        }
    }
}

/// Inverted-file index: k-means centroids plus CSR inverted lists.
///
/// `offsets` has `nlist + 1` entries; list `c` holds the original row
/// ids `ids[offsets[c]..offsets[c + 1]]` (ascending by construction),
/// and `radii[c]` is the largest distance from one of them to centroid
/// `c`, ∞ when one is not finite (the module doc's list bound). Its
/// rows sit in `lists` from slot `starts[c]` on, in the same order:
/// every list starts on a panel boundary and its last panel is padded
/// with zero rows. Packing is what makes the rescan sub-linear in
/// practice, not just in distance count: each probed list is one
/// sequential run of panels, where gathering rows from the original
/// matrix order costs a cache miss per row once the reference outgrows
/// the LLC.
#[derive(Debug, Clone)]
pub struct IvfIndex {
    lists: RowPanels,
    starts: Vec<usize>,
    metric: DistanceMetric,
    centroids: RowPanels,
    offsets: Vec<usize>,
    ids: Vec<usize>,
    radii: Vec<f64>,
    nprobe: usize,
}

impl IvfIndex {
    /// Builds the index: quantize a deterministic sample, assign every
    /// row to its nearest centroid in parallel, lay the lists out in
    /// CSR form and record their radii.
    ///
    /// Fails with [`KnnError::IndexBuild`] when the quantizer cannot be
    /// trained (degenerate `nlist` for the reference size, or no fully
    /// finite row to seed from).
    pub fn build(
        reference: Matrix,
        metric: DistanceMetric,
        options: IvfOptions,
    ) -> Result<IvfIndex, KnnError> {
        let n = reference.rows();
        if n == 0 {
            return Err(KnnError::EmptyReference);
        }
        let nlist = if options.nlist > 0 {
            options.nlist.min(n)
        } else {
            (n / TARGET_LIST_LEN).clamp(1, MAX_NLIST)
        };
        let nprobe = options.nprobe.clamp(1, nlist);

        // Deterministic sample for the quantizer, spread evenly over all
        // `n` rows (a floored stride would leave the tail unsampled);
        // assignment below still covers every row.
        let sample_len = TRAIN_SAMPLE_CAP.max(nlist).min(n);
        let sample_ids: Vec<usize> = (0..sample_len).map(|i| i * n / sample_len).collect();
        let sample = reference.select_rows(&sample_ids);
        let km = KMeans::fit(&sample, nlist, QUANTIZER_SEED, QUANTIZER_ITERS)?;

        // `KMeans::assign` is a pure function of the frozen centroids,
        // so the chunk fan-out is thread-count invariant; chunks come
        // back in index order. Rows with non-finite components land in
        // whatever cell the NaN comparison chain leaves them (cluster 0)
        // — harmless, since the query-time rescan skips them the same
        // way the brute scan does.
        let assign_chunks = qpp_par::parallel_for_chunks(n, 4096, |chunk| {
            chunk
                .range
                .clone()
                .map(|i| km.assign(reference.row(i)))
                .collect::<Vec<_>>()
        });
        let centroids = RowPanels::from(&km.centroids);

        // CSR layout: count, prefix-sum, then place ids in ascending row
        // order within each list.
        let mut offsets = vec![0usize; nlist + 1];
        for cells in &assign_chunks {
            for &c in cells {
                offsets[c + 1] += 1;
            }
        }
        for c in 0..nlist {
            offsets[c + 1] += offsets[c];
        }
        let mut cursor = offsets.clone();
        let mut ids = vec![0usize; n];
        let mut row = 0usize;
        for cells in &assign_chunks {
            for &c in cells {
                ids[cursor[c]] = row;
                cursor[c] += 1;
                row += 1;
            }
        }

        // Pack the reference rows into list order: one run of panels per
        // inverted list, each from a panel boundary on, so the query-time
        // rescan streams memory sequentially instead of gathering
        // scattered rows.
        let runs = offsets.windows(2).map(|w| w[1] - w[0]);
        let slots = runs.map(|len| len.next_multiple_of(PANEL_ROWS)).sum();
        let mut lists = RowPanels::with_capacity(slots, reference.cols());
        let mut starts = Vec::with_capacity(nlist + 1);
        let mut radii = vec![0.0f64; nlist];
        for (c, w) in offsets.windows(2).enumerate() {
            starts.push(lists.rows());
            for &id in &ids[w[0]..w[1]] {
                let key = vector::sq_dist(reference.row(id), km.centroids.row(c));
                // `f64::max` would drop a NaN; a non-finite member makes
                // the list unbounded instead.
                let reach = if key.is_finite() {
                    key.sqrt()
                } else {
                    f64::INFINITY
                };
                radii[c] = radii[c].max(reach);
                lists.push_row(reference.row(id));
            }
            lists.close_panel();
        }
        starts.push(lists.rows());
        Ok(IvfIndex {
            lists,
            starts,
            metric,
            centroids,
            offsets,
            ids,
            radii,
            nprobe,
        })
    }

    /// Number of reference points.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the index is empty (never, post-build — `build`
    /// rejects empty references — but kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of inverted lists.
    pub fn nlist(&self) -> usize {
        self.centroids.rows()
    }

    /// Lists probed per query.
    pub fn nprobe(&self) -> usize {
        self.nprobe
    }

    /// The coarse-quantizer centroids (one row per list).
    pub fn centroids(&self) -> &RowPanels {
        &self.centroids
    }

    /// Row ids of inverted list `c`, ascending.
    pub fn list(&self, c: usize) -> &[usize] {
        &self.ids[self.offsets[c]..self.offsets[c + 1]]
    }

    /// The slots of `lists` holding list `c`'s rows.
    fn slots(&self, c: usize) -> std::ops::Range<usize> {
        self.starts[c]..self.starts[c] + self.offsets[c + 1] - self.offsets[c]
    }

    /// The distance metric this index was built with.
    pub fn metric(&self) -> DistanceMetric {
        self.metric
    }

    /// The `k` nearest neighbors of `probe` among the probed cells,
    /// ascending by `(distance, index)` — allocating convenience over
    /// [`IvfIndex::query_into`].
    pub fn query(&self, probe: &[f64], k: usize) -> Vec<Neighbor> {
        let mut scratch = KnnScratch::new();
        self.query_into(probe, k, &mut scratch);
        scratch.neighbors
    }

    /// Probe + rescan, writing neighbors into `scratch.neighbors`. With
    /// warm scratch buffers this performs no heap allocation.
    ///
    /// A probe at a non-finite distance from every centroid (e.g. a NaN
    /// component) yields no neighbors — the same outcome the brute
    /// scan's finite filter produces.
    pub fn query_into(&self, probe: &[f64], k: usize, scratch: &mut KnnScratch) {
        self.search(probe, k, scratch);
    }

    /// [`IvfIndex::query_into`], returning how many lists it rescanned.
    fn search(&self, probe: &[f64], k: usize, scratch: &mut KnnScratch) -> usize {
        let KnnScratch {
            neighbors, probed, ..
        } = scratch;
        let (metric, nlist) = (self.metric, self.nlist());
        // 1. Coarse probe: top-nprobe centroids by (key, index), nearest
        //    first, so the buffer fills from the lists most likely to
        //    bound the rest.
        probed.clear();
        scan_rows(
            metric,
            probe,
            &self.centroids,
            0..nlist,
            self.nprobe,
            probed,
            |c| c,
        );
        // An exhaustive index visits every list: one whose centroid key
        // is not finite (an overflowing probe or centroid) goes last and
        // is never skipped.
        if self.nprobe == nlist && probed.len() < nlist {
            for c in 0..nlist {
                if !probed.iter().any(|p| p.index == c) {
                    let distance = f64::INFINITY;
                    probed.push(Neighbor { index: c, distance });
                }
            }
        }
        // 2. Exact rescan: a sequential sweep over each probed list's
        //    panels, every row offered to the one top-k buffer under its
        //    original row id, unless the list bound rules the list out.
        neighbors.clear();
        let mut rescanned = 0;
        for pc in probed.iter() {
            let kth = match neighbors.last() {
                Some(last) if neighbors.len() >= k => last.distance,
                _ => f64::INFINITY,
            };
            if self.out_of_reach(pc.index, pc.distance, kth) {
                continue;
            }
            let (slots, first) = (self.slots(pc.index), self.offsets[pc.index]);
            let start = slots.start;
            scan_rows(metric, probe, &self.lists, slots, k, neighbors, |s| {
                self.ids[first + (s - start)]
            });
            rescanned += 1;
        }
        keys_to_distances(metric, neighbors);
        rescanned
    }

    /// True when no row of list `c`, whose centroid sits at squared
    /// distance `centroid_key` from the probe, can enter a full buffer
    /// whose k-th squared distance is `kth` — not even on a tie, which
    /// `push_top_k` settles by index. By the triangle inequality every
    /// member is at least `√centroid_key − radius` away; that bound,
    /// shrunk by [`RADIUS_SLACK`] of `√centroid_key + radius`, must
    /// still square to more than `kth`. Below `√f64::MIN_POSITIVE` the
    /// rounding of a sum is absolute, not relative, so a smaller bound
    /// is never trusted. Under `Cosine` nothing is out of reach.
    fn out_of_reach(&self, c: usize, centroid_key: f64, kth: f64) -> bool {
        if self.metric != DistanceMetric::Euclidean {
            return false;
        }
        let (centre, radius) = (centroid_key.sqrt(), self.radii[c]);
        let gap = centre - radius - RADIUS_SLACK * (centre + radius);
        gap > 0.0 && gap * gap > kth.max(f64::MIN_POSITIVE.sqrt())
    }

    /// Predicts a target vector for `probe` into reusable buffers; the
    /// body is the brute path's `predict_with`, so predictions agree
    /// bitwise whenever the neighbor sets do.
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
            self.query_into(probe, k, scratch)
        })
    }
}

/// Options for the size-triggered [`AnnIndex`] switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnnOptions {
    /// References with at most this many rows get the exact arm, which
    /// probes every list; past it `ivf.nprobe` lists are probed. The
    /// default was set against the brute scan the exact arm replaced.
    pub ivf_threshold: usize,
    /// IVF build parameters used past the threshold.
    pub ivf: IvfOptions,
}

impl Default for AnnOptions {
    fn default() -> Self {
        AnnOptions {
            ivf_threshold: 4096,
            ivf: IvfOptions::default(),
        }
    }
}

/// Neighbor index behind `qpp_core`'s `KccaPredictor`: an [`IvfIndex`]
/// on either side of the size threshold, exact below it and approximate
/// above. Both arms run the one query, so switching arms never changes
/// tie-breaking — only how many lists get scanned.
#[derive(Debug, Clone)]
pub enum AnnIndex {
    /// Every list of ~64 rows probed, the list bound skipping the far
    /// ones: bitwise the [`crate::knn::NearestNeighbors`] scan's answer.
    Exact {
        /// The wrapped index, `nprobe == nlist`.
        ivf: IvfIndex,
    },
    /// The `nprobe` nearest lists probed: large references.
    Ivf {
        /// The wrapped index.
        ivf: IvfIndex,
    },
}

impl AnnIndex {
    /// Builds the right arm for the reference size: exact at or below
    /// `options.ivf_threshold` rows, `options.ivf` above it.
    pub fn build(
        reference: Matrix,
        metric: DistanceMetric,
        options: &AnnOptions,
    ) -> Result<AnnIndex, KnnError> {
        let rows = reference.rows();
        if rows <= options.ivf_threshold {
            let nlist = (rows / EXACT_LIST_LEN).clamp(1, MAX_NLIST);
            let every_list = IvfOptions {
                nlist,
                nprobe: nlist,
            };
            let ivf = IvfIndex::build(reference, metric, every_list)?;
            Ok(AnnIndex::Exact { ivf })
        } else {
            let ivf = IvfIndex::build(reference, metric, options.ivf)?;
            Ok(AnnIndex::Ivf { ivf })
        }
    }

    /// The index either arm queries.
    fn ivf(&self) -> &IvfIndex {
        match self {
            AnnIndex::Exact { ivf } | AnnIndex::Ivf { ivf } => ivf,
        }
    }

    /// True when the approximate arm is active.
    pub fn is_ivf(&self) -> bool {
        matches!(self, AnnIndex::Ivf { .. })
    }

    /// The `k` nearest neighbors of `probe`, ascending by
    /// `(distance, index)`.
    pub fn query(&self, probe: &[f64], k: usize) -> Vec<Neighbor> {
        self.ivf().query(probe, k)
    }

    /// Like [`AnnIndex::query`], writing into `scratch.neighbors`.
    pub fn query_into(&self, probe: &[f64], k: usize, scratch: &mut KnnScratch) {
        self.ivf().query_into(probe, k, scratch)
    }

    /// Predicts a target vector for `probe` into reusable buffers —
    /// alloc-free with warm scratch on both arms.
    pub fn predict_into(
        &self,
        probe: &[f64],
        targets: &Matrix,
        k: usize,
        weighting: NeighborWeighting,
        scratch: &mut KnnScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), KnnError> {
        self.ivf()
            .predict_into(probe, targets, k, weighting, scratch, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::KMeansError;
    use crate::knn::NearestNeighbors;

    fn grid(n: usize) -> Matrix {
        let rows: Vec<Vec<f64>> = // allow-vecvec: test fixture
            (0..n)
            .map(|i| vec![(i % 71) as f64, ((i * 13) % 67) as f64])
            .collect();
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn auto_switch_picks_arm_by_size() {
        let opts = AnnOptions {
            ivf_threshold: 100,
            ..AnnOptions::default()
        };
        // At the threshold the exact arm probes every list; past it the
        // approximate arm probes `nprobe` of them.
        let small = AnnIndex::build(grid(100), DistanceMetric::Euclidean, &opts).unwrap();
        assert!(matches!(small, AnnIndex::Exact { .. }) && !small.is_ivf());
        assert_eq!(small.ivf().nprobe(), small.ivf().nlist());
        let big = AnnIndex::build(grid(101), DistanceMetric::Euclidean, &opts).unwrap();
        assert!(big.is_ivf());
        assert_eq!(big.ivf().len(), 101);
    }

    /// The list bound, counted rather than timed: on a 2,000-row
    /// reference a query at a reference row rescans under a tenth of
    /// the exact arm's lists and still answers as the brute scan does.
    /// Cosine distance obeys no such bound and rescans every list.
    #[test]
    fn list_bound_skips_most_lists_of_the_exact_arm() {
        let data = grid(2000);
        let mut scratch = KnnScratch::new();
        for metric in [DistanceMetric::Euclidean, DistanceMetric::Cosine] {
            let nn = NearestNeighbors::new(data.clone(), metric);
            let index = AnnIndex::build(data.clone(), metric, &AnnOptions::default()).unwrap();
            let (ivf, queries) = (index.ivf(), 200);
            assert_eq!(ivf.nlist(), 2000 / EXACT_LIST_LEN);
            let mut rescanned = 0;
            for i in (0..2000).step_by(2000 / queries) {
                rescanned += ivf.search(data.row(i), 3, &mut scratch);
                assert_eq!(scratch.neighbors, nn.query(data.row(i), 3), "row {i}");
            }
            let every = queries * ivf.nlist();
            match metric {
                DistanceMetric::Euclidean => assert!(rescanned * 10 < every, "{rescanned}"),
                DistanceMetric::Cosine => assert_eq!(rescanned, every),
            }
        }
    }

    #[test]
    fn csr_lists_partition_all_rows_ascending() {
        let ivf =
            IvfIndex::build(grid(2000), DistanceMetric::Euclidean, IvfOptions::default()).unwrap();
        let mut seen = vec![false; 2000];
        for c in 0..ivf.nlist() {
            let list = ivf.list(c);
            for w in list.windows(2) {
                assert!(w[0] < w[1], "list {c} not ascending: {list:?}");
            }
            for &i in list {
                assert!(!seen[i], "row {i} in two lists");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some row missing from every list");
    }

    #[test]
    fn auto_sized_nlist_targets_fixed_list_length() {
        let ivf =
            IvfIndex::build(grid(2000), DistanceMetric::Euclidean, IvfOptions::default()).unwrap();
        assert_eq!(ivf.nlist(), 2000 / 128);
        assert_eq!(ivf.nprobe(), 8);
    }

    #[test]
    fn empty_reference_is_rejected() {
        assert_eq!(
            IvfIndex::build(
                Matrix::zeros(0, 2),
                DistanceMetric::Euclidean,
                IvfOptions::default()
            )
            .map(|_| ()),
            Err(KnnError::EmptyReference)
        );
    }

    #[test]
    fn all_corrupt_reference_maps_to_index_build_error() {
        let data = Matrix::from_rows(&[vec![f64::NAN, 0.0], vec![0.0, f64::INFINITY]]).unwrap();
        assert_eq!(
            IvfIndex::build(data, DistanceMetric::Euclidean, IvfOptions::default()).map(|_| ()),
            Err(KnnError::IndexBuild(KMeansError::NoFiniteRows))
        );
    }

    #[test]
    fn quantizer_sample_reaches_the_tail_rows() {
        // Between one and two sample caps, a floored stride of 1 sampled
        // only the first 32,768 rows: no centroid landed in a blob formed
        // by the rest, and one list swallowed all of it.
        let n = 40_000;
        let data = Matrix::from_fn(n, 2, |i, j| {
            let spread = ((i * [7919, 104_729][j]) % 1000) as f64 / 100.0;
            spread + if i >= TRAIN_SAMPLE_CAP { 100.0 } else { 0.0 }
        });
        let ivf = IvfIndex::build(data, DistanceMetric::Euclidean, IvfOptions::default()).unwrap();
        let largest = (0..ivf.nlist()).map(|c| ivf.list(c).len()).max();
        assert!(largest < Some(1000), "largest list {largest:?}");
    }

    #[test]
    fn nan_probe_yields_no_neighbors() {
        let ivf =
            IvfIndex::build(grid(1000), DistanceMetric::Euclidean, IvfOptions::default()).unwrap();
        assert!(ivf.query(&[f64::NAN, 0.0], 3).is_empty());
    }
}
