//! Sub-linear approximate-nearest-neighbor index (IVF).
//!
//! The paper's prediction step (§VI-B) is a kNN lookup in KCCA
//! projection space; at paper scale (~1000 training points) a linear
//! scan is unbeatable, but once the fast training path feeds 100k+-row
//! reference sets, predict latency goes linear in N. The classic fix is
//! an inverted-file (IVF) index: partition the reference rows with
//! k-means into `nlist` cells, and at query time scan only the lists of
//! the `nprobe` nearest centroids.
//!
//! Determinism, the property everything else in this workspace hinges
//! on, is preserved end to end:
//!
//! * the coarse quantizer is [`KMeans::fit`] under a fixed seed on a
//!   deterministic, evenly spaced sample, so the partition is bitwise
//!   reproducible;
//! * row-to-list assignment is a pure per-row function of the frozen
//!   centroids, fanned out with [`qpp_par::parallel_for_chunks`] and
//!   merged in chunk order — thread-count invariant;
//! * every row of every probed list is offered to the one top-k buffer
//!   by the `scan_rows` loop the brute scan is (finite-filtered,
//!   ordered by `(key, index)`), so ties break as in the serial scan
//!   whichever list a row sits in, and whichever panel slot it fills.
//!
//! The rescan is *exact* over the probed cells, so whenever those cells
//! cover the true top-k (always, when `nprobe == nlist`), results are
//! bitwise identical to [`NearestNeighbors::query`] — neighbors,
//! distances, and tie-breaks. With the default `nprobe`, recall is
//! governed by the probe width: raising `nprobe` buys recall linearly
//! in scan cost, `nprobe == nlist` degenerates to an exact
//! (list-partitioned) scan. `tests/ann_equivalence.rs` pins both modes.
//!
//! [`AnnIndex`] wraps the size-triggered switch: small references keep
//! the brute [`NearestNeighbors`] scan (faster below a few thousand
//! rows, and the correctness oracle above), large ones build the IVF
//! structure.

use crate::kmeans::KMeans;
use crate::knn::{
    keys_to_distances, predict_with, scan_rows, DistanceMetric, KnnError, KnnScratch,
    NearestNeighbors, Neighbor, NeighborWeighting,
};
use qpp_linalg::{Matrix, RowPanels, PANEL_ROWS};
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
/// ids `ids[offsets[c]..offsets[c + 1]]` (ascending by construction).
/// Its rows sit in `lists` from slot `starts[c]` on, in the same order:
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
    nprobe: usize,
}

impl IvfIndex {
    /// Builds the index: quantize a deterministic sample, assign every
    /// row to its nearest centroid in parallel, lay the lists out in
    /// CSR form.
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
        for w in offsets.windows(2) {
            starts.push(lists.rows());
            for &id in &ids[w[0]..w[1]] {
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
    /// component) probes nothing and yields no neighbors — the same
    /// outcome the brute scan's finite filter produces.
    pub fn query_into(&self, probe: &[f64], k: usize, scratch: &mut KnnScratch) {
        let KnnScratch {
            neighbors, probed, ..
        } = scratch;
        let metric = self.metric;
        // 1. Coarse probe: top-nprobe centroids by (key, index); only
        //    their indices are read, so the keys stay keys.
        probed.clear();
        let lists = 0..self.centroids.rows();
        let nprobe = self.nprobe;
        scan_rows(metric, probe, &self.centroids, lists, nprobe, probed, |c| c);
        // 2. Exact rescan: a sequential sweep over each probed list's
        //    panels, every row offered to the one top-k buffer under its
        //    original row id.
        neighbors.clear();
        for pc in probed.iter() {
            let (slots, first) = (self.slots(pc.index), self.offsets[pc.index]);
            let start = slots.start;
            scan_rows(metric, probe, &self.lists, slots, k, neighbors, |s| {
                self.ids[first + (s - start)]
            });
        }
        keys_to_distances(metric, neighbors);
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
    /// References with at most this many rows keep the brute scan; the
    /// default matches the point where one IVF probe's work (centroid
    /// scan + `nprobe` lists) undercuts a full scan with margin.
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

/// Neighbor index behind `qpp_core`'s `KccaPredictor`: brute-force below
/// the size threshold, IVF above it. Both arms share the selection and
/// combination code, so switching arms never changes tie-breaking — only
/// how many rows get scanned.
#[derive(Debug, Clone)]
pub enum AnnIndex {
    /// Exact linear scan ([`NearestNeighbors`]) — small references, and
    /// the correctness oracle for the IVF arm.
    Brute {
        /// The wrapped scan.
        scan: NearestNeighbors,
    },
    /// Inverted-file index for large references.
    Ivf {
        /// The wrapped index.
        ivf: IvfIndex,
    },
}

impl AnnIndex {
    /// Builds the right arm for the reference size: brute at or below
    /// `options.ivf_threshold` rows, IVF above it.
    pub fn build(
        reference: Matrix,
        metric: DistanceMetric,
        options: &AnnOptions,
    ) -> Result<AnnIndex, KnnError> {
        if reference.rows() <= options.ivf_threshold {
            Ok(AnnIndex::Brute {
                scan: NearestNeighbors::new(reference, metric),
            })
        } else {
            Ok(AnnIndex::Ivf {
                ivf: IvfIndex::build(reference, metric, options.ivf)?,
            })
        }
    }

    /// Number of reference points.
    pub fn len(&self) -> usize {
        match self {
            AnnIndex::Brute { scan } => scan.len(),
            AnnIndex::Ivf { ivf } => ivf.len(),
        }
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the IVF arm is active.
    pub fn is_ivf(&self) -> bool {
        matches!(self, AnnIndex::Ivf { .. })
    }

    /// The `k` nearest neighbors of `probe`, ascending by
    /// `(distance, index)`.
    pub fn query(&self, probe: &[f64], k: usize) -> Vec<Neighbor> {
        match self {
            AnnIndex::Brute { scan } => scan.query(probe, k),
            AnnIndex::Ivf { ivf } => ivf.query(probe, k),
        }
    }

    /// Like [`AnnIndex::query`], writing into `scratch.neighbors`.
    pub fn query_into(&self, probe: &[f64], k: usize, scratch: &mut KnnScratch) {
        match self {
            AnnIndex::Brute { scan } => scan.query_into(probe, k, &mut scratch.neighbors),
            AnnIndex::Ivf { ivf } => ivf.query_into(probe, k, scratch),
        }
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
        predict_with(self.len(), targets, weighting, scratch, out, |scratch| {
            self.query_into(probe, k, scratch)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::KMeansError;

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
        let small = AnnIndex::build(grid(100), DistanceMetric::Euclidean, &opts).unwrap();
        assert!(!small.is_ivf());
        let big = AnnIndex::build(grid(101), DistanceMetric::Euclidean, &opts).unwrap();
        assert!(big.is_ivf());
        assert_eq!(big.len(), 101);
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
    fn exhaustive_probe_matches_brute_bitwise() {
        let data = grid(3000);
        let nn = NearestNeighbors::new(data.clone(), DistanceMetric::Euclidean);
        let ivf = IvfIndex::build(
            data,
            DistanceMetric::Euclidean,
            IvfOptions {
                nlist: 16,
                nprobe: 16,
            },
        )
        .unwrap();
        for probe in [[3.0, 4.0], [70.0, 0.0], [35.5, 33.25]] {
            let brute = nn.query(&probe, 7);
            let approx = ivf.query(&probe, 7);
            assert_eq!(brute.len(), approx.len());
            for (b, a) in brute.iter().zip(approx.iter()) {
                assert_eq!(b.index, a.index);
                assert_eq!(b.distance.to_bits(), a.distance.to_bits());
            }
        }
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
