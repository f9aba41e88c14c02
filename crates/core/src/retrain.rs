//! Sliding-window retraining (paper §VII-C.4, future work).
//!
//! The paper notes KCCA training is cubic and proposes "a sliding
//! training set of data with a larger emphasis on more recently
//! executed queries". This module keeps that set: a bounded window of
//! the most recent executed queries, each held as the row a refit
//! reads (its feature vector, six metrics and optimizer cost), not as
//! the query record itself.

use crate::baselines::OptimizerCostModel;
use crate::dataset::{Dataset, QueryRecord};
use crate::error::QppError;
use crate::features::{feature_dim, query_features_to};
use crate::predictor::{KccaPredictor, PredictorOptions};
use qpp_engine::PerfMetrics;
use qpp_linalg::Matrix;

/// The sliding training window: the newest executed queries, oldest
/// first, as rows in one flat ring, and the options a refit trains
/// with. A row is a query's `options.feature_kind` feature vector, its
/// six metrics in canonical order and its plan's optimizer cost. Once
/// full, a push overwrites the oldest row in place and allocates
/// nothing. The adaptive control plane's shadow holdout is one too.
#[derive(Debug, Clone)]
pub struct SlidingWindowPredictor {
    options: PredictorOptions,
    capacity: usize,
    /// Values per row: the features, six metrics, the cost.
    width: usize,
    /// Whole rows, at most `capacity`; the oldest is row `head`.
    data: Vec<f64>,
    head: usize,
}

/// Fewest records KCCA can sensibly train on; a refit of a smaller
/// window is refused.
pub const MIN_TRAIN_WINDOW: usize = 8;

impl SlidingWindowPredictor {
    /// A window of at most `capacity` rows holding the seed's newest
    /// `capacity` records. `refresh_every` is unused: the caller refits
    /// when it chooses (`qpp-adapt`'s retrain task), and the parameter
    /// stays only for the callers that still pass it.
    pub fn new(
        seed: Dataset,
        capacity: usize,
        _refresh_every: usize,
        options: PredictorOptions,
    ) -> Self {
        assert!(capacity >= MIN_TRAIN_WINDOW, "window too small for KCCA");
        let mut window = SlidingWindowPredictor::empty(capacity, options);
        let newest = seed.records.len().saturating_sub(capacity);
        seed.records[newest..].iter().for_each(|r| window.push(r));
        window
    }

    /// An empty window of at most `capacity` (at least 1) rows.
    pub fn empty(capacity: usize, options: PredictorOptions) -> Self {
        SlidingWindowPredictor {
            options,
            capacity: capacity.max(1),
            width: feature_dim(options.feature_kind) + PerfMetrics::DIM + 1,
            data: Vec::new(),
            head: 0,
        }
    }

    /// Appends one executed query's row, overwriting the oldest when
    /// full. Never refits: the adaptive control plane refits on a
    /// background worker at moments *it* chooses.
    pub fn push(&mut self, record: &QueryRecord) {
        let (kind, width) = (self.options.feature_kind, self.width);
        let at = if self.len() < self.capacity {
            self.data.resize(self.data.len() + width, 0.0);
            self.len() - 1
        } else {
            let oldest = self.head;
            self.head = (oldest + 1) % self.capacity;
            oldest
        };
        let row = &mut self.data[at * width..][..width];
        let (features, rest) = row.split_at_mut(feature_dim(kind));
        let plan = &record.optimized.plan;
        query_features_to(kind, &record.spec, plan, features);
        rest[..PerfMetrics::DIM].copy_from_slice(&record.metrics.to_array());
        rest[PerfMetrics::DIM] = plan.optimizer_cost;
    }

    /// Rows held.
    pub fn len(&self) -> usize {
        self.data.len() / self.width
    }

    /// True when no row is held.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Each row as (features, metrics, cost), oldest first.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = (&[f64], PerfMetrics, f64)> + '_ {
        let (dim, width) = (feature_dim(self.options.feature_kind), self.width);
        (0..self.len()).map(move |i| {
            let row = &self.data[(self.head + i) % self.capacity * width..][..width];
            let metrics = PerfMetrics::from_vec(&row[dim..width - 1]);
            (&row[..dim], metrics, row[width - 1])
        })
    }

    /// Fits the KCCA model through [`KccaPredictor::fit`] and the
    /// optimizer-cost baseline through [`OptimizerCostModel::fit`] on
    /// the rows: the matrices and pairs `train` builds from a dataset
    /// of the same records, so the same bits.
    pub fn fit(&self) -> Result<(KccaPredictor, OptimizerCostModel), QppError> {
        let dim = feature_dim(self.options.feature_kind);
        let mut features = Matrix::zeros(self.len(), dim);
        let mut performance = Matrix::zeros(self.len(), PerfMetrics::DIM);
        for (i, (row, metrics, _)) in self.rows().enumerate() {
            features.row_mut(i).copy_from_slice(row);
            performance.row_mut(i).copy_from_slice(&metrics.to_array());
        }
        let model = KccaPredictor::fit(&features, performance, self.options)?;
        let pairs = self.rows().map(|(_, m, cost)| (cost, m.elapsed_seconds));
        Ok((model, OptimizerCostModel::fit(pairs)?))
    }

    /// The predictor options a refit trains with.
    pub fn options(&self) -> PredictorOptions {
        self.options
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::query_features;
    use qpp_engine::SystemConfig;
    use qpp_workload::{Schema, WorkloadGenerator};

    fn dataset(n: usize, seed: u64) -> Dataset {
        let schema = Schema::tpcds(1.0);
        let mut g = WorkloadGenerator::tpcds(1.0, seed);
        Dataset::collect(&schema, g.generate(n), &SystemConfig::neoview_4(), 2)
    }

    /// What a window holding `records`, oldest first, must read back.
    fn rows_of(records: &[QueryRecord]) -> Vec<(Vec<f64>, PerfMetrics)> {
        let kind = PredictorOptions::default().feature_kind;
        let row = |r: &QueryRecord| (query_features(kind, &r.spec, &r.optimized.plan), r.metrics);
        records.iter().map(row).collect()
    }

    /// Regression: the constructor kept a whole oversized seed, breaking
    /// the window invariant until enough pushes flushed the excess.
    #[test]
    fn constructor_trims_oversized_template_to_capacity() {
        let sw = SlidingWindowPredictor::new(dataset(40, 75), 10, 5, PredictorOptions::default());
        assert_eq!(sw.len(), 10, "window must respect capacity at birth");
    }

    /// The window holds one row per kept seed record, the newest ones,
    /// oldest first.
    #[test]
    fn constructor_holds_each_seed_record_once() {
        let seed_data = dataset(20, 80);
        let newest = rows_of(&seed_data.records[5..]);
        let sw = SlidingWindowPredictor::new(seed_data, 15, 5, PredictorOptions::default());
        let held: Vec<_> = sw.rows().map(|(f, m, _)| (f.to_vec(), m)).collect();
        assert_eq!(held, newest);
    }
}
