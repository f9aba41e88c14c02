//! The one-model KCCA predictor (paper §VI, Figs. 5 and 7).
//!
//! Training: extract query-feature and performance-feature vectors for
//! every executed training query, fit KCCA, and keep the training
//! points' coordinates in the query projection alongside their measured
//! metrics.
//!
//! Prediction: project the new query's feature vector into the query
//! projection, find its k nearest training neighbors there, and
//! average their measured performance vectors (the paper's resolution
//! of the pre-image problem, §VI-E.3). The mean neighbor distance
//! doubles as a confidence signal (§VII-C.3).

use crate::dataset::Dataset;
use crate::error::{QppError, ResultExt};
use crate::features::{feature_dim, performance_to_kernel_space, query_features_to, FeatureKind};
use qpp_engine::{PerfMetrics, Plan};
use qpp_linalg::{stats::Standardizer, vector, LinalgError, Matrix};
use qpp_ml::{
    AnnIndex, AnnOptions, DistanceMetric, Kcca, KccaOptions, KnnError, KnnScratch,
    NeighborWeighting, ProjectionScratch,
};
use qpp_workload::QuerySpec;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::ops::Deref;

/// Tunable knobs of the predictor; defaults are the paper's choices.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PredictorOptions {
    /// Which query feature vector to use (paper: query plan).
    pub feature_kind: FeatureKind,
    /// KCCA hyperparameters.
    pub kcca: KccaOptions,
    /// Neighbors consulted per prediction (paper: 3, Table II).
    pub neighbors: usize,
    /// Distance metric in projection space (paper: Euclidean, Table I).
    pub metric: DistanceMetric,
    /// Neighbor weighting (paper: equal, Table III).
    pub weighting: NeighborWeighting,
    /// Neighbor-index selection: an exact search at paper scale, `nprobe`
    /// lists of the IVF index once the reference outgrows
    /// `ann.ivf_threshold` rows (DESIGN.md §8).
    pub ann: AnnOptions,
}

impl Default for PredictorOptions {
    fn default() -> Self {
        PredictorOptions {
            feature_kind: FeatureKind::QueryPlan,
            kcca: KccaOptions::default(),
            neighbors: 3,
            metric: DistanceMetric::Euclidean,
            weighting: NeighborWeighting::Equal,
            ann: AnnOptions::default(),
        }
    }
}

/// Neighbor indices stored inline: up to [`NeighborIds::INLINE`]
/// entries live in the struct itself (covering every practical k — the
/// paper evaluates 3..7), so building a [`Prediction`] performs no heap
/// allocation. Larger k spills to a `Vec`. Dereferences to `&[usize]`.
#[derive(Debug, Clone, Default)]
pub struct NeighborIds {
    len: usize,
    inline: [usize; Self::INLINE],
    spill: Vec<usize>,
}

impl NeighborIds {
    /// Indices held without heap allocation.
    pub const INLINE: usize = 8;

    /// An empty list (no allocation).
    pub fn new() -> Self {
        NeighborIds::default()
    }

    /// Appends an index, spilling to the heap past [`NeighborIds::INLINE`].
    pub fn push(&mut self, index: usize) {
        if self.spill.is_empty() && self.len < Self::INLINE {
            self.inline[self.len] = index;
        } else {
            if self.spill.is_empty() {
                self.spill.reserve(self.len + 1);
                self.spill.extend_from_slice(&self.inline[..self.len]);
            }
            self.spill.push(index);
        }
        self.len += 1;
    }

    /// The indices as a slice.
    pub fn as_slice(&self) -> &[usize] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl Deref for NeighborIds {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        self.as_slice()
    }
}

impl PartialEq for NeighborIds {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for NeighborIds {}

impl FromIterator<usize> for NeighborIds {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut out = NeighborIds::new();
        for index in iter {
            out.push(index);
        }
        out
    }
}

impl<'a> IntoIterator for &'a NeighborIds {
    type Item = &'a usize;
    type IntoIter = std::slice::Iter<'a, usize>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A prediction for one query.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Predicted values for all six metrics.
    pub metrics: PerfMetrics,
    /// Training-record indices of the neighbors used.
    pub neighbor_indices: NeighborIds,
    /// Mean distance to the neighbors in the query projection; small
    /// means the model has seen similar queries (high confidence),
    /// large flags a potentially anomalous query (§VII-C.3).
    pub confidence_distance: f64,
    /// Largest kernel similarity between the query and any training
    /// pivot, in `(0, 1]`. Near-zero means the query's kernel row
    /// vanished — it is unlike everything in the training set, and the
    /// projection (hence `confidence_distance`) is untrustworthy.
    pub max_kernel_similarity: f64,
}

impl Prediction {
    /// True when the prediction should not be trusted: either the
    /// nearest training neighbors are far away in projection space, or
    /// the query fell outside the kernel's support entirely.
    pub fn is_anomalous(&self, distance_threshold: f64, similarity_floor: f64) -> bool {
        self.confidence_distance > distance_threshold
            || self.max_kernel_similarity < similarity_floor
    }
}

/// A trained one-model KCCA predictor: what its fit learned, and the
/// neighbor index over the query projection built from that.
#[derive(Debug, Clone)]
pub struct KccaPredictor {
    learned: Learned,
    index: AnnIndex,
}

/// What a fit learned, and all [`crate::model_io`] ships: the neighbor
/// index is a deterministic function of these, so it is rebuilt at load.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Learned {
    options: PredictorOptions,
    scaler: Standardizer,
    kcca: Kcca,
    /// What the neighbors' rows are averaged from, row-aligned with the
    /// query projection: the raw measured metrics (paper §VI-E.3).
    targets: Matrix,
}

/// Per-thread reusable buffers for the predict path. One instance per
/// thread (thread-local), so concurrent serving and `qpp-par` threads never
/// contend, and a warmed-up thread performs zero heap allocations per
/// [`KccaPredictor::predict`] or [`KccaPredictor::predict_features`]
/// call.
#[derive(Debug, Default)]
struct PredictScratch {
    /// Raw feature vector `predict` extracts from the plan.
    features: Vec<f64>,
    scaled: Vec<f64>,
    projection: ProjectionScratch,
    projected: Vec<f64>,
    knn: KnnScratch,
    combined: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<PredictScratch> = RefCell::new(PredictScratch::default());
}

impl KccaPredictor {
    /// Trains on every record of `dataset`: [`KccaPredictor::fit`] on
    /// its `options.feature_kind` feature matrix and its raw performance
    /// matrix.
    pub fn train(dataset: &Dataset, options: PredictorOptions) -> Result<Self, QppError> {
        KccaPredictor::fit(
            &dataset.feature_matrix(options.feature_kind),
            dataset.performance_matrix(),
            options,
        )
    }

    /// Fits on paired rows: one raw feature vector and the six measured
    /// metrics (raw, non-negative) per training point. Another system
    /// changes only what the rows hold (paper §VIII) and answers through
    /// [`KccaPredictor::predict_features`].
    ///
    /// Each pipeline stage records a `qpp_obs` span (standardize,
    /// kernel fit, ICD, eigensolve, kNN build), so
    /// `qpp_obs::recorder().stage_summary()` gives a per-stage training
    /// breakdown. All wall-clock reads live inside qpp-obs; this crate
    /// stays free of `Instant` (its `clippy.toml` disallows the type).
    pub fn fit(
        features: &Matrix,
        performance: Matrix,
        options: PredictorOptions,
    ) -> Result<Self, QppError> {
        // `Prediction::metrics` has six slots; another width would fit
        // and then panic on every answer.
        if performance.cols() != PerfMetrics::DIM {
            return Err(LinalgError::ShapeMismatch {
                op: "fit performance",
                lhs: (features.rows(), PerfMetrics::DIM),
                rhs: performance.shape(),
            }
            .into());
        }
        if options.neighbors == 0 {
            let (what, value, bound) = ("neighbors (> 0)", 0.0, 0.0);
            return Err(LinalgError::OutOfRange { what, value, bound }.into());
        }
        let mut total = qpp_obs::span(qpp_obs::Stage::TrainTotal);
        total.set_value(features.rows() as u64);
        let (scaler, x) = {
            let _s = qpp_obs::span(qpp_obs::Stage::TrainStandardize);
            let scaler = Standardizer::fit(features);
            let x = scaler.transform(features);
            (scaler, x)
        };
        let y = performance_to_kernel_space(&performance);
        let kcca = Kcca::fit(x.view(), y.view(), options.kcca).ctx("fitting kcca")?;
        let _s = qpp_obs::span(qpp_obs::Stage::TrainKnnBuild);
        KccaPredictor::assemble(Learned {
            options,
            scaler,
            kcca,
            targets: performance,
        })
        .ctx("building the neighbor index")
    }

    /// A model from what a fit learned, as
    /// [`crate::model_io::from_json`] reads it back: the options and
    /// shapes [`KccaPredictor::fit`] guarantees and a payload need not
    /// have — `neighbors`, then scaler, pivots, kernel scale, fold and
    /// targets chained width to width, row count to row count — and
    /// then the index, built as a fit builds it. Names the first part
    /// that does not fit; without the check such a model loads and then
    /// panics, or zips to the shorter side and answers.
    pub(crate) fn load(learned: Learned) -> Result<Self, &'static str> {
        let Learned {
            options,
            scaler,
            kcca,
            targets,
        } = &learned;
        if options.neighbors == 0 {
            return Err("options.neighbors is 0");
        }
        let width = scaler.means().len();
        if scaler.stds().len() != width {
            return Err("scaler.stds is not as long as scaler.means");
        }
        kcca.validate(width)?;
        if !targets.is_well_formed()
            || targets.shape() != (kcca.query_projection().rows(), PerfMetrics::DIM)
        {
            return Err("targets is not one six-metric row per projected row");
        }
        KccaPredictor::assemble(learned).map_err(|_| "kcca.x_projection builds no neighbor index")
    }

    /// The one constructor fit and load share: the neighbor index is a
    /// deterministic function of the query projection and the options,
    /// built here and nowhere else, so a loaded model answers bit for
    /// bit as the fitted one.
    fn assemble(learned: Learned) -> Result<Self, KnnError> {
        let Learned { options, kcca, .. } = &learned;
        let projection = kcca.query_projection().clone();
        let index = AnnIndex::build(projection, options.metric, &options.ann)?;
        Ok(KccaPredictor { learned, index })
    }

    /// What the model's fit learned, as [`crate::model_io`] ships it.
    pub(crate) fn learned(&self) -> &Learned {
        &self.learned
    }

    /// The options the model was trained with.
    pub fn options(&self) -> &PredictorOptions {
        &self.learned.options
    }

    /// Number of training queries.
    pub fn training_size(&self) -> usize {
        self.learned.targets.rows()
    }

    /// Canonical correlations achieved during training.
    pub fn correlations(&self) -> &[f64] {
        self.learned.kcca.correlations()
    }

    /// The underlying KCCA model.
    pub fn kcca(&self) -> &Kcca {
        &self.learned.kcca
    }

    /// The neighbor index the model predicts through — exact or
    /// approximate, depending on the training-set size vs
    /// `options.ann.ivf_threshold`.
    pub fn index(&self) -> &AnnIndex {
        &self.index
    }

    /// Predicts from a raw query feature vector.
    ///
    /// The one implementation of prediction (every other entry point
    /// is a loop over it or feeds it): standardization, kernel row,
    /// folded projection and kNN combine all write into
    /// thread-local scratch buffers, so once a thread's buffers have
    /// warmed up to the model's dimensions this performs **zero heap
    /// allocations** (guarded by the `alloc_regression` test).
    pub fn predict_features(&self, features: &[f64]) -> Result<Prediction, QppError> {
        SCRATCH.with(|cell| self.predict_row(features, &mut cell.borrow_mut()))
    }

    /// The predict body, through one thread's scratch buffers.
    ///
    /// Fails (instead of silently predicting zeros, as it once did)
    /// when no usable neighbor exists — an empty reference or a probe
    /// whose projection is entirely non-finite.
    fn predict_row(
        &self,
        features: &[f64],
        scratch: &mut PredictScratch,
    ) -> Result<Prediction, QppError> {
        let Learned {
            options,
            scaler,
            kcca,
            targets,
        } = &self.learned;
        // A vector of another width than the model was fitted on would
        // be zipped to the shorter length downstream and yield a
        // confident wrong answer.
        let fitted = scaler.means().len();
        if features.len() != fitted {
            return Err(LinalgError::ShapeMismatch {
                op: "predict features",
                lhs: (1, fitted),
                rhs: (1, features.len()),
            })
            .ctx("checking feature width against the fitted model");
        }
        {
            let _s = qpp_obs::span(qpp_obs::Stage::PredictStandardize);
            scaler.transform_row_into(features, &mut scratch.scaled);
        }
        let max_kernel_similarity = {
            let _s = qpp_obs::span(qpp_obs::Stage::PredictProject);
            kcca.project_query_into(
                &scratch.scaled,
                &mut scratch.projection,
                &mut scratch.projected,
            )
        }
        .ctx("projecting query features")?;

        let mut knn_span = qpp_obs::span(qpp_obs::Stage::PredictKnn);
        knn_span.set_value(options.neighbors as u64);
        self.index
            .predict_into(
                &scratch.projected,
                targets,
                options.neighbors,
                options.weighting,
                &mut scratch.knn,
                &mut scratch.combined,
            )
            .ctx("combining neighbor metrics")?;
        drop(knn_span);
        // `predict_into` never leaves an empty neighbor list on success.
        let found = &scratch.knn.neighbors;
        let confidence_distance =
            vector::sum_iter(found.iter().map(|n| n.distance)) / found.len() as f64;
        Ok(Prediction {
            metrics: PerfMetrics::from_vec(&scratch.combined),
            // NeighborIds stores up to `INLINE` indices without heap;
            // k ≤ 8 in every supported configuration.
            neighbor_indices: found.iter().map(|n| n.index).collect(),
            confidence_distance,
            max_kernel_similarity,
        })
    }

    /// Predicts for a query given its optimizer plan — the compile-time
    /// entry point (no execution required), and the call the serve
    /// worker makes per request. Features are extracted into the
    /// thread-local scratch, so a warm call allocates nothing.
    pub fn predict(&self, spec: &QuerySpec, plan: &Plan) -> Result<Prediction, QppError> {
        let kind = self.learned.options.feature_kind;
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            // Lend the feature buffer out so the row body can borrow the
            // rest of the scratch (the empty placeholder is not an
            // allocation).
            let mut features = std::mem::take(&mut scratch.features);
            features.resize(feature_dim(kind), 0.0);
            query_features_to(kind, spec, plan, &mut features);
            let prediction = self.predict_row(&features, scratch);
            scratch.features = features;
            prediction
        })
    }

    /// Predicts a batch of queries: entry `i` is
    /// `self.predict(queries[i].0, queries[i].1)`.
    pub fn predict_batch(
        &self,
        queries: &[(&QuerySpec, &Plan)],
    ) -> Result<Vec<Prediction>, QppError> {
        predict_each(queries.len(), |i| self.predict(queries[i].0, queries[i].1))
    }

    /// Predicts every record of a dataset (e.g. a held-out test set).
    pub fn predict_dataset(&self, dataset: &Dataset) -> Result<Vec<Prediction>, QppError> {
        let records = &dataset.records;
        predict_each(records.len(), |i| {
            self.predict(&records[i].spec, &records[i].optimized.plan)
        })
    }
}

/// `predict_one(0..n)` in row order on the calling thread; the first
/// failure is the result. The returned vector is the one allocation.
fn predict_each(
    n: usize,
    predict_one: impl Fn(usize) -> Result<Prediction, QppError>,
) -> Result<Vec<Prediction>, QppError> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(predict_one(i)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::features::query_features;
    use qpp_engine::SystemConfig;
    use qpp_ml::{fraction_within, predictive_risk};
    use qpp_workload::{Schema, WorkloadGenerator};

    fn dataset(n: usize, seed: u64) -> Dataset {
        let schema = Schema::tpcds(1.0);
        let mut g = WorkloadGenerator::tpcds(1.0, seed);
        Dataset::collect(&schema, g.generate(n), &SystemConfig::neoview_4(), 2)
    }

    #[test]
    fn train_and_predict_round_trip() {
        let train = dataset(120, 1);
        let test = dataset(30, 2);
        let model = KccaPredictor::train(&train, PredictorOptions::default()).unwrap();
        assert_eq!(model.training_size(), 120);
        assert!(model.correlations()[0] > 0.5);
        let preds = model.predict_dataset(&test).unwrap();
        assert_eq!(preds.len(), 30);
        for p in &preds {
            assert!(p.metrics.is_valid());
            assert_eq!(p.neighbor_indices.len(), 3);
            assert!(p.confidence_distance.is_finite());
        }
    }

    #[test]
    fn fit_on_a_datasets_own_matrices_is_train() {
        let train = dataset(120, 1);
        let options = PredictorOptions::default();
        let trained = KccaPredictor::train(&train, options).unwrap();
        let fitted = KccaPredictor::fit(
            &train.feature_matrix(options.feature_kind),
            train.performance_matrix(),
            options,
        )
        .unwrap();
        // The shipped model is every bit a prediction can read.
        assert_eq!(
            crate::model_io::to_json(&fitted).unwrap(),
            crate::model_io::to_json(&trained).unwrap()
        );
        // Five metrics per row cannot fill a `Prediction`: typed, at fit.
        let x = train.feature_matrix(FeatureKind::QueryPlan);
        let narrow = KccaPredictor::fit(&x, Matrix::zeros(120, 5), PredictorOptions::default());
        assert!(matches!(narrow, Err(QppError::Linalg { .. })), "{narrow:?}");
    }

    #[test]
    fn elapsed_prediction_beats_mean_baseline() {
        let train = dataset(250, 3);
        let test = dataset(60, 4);
        let model = KccaPredictor::train(&train, PredictorOptions::default()).unwrap();
        let preds = model.predict_dataset(&test).unwrap();
        let predicted: Vec<f64> = preds.iter().map(|p| p.metrics.elapsed_seconds).collect();
        let actual = test.elapsed();
        let risk = predictive_risk(&predicted, &actual);
        assert!(risk > 0.0, "predictive risk {risk} not better than mean");
        // A loose version of the paper's headline: most predictions land
        // within 2x on this small training set.
        let within_2x = fraction_within(&predicted, &actual, 1.0);
        assert!(within_2x > 0.5, "only {within_2x} within 2x");
    }

    #[test]
    fn training_point_predicts_itself() {
        let train = dataset(100, 5);
        let model = KccaPredictor::train(&train, PredictorOptions::default()).unwrap();
        // A training query's nearest neighbor is itself (distance ~0), so
        // the prediction is dominated by its own measured metrics.
        let r = &train.records[10];
        let p = model.predict(&r.spec, &r.optimized.plan).unwrap();
        assert!(p.neighbor_indices.contains(&10));
    }

    #[test]
    fn sql_features_are_supported() {
        let train = dataset(80, 7);
        let opts = PredictorOptions {
            feature_kind: FeatureKind::SqlText,
            ..PredictorOptions::default()
        };
        let model = KccaPredictor::train(&train, opts).unwrap();
        let p = model
            .predict(&train.records[0].spec, &train.records[0].optimized.plan)
            .unwrap();
        assert!(p.metrics.is_valid());
    }

    #[test]
    fn confidence_flags_out_of_distribution_queries() {
        let train = dataset(150, 9);
        let model = KccaPredictor::train(&train, PredictorOptions::default()).unwrap();
        // In-distribution: a training record.
        let r = &train.records[0];
        let p_in = model.predict(&r.spec, &r.optimized.plan).unwrap();
        // Out of distribution: absurd feature vector. Its kernel row
        // vanishes, so the similarity signal (not the distance) is what
        // flags it.
        let dim = crate::features::PlanFeatures::DIM;
        let weird = vec![500.0; dim];
        let p_out = model.predict_features(&weird).unwrap();
        assert!(
            p_out.max_kernel_similarity < p_in.max_kernel_similarity * 0.1,
            "ood similarity {} vs in {}",
            p_out.max_kernel_similarity,
            p_in.max_kernel_similarity
        );
        assert!(p_out.is_anomalous(f64::INFINITY, 1e-3));
        assert!(!p_in.is_anomalous(f64::INFINITY, 1e-3));
    }

    #[test]
    fn batch_prediction_bitwise_matches_single() {
        let train = dataset(120, 13);
        let test = dataset(40, 14);
        let model = KccaPredictor::train(&train, PredictorOptions::default()).unwrap();
        let singles: Vec<Prediction> = test
            .records
            .iter()
            .map(|r| model.predict(&r.spec, &r.optimized.plan).unwrap())
            .collect();
        let queries: Vec<_> = test
            .records
            .iter()
            .map(|r| (&r.spec, &r.optimized.plan))
            .collect();
        let batched = model.predict_batch(&queries).unwrap();
        assert_eq!(singles.len(), batched.len());
        for (s, b) in singles.iter().zip(batched.iter()) {
            // Bitwise, not approximate: the batched path must run the
            // identical FP operations in the identical order.
            for (x, y) in s.metrics.to_vec().iter().zip(b.metrics.to_vec().iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            assert_eq!(s.neighbor_indices, b.neighbor_indices);
            assert_eq!(
                s.confidence_distance.to_bits(),
                b.confidence_distance.to_bits()
            );
            assert_eq!(
                s.max_kernel_similarity.to_bits(),
                b.max_kernel_similarity.to_bits()
            );
        }
    }

    /// Regression: a feature vector of the wrong width used to be
    /// zipped to the shorter length by the standardizer and the kernel
    /// row, returning `Ok` with a confident wrong answer.
    #[test]
    fn wrong_width_features_are_rejected_not_answered() {
        let train = dataset(120, 1);
        let model = KccaPredictor::train(&train, PredictorOptions::default()).unwrap();
        let dim = feature_dim(FeatureKind::QueryPlan);
        for bad in [vec![1.0, 2.0], vec![1.0; 500], Vec::new()] {
            let err = model.predict_features(&bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    QppError::Linalg {
                        source: LinalgError::ShapeMismatch { lhs, rhs, .. },
                        ..
                    } if lhs == (1, dim) && rhs == (1, bad.len())
                ),
                "width {}: {err:?}",
                bad.len()
            );
        }
        // The right width still predicts, as the plan entry point does.
        let r = &train.records[7];
        let features = query_features(FeatureKind::QueryPlan, &r.spec, &r.optimized.plan);
        let single = model.predict_features(&features).unwrap();
        assert_eq!(
            single.metrics,
            model.predict(&r.spec, &r.optimized.plan).unwrap().metrics
        );
    }
}
