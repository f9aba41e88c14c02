//! Two-step prediction with per-category models (paper Experiment 3).
//!
//! Step 1: a first KCCA model classifies the query as feather / golf
//! ball / bowling ball by the category of its elapsed-time prediction,
//! which combines the nearest neighbors' *actual* runtimes. The paper
//! illustrates this step with a neighbor majority vote; see
//! [`TwoStepPredictor::classify`] for why the magnitude rule is used
//! here instead.
//!
//! Step 2: a category-specific KCCA model — trained only on that
//! category's queries — produces the metric predictions. The paper
//! found this sharpens accuracy for the under-represented long-running
//! categories (Fig. 14) and transfers better to foreign schemas
//! (Fig. 15).

use crate::categories::QueryCategory;
use crate::dataset::Dataset;
use crate::error::QppError;
use crate::features::query_features;
use crate::predictor::{KccaPredictor, Prediction, PredictorOptions};
use qpp_engine::Plan;
use qpp_workload::QuerySpec;

/// Minimum per-category training size below which the category falls
/// back to the global model (KCCA needs a handful of points).
const MIN_CATEGORY_TRAINING: usize = 8;

/// The two-step predictor.
#[derive(Debug, Clone)]
pub struct TwoStepPredictor {
    classifier: KccaPredictor,
    /// Per-category specialist models (falls back to `classifier` when
    /// a category had too few training queries).
    specialists: Vec<(QueryCategory, KccaPredictor)>,
    options: PredictorOptions,
}

impl TwoStepPredictor {
    /// Trains the classifier on the full dataset and one specialist per
    /// pooled category that has enough training queries.
    pub fn train(dataset: &Dataset, options: PredictorOptions) -> Result<Self, QppError> {
        let classifier = KccaPredictor::train(dataset, options)?;
        let mut specialists = Vec::new();
        for &cat in &QueryCategory::POOLED {
            let idx = dataset.of_category(cat);
            if idx.len() >= MIN_CATEGORY_TRAINING {
                let sub = dataset.subset(&idx);
                // Specialists see fewer points; cap the number of
                // canonical components so the reduced eigenproblem stays
                // well-posed (a 30-query bowling-ball model cannot
                // support 16 components).
                let mut sub_opts = options;
                sub_opts.kcca.components = sub_opts.kcca.components.min((idx.len() / 4).max(2));
                sub_opts.neighbors = sub_opts.neighbors.min(idx.len());
                specialists.push((cat, KccaPredictor::train(&sub, sub_opts)?));
            }
        }
        Ok(TwoStepPredictor {
            classifier,
            specialists,
            options,
        })
    }

    /// Step 1 alone: the category of the classifier's elapsed-time
    /// prediction for the query. A wrecking ball, which has no
    /// specialist pool, is reported as a bowling ball.
    ///
    /// The paper describes predicting the category "from the neighbors"
    /// and illustrates it with a majority vote. The elapsed prediction
    /// is the neighbors' combined elapsed time: its category agrees with
    /// the majority vote whenever the neighbors agree, and resolves
    /// mixed neighborhoods by magnitude instead of head-count — which
    /// matters exactly at the category boundaries the paper calls out
    /// as the failure mode ("the test query was too close to the
    /// temporal threshold").
    pub fn classify(&self, spec: &QuerySpec, plan: &Plan) -> Result<QueryCategory, QppError> {
        let features = query_features(self.options.feature_kind, spec, plan);
        let p = self.classifier.predict_features(&features)?;
        Ok(Self::categorize(&p))
    }

    /// Step-1 category of the first model's prediction (see
    /// [`TwoStepPredictor::classify`]).
    fn categorize(p: &Prediction) -> QueryCategory {
        let by_elapsed = QueryCategory::of(p.metrics.elapsed_seconds);
        if by_elapsed == QueryCategory::WreckingBall {
            // No wrecking-ball pool exists; route to the longest class.
            return QueryCategory::BowlingBall;
        }
        by_elapsed
    }

    /// Full two-step prediction.
    pub fn predict(&self, spec: &QuerySpec, plan: &Plan) -> Result<Prediction, QppError> {
        let features = query_features(self.options.feature_kind, spec, plan);
        let first = self.classifier.predict_features(&features)?;
        let category = Self::categorize(&first);
        match self.specialists.iter().find(|(c, _)| *c == category) {
            Some((_, model)) => model.predict_features(&features),
            None => Ok(first),
        }
    }

    /// Predicts every record of a dataset.
    pub fn predict_dataset(&self, dataset: &Dataset) -> Result<Vec<Prediction>, QppError> {
        dataset
            .records
            .iter()
            .map(|r| self.predict(&r.spec, &r.optimized.plan))
            .collect()
    }

    /// Categories that received specialist models.
    pub fn specialist_categories(&self) -> Vec<QueryCategory> {
        self.specialists.iter().map(|(c, _)| *c).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpp_engine::SystemConfig;
    use qpp_workload::{Schema, WorkloadGenerator};

    fn dataset(n: usize, seed: u64) -> Dataset {
        let schema = Schema::tpcds(1.0);
        let mut g = WorkloadGenerator::tpcds(1.0, seed);
        Dataset::collect(&schema, g.generate(n), &SystemConfig::neoview_4(), 2)
    }

    #[test]
    fn trains_feather_specialist() {
        let train = dataset(150, 21);
        let model = TwoStepPredictor::train(&train, PredictorOptions::default()).unwrap();
        // Feathers dominate the workload, so a feather specialist exists.
        assert!(model
            .specialist_categories()
            .contains(&QueryCategory::Feather));
    }

    #[test]
    fn classification_is_mostly_right_for_feathers() {
        let train = dataset(200, 23);
        let test = dataset(40, 24);
        let model = TwoStepPredictor::train(&train, PredictorOptions::default()).unwrap();
        let mut correct = 0;
        let mut feathers = 0;
        for r in &test.records {
            if r.category != QueryCategory::Feather {
                continue;
            }
            feathers += 1;
            if model.classify(&r.spec, &r.optimized.plan).unwrap() == QueryCategory::Feather {
                correct += 1;
            }
        }
        assert!(feathers > 10);
        assert!(
            correct * 10 >= feathers * 8,
            "only {correct}/{feathers} feathers classified correctly"
        );
    }

    #[test]
    fn predictions_are_valid_metrics() {
        let train = dataset(150, 25);
        let test = dataset(25, 26);
        let model = TwoStepPredictor::train(&train, PredictorOptions::default()).unwrap();
        for p in model.predict_dataset(&test).unwrap() {
            assert!(p.metrics.is_valid());
        }
    }

    #[test]
    fn falls_back_to_global_model_for_missing_categories() {
        // A tiny all-feather dataset: no golf/bowling specialists, but
        // prediction still works for any query.
        let train = dataset(60, 27);
        let feather_idx = train.of_category(QueryCategory::Feather);
        let feathers = train.subset(&feather_idx);
        let model = TwoStepPredictor::train(&feathers, PredictorOptions::default()).unwrap();
        let r = &feathers.records[0];
        let p = model.predict(&r.spec, &r.optimized.plan).unwrap();
        assert!(p.metrics.is_valid());
    }
}
