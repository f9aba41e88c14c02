//! Baseline predictors the paper compares against.
//!
//! * [`RegressionPredictor`] — per-metric ordinary least squares on the
//!   raw plan features (§V-A, Figs. 3–4). Kept deliberately unclamped
//!   so experiments can count the physically impossible negative
//!   predictions the paper reports.
//! * [`OptimizerCostModel`] — the query optimizer's abstract cost plus
//!   a log-log line of best fit to elapsed time (Fig. 17; "since the
//!   optimizer cost units are not time units, we cannot draw a perfect
//!   prediction line — we instead draw a line of best fit").

use crate::dataset::Dataset;
use crate::error::{QppError, ResultExt};
use crate::features::{query_features, FeatureKind};
use qpp_engine::Plan;
use qpp_linalg::{LeastSquares, LinalgError, Matrix};
use qpp_workload::QuerySpec;

/// Linear-regression baseline over plan features.
#[derive(Debug, Clone)]
pub struct RegressionPredictor {
    model: LeastSquares,
    feature_kind: FeatureKind,
}

impl RegressionPredictor {
    /// Fits one OLS model per metric.
    pub fn train(dataset: &Dataset, feature_kind: FeatureKind) -> Result<Self, QppError> {
        let x = dataset.feature_matrix(feature_kind);
        let y = dataset.performance_matrix();
        Ok(RegressionPredictor {
            model: LeastSquares::fit(&x, &y).ctx("fitting ols baseline")?,
            feature_kind,
        })
    }

    /// Predicts all six metrics; values may be negative (that is the
    /// documented failure mode of this baseline).
    pub fn predict(&self, spec: &QuerySpec, plan: &Plan) -> Result<Vec<f64>, QppError> {
        let f = query_features(self.feature_kind, spec, plan);
        self.model.predict(&f).ctx("ols prediction")
    }

    /// Predicts a whole dataset; rows align with records.
    pub fn predict_dataset(&self, dataset: &Dataset) -> Result<Matrix, QppError> {
        let x = dataset.feature_matrix(self.feature_kind);
        self.model.predict_matrix(&x).ctx("ols batch prediction")
    }
}

/// The optimizer-cost baseline: predicts elapsed time by fitting
/// `ln(time) = a + b ln(cost)` on training data.
#[derive(Debug, Clone)]
pub struct OptimizerCostModel {
    /// Intercept of the log-log best-fit line.
    pub intercept: f64,
    /// Slope of the log-log best-fit line.
    pub slope: f64,
}

impl OptimizerCostModel {
    /// Fits the line of best fit on (cost, elapsed) pairs.
    pub fn train(dataset: &Dataset) -> Result<Self, QppError> {
        let n = dataset.len();
        if n < 2 {
            return Err(LinalgError::Empty("optimizer cost model").into());
        }
        let mut x = Matrix::zeros(n, 1);
        let mut y = Matrix::zeros(n, 1);
        for (i, r) in dataset.records.iter().enumerate() {
            x[(i, 0)] = r.optimized.plan.optimizer_cost.max(1e-9).ln();
            y[(i, 0)] = r.metrics.elapsed_seconds.max(1e-9).ln();
        }
        let ls = LeastSquares::fit(&x, &y).ctx("fitting cost line")?;
        let coef = ls.coefficients();
        Ok(OptimizerCostModel {
            intercept: coef[(0, 0)],
            slope: coef[(1, 0)],
        })
    }

    /// Predicted elapsed seconds for a plan's optimizer cost.
    pub fn predict_elapsed(&self, plan: &Plan) -> f64 {
        (self.intercept + self.slope * plan.optimizer_cost.max(1e-9).ln()).exp()
    }

    /// Predicts elapsed time for every record.
    pub fn predict_dataset(&self, dataset: &Dataset) -> Vec<f64> {
        dataset
            .records
            .iter()
            .map(|r| self.predict_elapsed(&r.optimized.plan))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpp_engine::{PerfMetrics, SystemConfig};
    use qpp_workload::{Schema, WorkloadGenerator};

    fn dataset(n: usize, seed: u64) -> Dataset {
        let schema = Schema::tpcds(1.0);
        let mut g = WorkloadGenerator::tpcds(1.0, seed);
        Dataset::collect(&schema, g.generate(n), &SystemConfig::neoview_4(), 2)
    }

    #[test]
    fn regression_trains_and_predicts() {
        let d = dataset(120, 31);
        let m = RegressionPredictor::train(&d, FeatureKind::QueryPlan).unwrap();
        let p = m
            .predict(&d.records[0].spec, &d.records[0].optimized.plan)
            .unwrap();
        assert_eq!(p.len(), PerfMetrics::DIM);
        assert!(p.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn regression_produces_negative_predictions_on_skewed_targets() {
        // The Figs. 3–4 phenomenon: heavy-tailed targets + OLS ⇒ some
        // negative predictions on the training set itself (the paper's
        // "76 data points had negative predicted times").
        let d = dataset(400, 33);
        let m = RegressionPredictor::train(&d, FeatureKind::QueryPlan).unwrap();
        let p = m.predict_dataset(&d).unwrap();
        assert!(
            (0..p.rows()).any(|i| p[(i, 0)] < 0.0 || p[(i, 5)] < 0.0),
            "expected some negative OLS elapsed-time or memory predictions"
        );
    }

    #[test]
    fn cost_model_is_order_of_magnitude_only() {
        let d = dataset(150, 35);
        let m = OptimizerCostModel::train(&d).unwrap();
        assert!(m.slope.is_finite() && m.intercept.is_finite());
        let preds = m.predict_dataset(&d);
        assert!(preds.iter().all(|p| *p > 0.0));
        // Fig. 17's point: cost units do not map to time — a healthy
        // share of estimates miss by several-fold even after the best
        // fit (the widest misses in the pooled experiment reach 10-100x,
        // see the experiments harness).
        let big_misses = preds
            .iter()
            .zip(d.elapsed().iter())
            .filter(|(p, a)| {
                let ratio = (*p / *a).max(*a / *p);
                ratio > 3.0
            })
            .count();
        assert!(
            big_misses > d.len() / 20,
            "only {big_misses}/{} cost estimates are 3x off",
            d.len()
        );
    }

    #[test]
    fn cost_model_needs_data() {
        let d = dataset(1, 37);
        assert!(OptimizerCostModel::train(&d).is_err());
    }
}
