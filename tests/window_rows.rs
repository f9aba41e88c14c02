//! The sliding window and the shadow holdout hold rows, not records:
//! each executed query is kept as its feature vector, its six measured
//! metrics and its plan's optimizer cost. These tests hold the rows to
//! the records they replace, bit for bit:
//!
//! - a pushed-past-capacity window reads back the newest records' rows,
//!   oldest first;
//! - a refit of the rows is `KccaPredictor::train` and
//!   `OptimizerCostModel::train` on a dataset of the same records;
//! - a retrain task's shadow scores, read through `predict_features` on
//!   the holdout rows, are the scores `predict` gives on the holdout
//!   records.

use qpp::adapt::{
    log_ratio_errors, mean_error, AdaptOptions, AdaptOutcome, AdaptiveController, DriftConfig,
    DriftSignal, RetrainTask, OVERALL,
};
use qpp::core::baselines::OptimizerCostModel;
use qpp::core::features::query_features;
use qpp::core::pipeline::collect_tpcds;
use qpp::core::retrain::SlidingWindowPredictor;
use qpp::core::workload_mgmt::AdmissionDecision;
use qpp::core::{Dataset, FeatureKind, KccaPredictor, PredictorOptions, QueryRecord};
use qpp::engine::SystemConfig;
use qpp::serve::{AnswerSource, ModelKey, ModelRegistry, ServeResponse};
use std::sync::Arc;
use std::time::Duration;

fn data(n: usize, seed: u64) -> Dataset {
    collect_tpcds(n, seed, &SystemConfig::neoview_4(), 2)
}

/// `dataset` with `records` in place of its own.
fn with_records(dataset: &Dataset, records: Vec<QueryRecord>) -> Dataset {
    Dataset {
        records,
        ..dataset.clone()
    }
}

/// Each prediction's six metrics as bits, in record order.
fn prediction_bits(model: &KccaPredictor, dataset: &Dataset) -> Vec<u64> {
    let predictions = model.predict_dataset(dataset).unwrap();
    let metrics = predictions.iter().flat_map(|p| p.metrics.to_array());
    metrics.map(f64::to_bits).collect()
}

#[test]
fn push_keeps_the_newest_rows_in_order() {
    let (seed, extra) = (data(10, 78), data(5, 79));
    let options = PredictorOptions::default();
    let mut window = SlidingWindowPredictor::new(seed.clone(), 12, 1, options);
    extra.records.iter().for_each(|r| window.push(r));
    let all: Vec<&QueryRecord> = seed.records.iter().chain(&extra.records).collect();
    assert_eq!(window.len(), 12, "capacity enforced");
    assert_eq!(window.rows().len(), 12);
    for ((features, metrics, cost), r) in window.rows().zip(&all[3..]) {
        let plan = &r.optimized.plan;
        assert_eq!(
            features,
            query_features(options.feature_kind, &r.spec, plan)
        );
        assert_eq!(metrics, r.metrics);
        assert_eq!(cost.to_bits(), plan.optimizer_cost.to_bits());
    }
}

/// A refit of a window that has wrapped is `train` on a dataset of its
/// newest records, bit for bit: model answers and the cost line alike.
#[test]
fn window_fits_bitwise_as_train_on_its_newest_records() {
    let (seed, extra) = (data(40, 81), data(13, 82));
    let options = PredictorOptions::default();
    let mut window = SlidingWindowPredictor::new(seed.clone(), 32, 1, options);
    extra.records.iter().for_each(|r| window.push(r));
    let mut records: Vec<_> = seed.records.iter().chain(&extra.records).cloned().collect();
    records.drain(..records.len() - 32);
    let newest = with_records(&seed, records);

    let (model, cost) = window.fit().unwrap();
    let trained = KccaPredictor::train(&newest, options).unwrap();
    let trained_cost = OptimizerCostModel::train(&newest).unwrap();
    assert_eq!(
        prediction_bits(&model, &newest),
        prediction_bits(&trained, &newest)
    );
    assert_eq!(cost.slope.to_bits(), trained_cost.slope.to_bits());
    assert_eq!(cost.intercept.to_bits(), trained_cost.intercept.to_bits());

    // `train` is `fit` over the dataset's (cost, elapsed) pairs.
    let pairs = newest.records.iter();
    let pairs = pairs.map(|r| (r.optimized.plan.optimizer_cost, r.metrics.elapsed_seconds));
    let fitted = OptimizerCostModel::fit(pairs).unwrap();
    assert_eq!(fitted.slope.to_bits(), trained_cost.slope.to_bits());
    assert_eq!(fitted.intercept.to_bits(), trained_cost.intercept.to_bits());
}

/// Mean overall log-ratio error of `model` over `holdout`, through
/// `predict(spec, plan)`, summed in holdout order.
fn score_through_predict(model: &KccaPredictor, holdout: &[QueryRecord]) -> f64 {
    let mut sum = 0.0;
    for r in holdout {
        let p = model.predict(&r.spec, &r.optimized.plan).unwrap();
        sum += mean_error(&log_ratio_errors(&p.metrics, &r.metrics));
    }
    sum / holdout.len() as f64
}

/// A retrain task scores the candidate and the incumbent on the holdout
/// rows through `predict_features`; both scores are, bit for bit, the
/// ones `predict` gives on the records those rows came from, and the
/// candidate is `train` on the window's newest records.
#[test]
fn shadow_scores_on_rows_match_predict_on_records() {
    let (train, live) = (data(60, 83), data(120, 84));
    let options = PredictorOptions::default();
    let incumbent = KccaPredictor::train(&train, options).unwrap();
    let key = ModelKey::new("neoview_4", FeatureKind::QueryPlan);
    let registry = Arc::new(ModelRegistry::new());
    let fallback = OptimizerCostModel::train(&train).unwrap();
    let version = registry.install(key.clone(), incumbent.clone(), fallback);
    // No drift can fire: the detector never leaves its warmup.
    let drift = DriftConfig {
        warmup: usize::MAX,
        ..DriftConfig::default()
    };
    let adapt = AdaptOptions {
        drift,
        ..AdaptOptions::default()
    };
    let window = SlidingWindowPredictor::new(train.clone(), train.len(), usize::MAX, options);
    let controller = AdaptiveController::new(Arc::clone(&registry), key, window, adapt);

    // Every 4th completion goes to the holdout, the rest to the window.
    let (mut kept, mut held) = (train.records.clone(), Vec::new());
    for (i, r) in live.records.iter().enumerate() {
        let response = ServeResponse {
            prediction: incumbent.predict(&r.spec, &r.optimized.plan).unwrap(),
            decision: AdmissionDecision::Admit {
                kill_timeout_seconds: 60.0,
            },
            source: AnswerSource::Kcca,
            model_version: version,
            latency: Duration::ZERO,
            trace_id: 0,
        };
        assert_eq!(controller.observe(r, &response), None);
        let to = if (i + 1) % 4 == 0 {
            &mut held
        } else {
            &mut kept
        };
        to.push(r.clone());
    }
    kept.drain(..kept.len() - train.len());
    held.drain(..held.len() - 24);
    let candidate = KccaPredictor::train(&with_records(&train, kept), options).unwrap();

    let signal = DriftSignal {
        epoch: 1,
        metric: OVERALL,
        score: 0.0,
        recent_mean: 0.0,
        calibration_mean: 0.0,
    };
    let task = RetrainTask {
        signal,
        incumbent: version,
        pre_err: 0.0,
    };
    let (candidate_err, incumbent_err) = match controller.run_task(task) {
        AdaptOutcome::Swapped {
            candidate_err,
            incumbent_err,
            ..
        }
        | AdaptOutcome::Rejected {
            candidate_err,
            incumbent_err,
        } => (candidate_err, incumbent_err),
        other => panic!("the task scores both models: {other:?}"),
    };
    let expected = score_through_predict(&incumbent, &held);
    assert_eq!(incumbent_err.to_bits(), expected.to_bits());
    let expected = score_through_predict(&candidate, &held);
    assert_eq!(candidate_err.to_bits(), expected.to_bits());
}
