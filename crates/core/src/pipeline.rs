//! End-to-end conveniences: generate → execute → train → evaluate.

use crate::dataset::Dataset;
use crate::predictor::Prediction;
use qpp_engine::{PerfMetrics, SystemConfig};
use qpp_linalg::vector;
use qpp_ml::{fraction_within, predictive_risk};
use qpp_workload::WorkloadGenerator;

/// Per-metric evaluation of a predictor on a test dataset.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Predictive risk per metric, canonical order; `None` when the
    /// metric was constant in the test set (e.g. disk I/O ≡ 0 — the
    /// paper reports these cells as "Null", Fig. 16).
    pub predictive_risk: Vec<Option<f64>>,
    /// Fraction of elapsed-time predictions within 20% of actual (the
    /// paper's headline statistic).
    pub elapsed_within_20pct: f64,
    /// Fraction within 2x, a coarser sanity band.
    pub elapsed_within_2x: f64,
}

/// Evaluates predictions against a test dataset.
pub fn evaluate(predictions: &[Prediction], test: &Dataset) -> Evaluation {
    assert_eq!(
        predictions.len(),
        test.len(),
        "prediction/test size mismatch"
    );
    let actual = test.performance_matrix();
    let mut risks = Vec::with_capacity(PerfMetrics::DIM);
    for m in 0..PerfMetrics::DIM {
        let a: Vec<f64> = actual.col(m);
        let p: Vec<f64> = predictions
            .iter()
            .map(|pr| pr.metrics.to_vec()[m])
            .collect();
        let mean = vector::sum(&a) / a.len().max(1) as f64;
        let variance = vector::sum_iter(a.iter().map(|v| (v - mean) * (v - mean)));
        if variance <= 1e-12 {
            risks.push(None); // the paper's "Null" cells
        } else {
            risks.push(Some(predictive_risk(&p, &a)));
        }
    }
    let pred_elapsed: Vec<f64> = predictions
        .iter()
        .map(|p| p.metrics.elapsed_seconds)
        .collect();
    let actual_elapsed = test.elapsed();
    Evaluation {
        predictive_risk: risks,
        elapsed_within_20pct: fraction_within(&pred_elapsed, &actual_elapsed, 0.2),
        elapsed_within_2x: fraction_within(&pred_elapsed, &actual_elapsed, 1.0),
    }
}

/// Generates a workload of `n` TPC-DS queries, runs it on `config`, and
/// returns the dataset. `threads` bounds the parallel executor workers.
pub fn collect_tpcds(n: usize, seed: u64, config: &SystemConfig, threads: usize) -> Dataset {
    let mut generator = WorkloadGenerator::tpcds(1.0, seed);
    let queries = generator.generate(n);
    let schema = generator.schema().clone();
    Dataset::collect(&schema, queries, config, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{KccaPredictor, NeighborIds, PredictorOptions};

    #[test]
    fn end_to_end_pipeline_runs() {
        let cfg = SystemConfig::neoview_4();
        let train = collect_tpcds(150, 101, &cfg, 2);
        let test = collect_tpcds(40, 102, &cfg, 2);
        let model = KccaPredictor::train(&train, PredictorOptions::default()).unwrap();
        let eval = evaluate(&model.predict_dataset(&test).unwrap(), &test);
        assert_eq!(model.training_size(), 150);
        assert_eq!(eval.predictive_risk.len(), PerfMetrics::DIM);
        // Records used is strongly determined by the plan: risk present
        // and positive even on a small training set.
        let used_risk = eval.predictive_risk[5];
        assert!(used_risk.is_some());
        assert!(eval.elapsed_within_2x > 0.3);
    }

    #[test]
    fn evaluate_marks_constant_metrics_null() {
        let cfg = SystemConfig::neoview_4();
        let test = collect_tpcds(20, 103, &cfg, 2);
        // All-zero predictions against possibly constant disk I/O.
        let preds: Vec<Prediction> = test
            .records
            .iter()
            .map(|r| Prediction {
                metrics: r.metrics,
                neighbor_indices: NeighborIds::new(),
                confidence_distance: 0.0,
                max_kernel_similarity: 1.0,
            })
            .collect();
        let eval = evaluate(&preds, &test);
        // Perfect self-prediction: every non-null risk is 1.
        for r in eval.predictive_risk.iter().flatten() {
            assert!((r - 1.0).abs() < 1e-9);
        }
        assert!((eval.elapsed_within_20pct - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn evaluate_checks_lengths() {
        let cfg = SystemConfig::neoview_4();
        let test = collect_tpcds(5, 104, &cfg, 1);
        evaluate(&[], &test);
    }
}
