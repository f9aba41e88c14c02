//! System sizing and capacity planning (paper §I).
//!
//! "How big a system is needed to execute this new customer workload
//! with this time constraint?" — train one predictor per candidate
//! configuration (the vendor can do this before the customer buys
//! anything, Fig. 1), predict the customer workload on each, and pick
//! the smallest configuration that meets the constraint.

use crate::dataset::Dataset;
use crate::error::QppError;
use crate::predictor::{KccaPredictor, PredictorOptions};
use crate::workload_mgmt::predicted_serial_makespan;
use qpp_engine::SystemConfig;
use qpp_linalg::vector;
use serde::{Deserialize, Serialize};

/// Predicted behaviour of one workload on one configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConfigEstimate {
    /// The candidate configuration.
    pub config: SystemConfig,
    /// Predicted total (serial) workload runtime, seconds.
    pub predicted_makespan: f64,
    /// Predicted peak single-query runtime, seconds.
    pub predicted_longest_query: f64,
    /// Predicted total disk I/Os across the workload.
    pub predicted_disk_ios: f64,
    /// Predicted total interconnect bytes.
    pub predicted_message_bytes: f64,
}

/// A sizing recommendation across candidate configurations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SizingRecommendation {
    /// Per-configuration estimates, in candidate order.
    pub estimates: Vec<ConfigEstimate>,
    /// Index of the cheapest configuration meeting the deadline, if any
    /// (candidates are assumed ordered cheapest-first).
    pub recommended: Option<usize>,
}

/// Evaluates `workload` (queries only — never executed on the target!)
/// against each candidate `(training dataset, config)` pair and
/// recommends the first configuration whose predicted makespan meets
/// `deadline_seconds`.
///
/// `candidates` must be ordered cheapest-first. The training datasets
/// are the vendor's calibration runs on each configuration.
pub fn recommend(
    candidates: &[(Dataset, SystemConfig)],
    workload_plans: impl Fn(&SystemConfig) -> Dataset,
    deadline_seconds: f64,
    options: PredictorOptions,
) -> Result<SizingRecommendation, QppError> {
    let mut estimates = Vec::with_capacity(candidates.len());
    let mut recommended = None;
    for (i, (train, config)) in candidates.iter().enumerate() {
        let model = KccaPredictor::train(train, options)?;
        // Plans are config-specific: the optimizer re-plans per target.
        let workload = workload_plans(config);
        let preds = model.predict_dataset(&workload)?;
        let makespan = predicted_serial_makespan(&preds);
        let longest = vector::max_iter(0.0, preds.iter().map(|p| p.metrics.elapsed_seconds));
        let ios = vector::sum_iter(preds.iter().map(|p| p.metrics.disk_ios));
        let bytes = vector::sum_iter(preds.iter().map(|p| p.metrics.message_bytes));
        if recommended.is_none() && makespan <= deadline_seconds {
            recommended = Some(i);
        }
        estimates.push(ConfigEstimate {
            config: config.clone(),
            predicted_makespan: makespan,
            predicted_longest_query: longest,
            predicted_disk_ios: ios,
            predicted_message_bytes: bytes,
        });
    }
    Ok(SizingRecommendation {
        estimates,
        recommended,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpp_workload::{Schema, WorkloadGenerator};

    fn dataset_on(config: &SystemConfig, n: usize, seed: u64) -> Dataset {
        let schema = Schema::tpcds(1.0);
        let mut g = WorkloadGenerator::tpcds(1.0, seed);
        Dataset::collect(&schema, g.generate(n), config, 2)
    }

    #[test]
    fn recommends_a_config_meeting_deadline() {
        let cfg_small = SystemConfig::neoview_32(4);
        let cfg_big = SystemConfig::neoview_32(32);
        let candidates = vec![
            (dataset_on(&cfg_small, 120, 41), cfg_small.clone()),
            (dataset_on(&cfg_big, 120, 41), cfg_big.clone()),
        ];
        let rec = recommend(
            &candidates,
            |cfg| dataset_on(cfg, 30, 43),
            f64::INFINITY,
            PredictorOptions::default(),
        )
        .unwrap();
        assert_eq!(rec.estimates.len(), 2);
        // Infinite deadline → cheapest config wins.
        assert_eq!(rec.recommended, Some(0));
        // The big system should be predicted faster overall.
        assert!(
            rec.estimates[1].predicted_makespan < rec.estimates[0].predicted_makespan,
            "32-cpu {} vs 4-cpu {}",
            rec.estimates[1].predicted_makespan,
            rec.estimates[0].predicted_makespan
        );
    }

    #[test]
    fn impossible_deadline_recommends_nothing() {
        let cfg = SystemConfig::neoview_4();
        let candidates = vec![(dataset_on(&cfg, 100, 45), cfg.clone())];
        let rec = recommend(
            &candidates,
            |c| dataset_on(c, 20, 47),
            1e-6,
            PredictorOptions::default(),
        )
        .unwrap();
        assert_eq!(rec.recommended, None);
    }

    #[test]
    fn upgrade_speedup_exceeds_one_for_bigger_box() {
        // Makespan sums are dominated by whichever heavy query lands in
        // the sample, so the assertion uses the median per-query
        // predicted speedup: with identical workload seeds, most
        // queries must be predicted faster on the 32-CPU box.
        let cfg_small = SystemConfig::neoview_32(4);
        let cfg_big = SystemConfig::neoview_32(32);
        let train_small = dataset_on(&cfg_small, 250, 49);
        let train_big = dataset_on(&cfg_big, 250, 49);
        let m_small = KccaPredictor::train(&train_small, PredictorOptions::default()).unwrap();
        let m_big = KccaPredictor::train(&train_big, PredictorOptions::default()).unwrap();
        let wl_small = dataset_on(&cfg_small, 40, 51);
        let wl_big = dataset_on(&cfg_big, 40, 51);
        let p_small = m_small.predict_dataset(&wl_small).unwrap();
        let p_big = m_big.predict_dataset(&wl_big).unwrap();
        let mut ratios: Vec<f64> = p_small
            .iter()
            .zip(p_big.iter())
            .map(|(s, b)| s.metrics.elapsed_seconds / b.metrics.elapsed_seconds.max(1e-9))
            .collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = ratios[ratios.len() / 2];
        assert!(median > 1.0, "median per-query speedup {median}");
    }
}
