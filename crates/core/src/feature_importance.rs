//! Feature-importance analysis (paper §VII-C.2, "Can our results
//! inform database development?").
//!
//! KCCA's projection dimensions do not correspond to raw features and
//! reversing the projection is computationally hard, so the paper
//! proposes an alternative: "we compared the similarity of each feature
//! of a test query with the corresponding features of its nearest
//! neighbors" and observed that "the counts and cardinalities of the
//! join operators contribute the most to our performance model".
//!
//! This module implements that analysis: for every test query, measure
//! per-feature agreement with its nearest neighbors (in standardized
//! feature space), then rank features by how much more tightly they
//! agree among neighbors than among random training pairs. A feature on
//! which neighbors agree far more than chance is one the projection is
//! actually keyed on.

use crate::dataset::Dataset;
use crate::error::QppError;
use crate::features::PlanFeatures;
use crate::predictor::KccaPredictor;
use qpp_linalg::stats::Standardizer;
use qpp_linalg::{vector, LinalgError};

/// Importance score of one query-plan feature.
#[derive(Debug, Clone)]
pub struct FeatureImportance {
    /// Feature name (see [`PlanFeatures::names`]).
    pub feature: String,
    /// Mean absolute standardized difference between test queries and
    /// their nearest neighbors on this feature.
    pub neighbor_disagreement: f64,
    /// Same statistic over random training pairs (the chance baseline).
    pub baseline_disagreement: f64,
    /// Importance: `1 - neighbor/baseline`. 1.0 = neighbors always agree
    /// exactly on this feature; ~0 = the feature plays no role in
    /// neighbor selection; negative = neighbors disagree *more* than
    /// chance.
    pub importance: f64,
}

/// Ranks plan features by how strongly the trained model keys on them.
///
/// `probe` supplies the test queries; their nearest neighbors are looked
/// up in the model's training projection.
pub fn rank_features(
    model: &KccaPredictor,
    train: &Dataset,
    probe: &Dataset,
) -> Result<Vec<FeatureImportance>, QppError> {
    if probe.is_empty() {
        return Err(LinalgError::Empty("feature importance probes").into());
    }
    let names = PlanFeatures::names();
    let train_x = train.feature_matrix(crate::features::FeatureKind::QueryPlan);
    let probe_x = probe.feature_matrix(crate::features::FeatureKind::QueryPlan);
    let scaler = Standardizer::fit(&train_x);
    let train_s = scaler.transform(&train_x);
    let probe_s = scaler.transform(&probe_x);
    let dims = train_s.cols();

    // Neighbor disagreement per feature.
    let mut neighbor = vec![0.0f64; dims];
    let mut pairs = 0usize;
    for (i, record) in probe.records.iter().enumerate() {
        let p = model.predict(&record.spec, &record.optimized.plan)?;
        for &n_idx in &p.neighbor_indices {
            for d in 0..dims {
                neighbor[d] += (probe_s[(i, d)] - train_s[(n_idx, d)]).abs();
            }
            pairs += 1;
        }
    }
    if pairs == 0 {
        return Err(LinalgError::Empty("feature importance probes").into());
    }
    for v in &mut neighbor {
        *v /= pairs as f64;
    }

    // Chance baseline: disagreement across a deterministic stride of
    // training pairs.
    let mut baseline = vec![0.0f64; dims];
    let mut base_pairs = 0usize;
    let n = train_s.rows();
    let stride = (n / 64).max(1);
    for i in (0..n).step_by(stride) {
        for j in (0..n).step_by(stride) {
            if i == j {
                continue;
            }
            for d in 0..dims {
                baseline[d] += (train_s[(i, d)] - train_s[(j, d)]).abs();
            }
            base_pairs += 1;
        }
    }
    for v in &mut baseline {
        *v /= base_pairs.max(1) as f64;
    }

    let mut out: Vec<FeatureImportance> = (0..dims)
        .map(|d| {
            let b = baseline[d];
            let importance = if b > 1e-9 {
                1.0 - neighbor[d] / b
            } else {
                0.0 // constant feature: carries no signal either way
            };
            FeatureImportance {
                feature: names[d].clone(),
                neighbor_disagreement: neighbor[d],
                baseline_disagreement: b,
                importance,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.importance
            .partial_cmp(&a.importance)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(out)
}

/// Sums importance over the join-operator features (counts and
/// cardinalities of nested-loop, hash and merge joins) vs. all others —
/// the paper's specific §VII-C.2 observation.
pub fn join_feature_share(ranking: &[FeatureImportance]) -> f64 {
    let is_join = |name: &str| {
        name.starts_with("nested_join")
            || name.starts_with("hash_join")
            || name.starts_with("merge_join")
            || name.starts_with("semi_join")
    };
    let total = vector::sum_iter(ranking.iter().map(|f| f.importance.max(0.0)));
    if total <= 0.0 {
        return 0.0;
    }
    vector::sum_iter(
        ranking
            .iter()
            .filter(|f| is_join(&f.feature))
            .map(|f| f.importance.max(0.0)),
    ) / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::collect_tpcds;
    use crate::predictor::PredictorOptions;
    use qpp_engine::SystemConfig;

    #[test]
    fn ranking_covers_all_features_and_is_sorted() {
        let cfg = SystemConfig::neoview_4();
        let train = collect_tpcds(250, 61, &cfg, 2);
        let probe = collect_tpcds(40, 62, &cfg, 2);
        let model = KccaPredictor::train(&train, PredictorOptions::default()).unwrap();
        let ranking = rank_features(&model, &train, &probe).unwrap();
        assert_eq!(ranking.len(), PlanFeatures::DIM);
        for w in ranking.windows(2) {
            assert!(w[0].importance >= w[1].importance);
        }
        // Neighbors must agree more than chance on at least some
        // features — otherwise the projection is not keying on anything.
        assert!(
            ranking[0].importance > 0.2,
            "top importance {}",
            ranking[0].importance
        );
    }

    #[test]
    fn join_share_is_a_fraction() {
        let cfg = SystemConfig::neoview_4();
        let train = collect_tpcds(200, 63, &cfg, 2);
        let probe = collect_tpcds(30, 64, &cfg, 2);
        let model = KccaPredictor::train(&train, PredictorOptions::default()).unwrap();
        let ranking = rank_features(&model, &train, &probe).unwrap();
        let share = join_feature_share(&ranking);
        assert!((0.0..=1.0).contains(&share), "share {share}");
    }

    #[test]
    fn empty_probe_rejected() {
        let cfg = SystemConfig::neoview_4();
        let train = collect_tpcds(60, 65, &cfg, 2);
        let probe = train.subset(&[]);
        let model = KccaPredictor::train(&train, PredictorOptions::default()).unwrap();
        assert!(rank_features(&model, &train, &probe).is_err());
    }
}
