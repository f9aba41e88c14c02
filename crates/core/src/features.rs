//! Query feature vectors (paper §VI-D).
//!
//! Two candidates were evaluated:
//!
//! * **SQL-text features** — nine statement statistics. Cheap, but two
//!   queries with identical text shape and different constants perform
//!   wildly differently, so accuracy was poor (Fig. 8).
//! * **Query-plan features** — for every operator kind, an *instance
//!   count* and a *cardinality sum* over the optimizer's estimates
//!   (Fig. 9). This is what the paper adopted.
//!
//! Cardinality sums span many orders of magnitude, so they are
//! log-transformed before kernelization; the paper's Gaussian kernel is
//! otherwise far too sensitive to the raw magnitudes. The same
//! `ln(1+x)` transform is applied to the performance vector.

use qpp_engine::{OpKind, Plan};
use qpp_linalg::Matrix;
use qpp_workload::{QuerySpec, SqlTextFeatures};
use serde::{Deserialize, Serialize};

/// Which query feature vector a predictor uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeatureKind {
    /// Query-plan instance counts + cardinality sums (the paper's
    /// chosen vector, Fig. 9).
    QueryPlan,
    /// SQL-text statistics (the failed candidate, Fig. 8).
    SqlText,
}

/// The query-plan feature vector: one `(instance count, cardinality
/// sum)` pair per operator kind in the engine's vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanFeatures {
    /// Instance count per [`OpKind`], in `OpKind::ALL` order.
    pub counts: Vec<f64>,
    /// Estimated-cardinality sum per [`OpKind`], same order.
    pub cardinality_sums: Vec<f64>,
}

impl PlanFeatures {
    /// Dimensionality of [`PlanFeatures::to_vec`]'s output.
    pub const DIM: usize = OpKind::ALL.len() * 2;

    /// Extracts features from a physical plan.
    pub fn from_plan(plan: &Plan) -> Self {
        let mut counts = vec![0.0; OpKind::ALL.len()];
        let mut sums = vec![0.0; OpKind::ALL.len()];
        accumulate_plan(plan, &mut counts, &mut sums);
        PlanFeatures {
            counts,
            cardinality_sums: sums,
        }
    }

    /// Flattens to the kernelization vector: counts followed by
    /// `ln(1 + cardinality_sum)` per operator.
    pub fn to_vec(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(Self::DIM);
        v.extend_from_slice(&self.counts);
        v.extend(self.cardinality_sums.iter().map(|&c| (1.0 + c).ln()));
        v
    }

    /// Human-readable feature names, aligned with [`PlanFeatures::to_vec`].
    pub fn names() -> Vec<String> {
        let mut names: Vec<String> = OpKind::ALL
            .iter()
            .map(|k| format!("{}_count", k.name()))
            .collect();
        names.extend(OpKind::ALL.iter().map(|k| format!("{}_card_ln", k.name())));
        names
    }
}

/// Adds every plan node to its operator's instance count and
/// estimated-cardinality sum, in plan-node order (the one accumulation
/// order, so the owned and in-place extractors agree bit for bit).
fn accumulate_plan(plan: &Plan, counts: &mut [f64], sums: &mut [f64]) {
    for node in &plan.nodes {
        let k = node.kind.index();
        counts[k] += 1.0;
        sums[k] += node.est_rows;
    }
}

/// Extracts the configured query feature vector — the owned wrapper
/// over [`query_features_to`].
pub fn query_features(kind: FeatureKind, spec: &QuerySpec, plan: &Plan) -> Vec<f64> {
    let mut out = vec![0.0; feature_dim(kind)];
    query_features_to(kind, spec, plan, &mut out);
    out
}

/// Dimensionality of [`query_features`]'s output for `kind`.
pub fn feature_dim(kind: FeatureKind) -> usize {
    match kind {
        FeatureKind::QueryPlan => PlanFeatures::DIM,
        FeatureKind::SqlText => SqlTextFeatures::DIM,
    }
}

/// Writes the configured query feature vector straight into `out`,
/// which must hold [`feature_dim`]`(kind)` values: a matrix row when a
/// dataset is assembled, the per-thread scratch buffer on the predict
/// path. Allocates nothing. Plan features land as
/// [`PlanFeatures::to_vec`] lays them out — counts, then
/// `ln(1 + cardinality_sum)` per operator.
pub fn query_features_to(kind: FeatureKind, spec: &QuerySpec, plan: &Plan, out: &mut [f64]) {
    assert_eq!(out.len(), feature_dim(kind), "feature row width");
    match kind {
        FeatureKind::QueryPlan => {
            out.fill(0.0);
            let (counts, sums) = out.split_at_mut(OpKind::ALL.len());
            accumulate_plan(plan, counts, sums);
            for sum in sums {
                *sum = (1.0 + *sum).ln();
            }
        }
        FeatureKind::SqlText => {
            out.copy_from_slice(&SqlTextFeatures::from_spec(spec).to_array());
        }
    }
}

/// Log-transforms a raw performance matrix for kernelization:
/// `ln(1 + x)` per metric.
pub fn performance_to_kernel_space(performance: &Matrix) -> Matrix {
    let mut out = performance.clone();
    for x in out.as_mut_slice() {
        *x = (1.0 + x.max(0.0)).ln();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpp_engine::{optimize, Catalog, SystemConfig};
    use qpp_workload::{Schema, WorkloadGenerator};

    fn sample_plan() -> (QuerySpec, Plan) {
        let cat = Catalog::new(Schema::tpcds(1.0));
        let cfg = SystemConfig::neoview_4();
        let mut g = WorkloadGenerator::tpcds(1.0, 2);
        let q = g.generate_one();
        let plan = optimize(&q, &cat, &cfg).plan;
        (q, plan)
    }

    #[test]
    fn plan_features_count_operators() {
        let (_, plan) = sample_plan();
        let f = PlanFeatures::from_plan(&plan);
        let total: f64 = f.counts.iter().sum();
        assert_eq!(total as usize, plan.nodes.len());
        // FileScan count matches plan.
        let fs = OpKind::FileScan.index();
        assert_eq!(f.counts[fs] as usize, plan.count(OpKind::FileScan));
        assert!((f.cardinality_sums[fs] - plan.cardinality_sum(OpKind::FileScan)).abs() < 1e-9);
    }

    #[test]
    fn vector_has_fixed_dim_and_is_finite() {
        let (_, plan) = sample_plan();
        let v = PlanFeatures::from_plan(&plan).to_vec();
        assert_eq!(v.len(), PlanFeatures::DIM);
        assert!(v.iter().all(|x| x.is_finite()));
        assert_eq!(PlanFeatures::names().len(), PlanFeatures::DIM);
    }

    #[test]
    fn cardinalities_are_log_scaled() {
        let (_, plan) = sample_plan();
        let f = PlanFeatures::from_plan(&plan);
        let v = f.to_vec();
        let n = OpKind::ALL.len();
        for (i, &raw) in f.cardinality_sums.iter().enumerate() {
            assert!((v[n + i] - (1.0 + raw).ln()).abs() < 1e-12);
        }
    }

    #[test]
    fn feature_kind_dispatch() {
        let (q, plan) = sample_plan();
        // The in-place extractor overwrites a dirty row with exactly the
        // PlanFeatures layout.
        let mut row = vec![f64::NAN; PlanFeatures::DIM];
        query_features_to(FeatureKind::QueryPlan, &q, &plan, &mut row);
        assert_eq!(row, PlanFeatures::from_plan(&plan).to_vec());
        assert_eq!(
            query_features(FeatureKind::QueryPlan, &q, &plan).len(),
            PlanFeatures::DIM
        );
        assert_eq!(
            query_features(FeatureKind::SqlText, &q, &plan).len(),
            SqlTextFeatures::DIM
        );
    }

    #[test]
    fn performance_log_transform() {
        let raw = Matrix::from_vec(1, 3, vec![0.0, (std::f64::consts::E - 1.0), 1e6]).unwrap();
        let v = performance_to_kernel_space(&raw);
        assert!(v[(0, 0)].abs() < 1e-12);
        assert!((v[(0, 1)] - 1.0).abs() < 1e-12);
        assert!(v[(0, 2)] > 13.0 && v[(0, 2)] < 14.0);
    }
}
