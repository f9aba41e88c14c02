//! SQL-text feature extraction (the paper's first, unsuccessful feature
//! vector — §VI-D.1 and Fig. 8).
//!
//! Nine statistics computed from the SQL statement alone: the paper
//! found these insufficient because "two textually similar queries may
//! have dramatically different performance due simply to different
//! selection predicate constants". We keep the extractor precisely so
//! the experiments can demonstrate that failure.

use crate::spec::{JoinKind, QuerySpec};

/// The paper's 9-element SQL-text feature vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SqlTextFeatures {
    /// Number of nested subqueries.
    pub nested_subqueries: u32,
    /// Total number of selection predicates (outer + subquery bodies).
    pub selection_predicates: u32,
    /// Number of equality selection predicates.
    pub equality_predicates: u32,
    /// Number of non-equality selection predicates.
    pub non_equality_predicates: u32,
    /// Total number of join predicates.
    pub join_predicates: u32,
    /// Number of equi-join predicates.
    pub equijoin_predicates: u32,
    /// Number of non-equi-join predicates.
    pub non_equijoin_predicates: u32,
    /// Number of sort (ORDER BY) columns.
    pub sort_columns: u32,
    /// Number of aggregation columns.
    pub aggregation_columns: u32,
}

impl SqlTextFeatures {
    /// Extracts the features from a query spec.
    pub fn from_spec(q: &QuerySpec) -> Self {
        let equality = q.predicates.iter().filter(|p| p.op.is_equality()).count() as u32;
        let total_sel = q.predicates.len() as u32
            + q.subqueries.iter().map(|s| s.inner_predicates).sum::<u32>();
        let equijoins = q.join_count(JoinKind::Equi) as u32;
        let nonequijoins = q.join_count(JoinKind::NonEqui) as u32;
        SqlTextFeatures {
            nested_subqueries: q.subqueries.len() as u32,
            selection_predicates: total_sel,
            equality_predicates: equality,
            non_equality_predicates: q.predicates.len() as u32 - equality,
            join_predicates: equijoins + nonequijoins,
            equijoin_predicates: equijoins,
            non_equijoin_predicates: nonequijoins,
            sort_columns: q.order_by_cols,
            aggregation_columns: q.agg_cols,
        }
    }

    /// The feature vector as `f64`s, in the order listed by the paper.
    pub fn to_array(&self) -> [f64; Self::DIM] {
        [
            self.nested_subqueries as f64,
            self.selection_predicates as f64,
            self.equality_predicates as f64,
            self.non_equality_predicates as f64,
            self.join_predicates as f64,
            self.equijoin_predicates as f64,
            self.non_equijoin_predicates as f64,
            self.sort_columns as f64,
            self.aggregation_columns as f64,
        ]
    }

    /// Dimensionality of the vector (always 9, the paper's count).
    pub const DIM: usize = 9;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WorkloadGenerator;
    use crate::spec::{JoinSpec, PredOp, PredicateSpec, SubquerySpec};

    #[test]
    fn counts_match_spec() {
        let q = QuerySpec {
            template: "t".into(),
            id: 0,
            tables: vec!["a".into(), "b".into(), "c".into()],
            joins: vec![
                JoinSpec {
                    left: 0,
                    right: 1,
                    left_column: "x".into(),
                    right_column: "y".into(),
                    kind: JoinKind::Equi,
                    true_fanout_factor: 1.0,
                },
                JoinSpec {
                    left: 0,
                    right: 2,
                    left_column: "x".into(),
                    right_column: "z".into(),
                    kind: JoinKind::NonEqui,
                    true_fanout_factor: 1.0,
                },
            ],
            predicates: vec![
                PredicateSpec {
                    table: 0,
                    column: "c1".into(),
                    op: PredOp::Eq,
                    true_selectivity: 0.1,
                },
                PredicateSpec {
                    table: 1,
                    column: "c2".into(),
                    op: PredOp::Range { fraction: 0.2 },
                    true_selectivity: 0.2,
                },
                PredicateSpec {
                    table: 2,
                    column: "c3".into(),
                    op: PredOp::InList { items: 3 },
                    true_selectivity: 0.05,
                },
            ],
            subqueries: vec![SubquerySpec {
                outer_table: 0,
                inner_table: "item".into(),
                true_pass_fraction: 0.5,
                inner_predicates: 2,
            }],
            group_by_cols: 1,
            agg_cols: 4,
            order_by_cols: 2,
            distinct: false,
            limit: None,
        };
        let f = SqlTextFeatures::from_spec(&q);
        assert_eq!(f.nested_subqueries, 1);
        assert_eq!(f.selection_predicates, 5); // 3 outer + 2 inner
        assert_eq!(f.equality_predicates, 2); // Eq + InList
        assert_eq!(f.non_equality_predicates, 1); // Range
        assert_eq!(f.join_predicates, 2);
        assert_eq!(f.equijoin_predicates, 1);
        assert_eq!(f.non_equijoin_predicates, 1);
        assert_eq!(f.sort_columns, 2);
        assert_eq!(f.aggregation_columns, 4);
    }

    #[test]
    fn vector_has_nine_dims() {
        let mut g = WorkloadGenerator::tpcds(1.0, 17);
        let q = g.generate_one();
        let v = SqlTextFeatures::from_spec(&q).to_array();
        assert_eq!(v.len(), SqlTextFeatures::DIM);
        assert!(v.iter().all(|x| x.is_finite() && *x >= 0.0));
    }

    #[test]
    fn identical_shapes_yield_identical_features() {
        // The Fig. 8 failure mode: same template shape, different
        // constants → same SQL features. Construct two specs differing
        // only in selectivity.
        let mut g = WorkloadGenerator::tpcds(1.0, 31);
        let q1 = g.generate_one();
        let mut q2 = q1.clone();
        for p in &mut q2.predicates {
            p.true_selectivity = (p.true_selectivity * 0.001).max(1e-8);
        }
        assert_eq!(
            SqlTextFeatures::from_spec(&q1),
            SqlTextFeatures::from_spec(&q2)
        );
    }
}
