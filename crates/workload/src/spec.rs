//! Logical query specification.
//!
//! A [`QuerySpec`] is the hand-off between the workload generator and the
//! database engine. It separates two kinds of information the same way a
//! real system does:
//!
//! * *Syntactic / statistical descriptors* (predicate ops, domain
//!   fractions, column NDVs) — everything the **optimizer** is allowed to
//!   see when estimating cardinalities.
//! * *Ground-truth selectivities and join fan-outs* — properties of the
//!   (simulated) data that only the **executor** consults. The gap
//!   between the two is the cardinality-estimation error the paper names
//!   as a main source of prediction difficulty (§I).

/// Predicate operator, carrying what the optimizer can see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredOp {
    /// `col = const`; the optimizer estimates `1 / ndv`.
    Eq,
    /// `col <> const`; estimate `1 - 1/ndv`.
    Neq,
    /// `col BETWEEN a AND b` where the syntactic range covers `fraction`
    /// of the column domain; the optimizer estimates `fraction`
    /// (uniformity assumption).
    Range {
        /// Fraction of the domain covered by the literal range.
        fraction: f64,
    },
    /// `col IN (v1..vk)`; estimate `k / ndv`.
    InList {
        /// Number of list items.
        items: u32,
    },
    /// `col LIKE 'pattern%'`; the optimizer uses a fixed magic fraction,
    /// as real optimizers do.
    Like,
}

impl PredOp {
    /// True for non-equality comparisons (drives the paper's SQL-text
    /// feature "number of non-equality selection predicates").
    pub fn is_equality(&self) -> bool {
        matches!(self, PredOp::Eq | PredOp::InList { .. })
    }
}

/// A selection predicate on one table.
#[derive(Debug, Clone, PartialEq)]
pub struct PredicateSpec {
    /// Index into [`QuerySpec::tables`].
    pub table: usize,
    /// Column name (must exist in the schema table).
    pub column: String,
    /// Operator + syntactic descriptor.
    pub op: PredOp,
    /// Ground-truth selectivity of this predicate on the simulated data.
    /// The executor uses this; the optimizer never sees it.
    pub true_selectivity: f64,
}

/// Join kind as written in the SQL text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Equi-join on key columns.
    Equi,
    /// Non-equi join (range/band join); far more expensive to execute.
    NonEqui,
}

/// A join edge between two tables of the query.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinSpec {
    /// Index of the left table in [`QuerySpec::tables`].
    pub left: usize,
    /// Index of the right table.
    pub right: usize,
    /// Join column on the left side (for NDV lookup).
    pub left_column: String,
    /// Join column on the right side.
    pub right_column: String,
    /// Kind of join predicate.
    pub kind: JoinKind,
    /// Ground-truth fan-out multiplier relative to the textbook
    /// `|L||R| / max(ndv_L, ndv_R)` estimate. 1.0 = estimate is exact;
    /// skewed keys push this well above 1.
    pub true_fanout_factor: f64,
}

/// A nested subquery, executed as a semi-join against its table.
#[derive(Debug, Clone, PartialEq)]
pub struct SubquerySpec {
    /// Index of the outer table the subquery correlates with.
    pub outer_table: usize,
    /// Name of the inner table scanned by the subquery.
    pub inner_table: String,
    /// Fraction of outer rows that survive the semi-join (ground truth).
    pub true_pass_fraction: f64,
    /// Number of predicates inside the subquery (SQL-text feature only).
    pub inner_predicates: u32,
}

/// A complete logical query.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Template that produced this query (for bookkeeping/debugging).
    pub template: String,
    /// Unique id within its workload.
    pub id: u64,
    /// Referenced base tables; index 0 is the driving (largest) table.
    pub tables: Vec<String>,
    /// Join edges; must connect the tables into one component.
    pub joins: Vec<JoinSpec>,
    /// Selection predicates.
    pub predicates: Vec<PredicateSpec>,
    /// Nested subqueries (semi-joins).
    pub subqueries: Vec<SubquerySpec>,
    /// Number of GROUP BY columns (0 = none).
    pub group_by_cols: u32,
    /// Number of aggregate expressions in the select list.
    pub agg_cols: u32,
    /// Number of ORDER BY columns (0 = none).
    pub order_by_cols: u32,
    /// Whether the query is `SELECT DISTINCT`.
    pub distinct: bool,
    /// Optional LIMIT.
    pub limit: Option<u64>,
}

impl QuerySpec {
    /// Number of join predicates of the given kind.
    pub fn join_count(&self, kind: JoinKind) -> usize {
        self.joins.iter().filter(|j| j.kind == kind).count()
    }

    /// Validates internal consistency (indices in range, selectivities in
    /// `(0, 1]`, join graph connected). Returns a description of the first
    /// violation, if any.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.tables.len();
        if n == 0 {
            return Err("query references no tables".into());
        }
        for p in &self.predicates {
            if p.table >= n {
                return Err(format!("predicate table index {} out of range", p.table));
            }
            if !(p.true_selectivity > 0.0 && p.true_selectivity <= 1.0) {
                return Err(format!(
                    "predicate selectivity {} outside (0,1]",
                    p.true_selectivity
                ));
            }
        }
        for j in &self.joins {
            if j.left >= n || j.right >= n || j.left == j.right {
                return Err(format!("bad join edge {} -> {}", j.left, j.right));
            }
            if j.true_fanout_factor <= 0.0 {
                return Err("non-positive join fanout".into());
            }
        }
        for s in &self.subqueries {
            if s.outer_table >= n {
                return Err("subquery outer table out of range".into());
            }
            if !(s.true_pass_fraction > 0.0 && s.true_pass_fraction <= 1.0) {
                return Err("subquery pass fraction outside (0,1]".into());
            }
        }
        // Connectivity: union-find over join edges.
        if n > 1 {
            let mut parent: Vec<usize> = (0..n).collect();
            fn find(parent: &mut [usize], mut x: usize) -> usize {
                while parent[x] != x {
                    parent[x] = parent[parent[x]];
                    x = parent[x];
                }
                x
            }
            for j in &self.joins {
                let (a, b) = (find(&mut parent, j.left), find(&mut parent, j.right));
                parent[a] = b;
            }
            let root = find(&mut parent, 0);
            for i in 1..n {
                if find(&mut parent, i) != root {
                    return Err(format!("table {} ({}) not joined", i, self.tables[i]));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_query() -> QuerySpec {
        QuerySpec {
            template: "t".into(),
            id: 1,
            tables: vec!["store_sales".into(), "date_dim".into()],
            joins: vec![JoinSpec {
                left: 0,
                right: 1,
                left_column: "ss_sold_date_sk".into(),
                right_column: "d_date_sk".into(),
                kind: JoinKind::Equi,
                true_fanout_factor: 1.0,
            }],
            predicates: vec![PredicateSpec {
                table: 1,
                column: "d_year".into(),
                op: PredOp::Eq,
                true_selectivity: 0.005,
            }],
            subqueries: vec![],
            group_by_cols: 1,
            agg_cols: 2,
            order_by_cols: 1,
            distinct: false,
            limit: None,
        }
    }

    #[test]
    fn valid_query_passes() {
        assert_eq!(tiny_query().validate(), Ok(()));
    }

    #[test]
    fn detects_disconnected_join_graph() {
        let mut q = tiny_query();
        q.tables.push("item".into());
        let err = q.validate().unwrap_err();
        assert!(err.contains("not joined"));
    }

    #[test]
    fn detects_bad_selectivity() {
        let mut q = tiny_query();
        q.predicates[0].true_selectivity = 0.0;
        assert!(q.validate().is_err());
        q.predicates[0].true_selectivity = 1.5;
        assert!(q.validate().is_err());
    }

    #[test]
    fn detects_out_of_range_indices() {
        let mut q = tiny_query();
        q.predicates[0].table = 9;
        assert!(q.validate().is_err());
        let mut q2 = tiny_query();
        q2.joins[0].right = 9;
        assert!(q2.validate().is_err());
    }

    #[test]
    fn join_count_by_kind() {
        let q = tiny_query();
        assert_eq!(q.join_count(JoinKind::Equi), 1);
        assert_eq!(q.join_count(JoinKind::NonEqui), 0);
    }

    #[test]
    fn predop_equality_classification() {
        assert!(PredOp::Eq.is_equality());
        assert!(PredOp::InList { items: 3 }.is_equality());
        assert!(!PredOp::Range { fraction: 0.1 }.is_equality());
        assert!(!PredOp::Like.is_equality());
        assert!(!PredOp::Neq.is_equality());
    }
}
