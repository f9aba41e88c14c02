//! SQL text rendering for [`QuerySpec`]s.
//!
//! The rendered text is what a DBA would see in the query log; it makes
//! the examples human-readable. The SQL-text feature extractor (paper
//! Fig. 8) reads the spec, not this text (`SqlTextFeatures::from_spec`).
//! The renderer is deterministic: the same spec always renders to the
//! same string.

use crate::spec::{JoinKind, PredOp, QuerySpec};
use std::fmt::Write;

/// Renders a query spec as SQL text.
pub fn render(q: &QuerySpec) -> String {
    let mut s = String::with_capacity(256);
    let alias = |i: usize| format!("t{i}");

    // SELECT list.
    s.push_str("SELECT ");
    if q.distinct {
        s.push_str("DISTINCT ");
    }
    let mut select_items = Vec::new();
    for g in 0..q.group_by_cols {
        select_items.push(format!("{}.col_g{}", alias(0), g));
    }
    for a in 0..q.agg_cols {
        let f = ["SUM", "AVG", "COUNT", "MIN", "MAX"][a as usize % 5];
        select_items.push(format!("{}({}.col_a{})", f, alias(0), a));
    }
    if select_items.is_empty() {
        select_items.push(format!("{}.*", alias(0)));
    }
    s.push_str(&select_items.join(", "));

    // FROM clause.
    s.push_str("\nFROM ");
    let froms: Vec<String> = q
        .tables
        .iter()
        .enumerate()
        .map(|(i, t)| format!("{} {}", t, alias(i)))
        .collect();
    s.push_str(&froms.join(", "));

    // WHERE clause: joins then selections then subqueries.
    let mut conds = Vec::new();
    for j in &q.joins {
        match j.kind {
            JoinKind::Equi => conds.push(format!(
                "{}.{} = {}.{}",
                alias(j.left),
                j.left_column,
                alias(j.right),
                j.right_column
            )),
            JoinKind::NonEqui => conds.push(format!(
                "{}.{} BETWEEN {}.{} - 30 AND {}.{} + 30",
                alias(j.left),
                j.left_column,
                alias(j.right),
                j.right_column,
                alias(j.right),
                j.right_column
            )),
        }
    }
    for p in &q.predicates {
        let lhs = format!("{}.{}", alias(p.table), p.column);
        let cond = match p.op {
            PredOp::Eq => format!("{lhs} = :c{}", conds.len()),
            PredOp::Neq => format!("{lhs} <> :c{}", conds.len()),
            PredOp::Range { fraction } => {
                format!(
                    "{lhs} BETWEEN :lo{} AND :hi{} /* ~{:.4}% of domain */",
                    conds.len(),
                    conds.len(),
                    fraction * 100.0
                )
            }
            PredOp::InList { items } => {
                let list: Vec<String> = (0..items).map(|k| format!(":v{k}")).collect();
                format!("{lhs} IN ({})", list.join(", "))
            }
            PredOp::Like => format!("{lhs} LIKE :pat{}%", conds.len()),
        };
        conds.push(cond);
    }
    for (k, sub) in q.subqueries.iter().enumerate() {
        let inner_preds: Vec<String> = (0..sub.inner_predicates)
            .map(|i| format!("x.col_{i} = :s{k}_{i}"))
            .collect();
        let where_inner = if inner_preds.is_empty() {
            String::new()
        } else {
            format!(" WHERE {}", inner_preds.join(" AND "))
        };
        conds.push(format!(
            "{}.key IN (SELECT x.key FROM {} x{})",
            alias(sub.outer_table),
            sub.inner_table,
            where_inner
        ));
    }
    if !conds.is_empty() {
        s.push_str("\nWHERE ");
        s.push_str(&conds.join("\n  AND "));
    }

    // GROUP BY / ORDER BY / LIMIT.
    if q.group_by_cols > 0 {
        let cols: Vec<String> = (0..q.group_by_cols)
            .map(|g| format!("{}.col_g{}", alias(0), g))
            .collect();
        let _ = write!(s, "\nGROUP BY {}", cols.join(", "));
    }
    if q.order_by_cols > 0 {
        let cols: Vec<String> = (0..q.order_by_cols).map(|o| format!("{}", o + 1)).collect();
        let _ = write!(s, "\nORDER BY {}", cols.join(", "));
    }
    if let Some(limit) = q.limit {
        let _ = write!(s, "\nLIMIT {limit}");
    }
    s.push(';');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WorkloadGenerator;
    use crate::spec::{JoinSpec, PredicateSpec, SubquerySpec};

    fn sample() -> QuerySpec {
        QuerySpec {
            template: "t".into(),
            id: 0,
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
            subqueries: vec![SubquerySpec {
                outer_table: 0,
                inner_table: "item".into(),
                true_pass_fraction: 0.1,
                inner_predicates: 2,
            }],
            group_by_cols: 2,
            agg_cols: 1,
            order_by_cols: 1,
            distinct: true,
            limit: Some(100),
        }
    }

    #[test]
    fn renders_all_clauses() {
        let sql = render(&sample());
        assert!(sql.contains("SELECT DISTINCT"));
        assert!(sql.contains("FROM store_sales t0, date_dim t1"));
        assert!(sql.contains("t0.ss_sold_date_sk = t1.d_date_sk"));
        assert!(sql.contains("t1.d_year = :c"));
        assert!(sql.contains("IN (SELECT x.key FROM item x"));
        assert!(sql.contains("GROUP BY"));
        assert!(sql.contains("ORDER BY 1"));
        assert!(sql.contains("LIMIT 100"));
        assert!(sql.ends_with(';'));
    }

    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(render(&sample()), render(&sample()));
    }

    #[test]
    fn renders_generated_workload_without_panics() {
        let mut g = WorkloadGenerator::tpcds(1.0, 21);
        for q in g.generate(100) {
            let sql = render(&q);
            assert!(sql.starts_with("SELECT"));
            assert!(sql.len() > 20);
        }
    }

    #[test]
    fn nonequi_join_renders_between() {
        let mut q = sample();
        q.joins[0].kind = JoinKind::NonEqui;
        assert!(render(&q).contains("BETWEEN t1.d_date_sk - 30"));
    }
}
