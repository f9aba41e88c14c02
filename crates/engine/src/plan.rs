//! Physical query plans.
//!
//! A [`Plan`] is an arena of [`PlanNode`]s (children stored by index,
//! root last). Every node carries the optimizer's *estimated* output
//! cardinality — the information the paper's query-plan feature vector
//! condenses (Fig. 9: per-operator instance counts and cardinality
//! sums).

use std::fmt;

/// Physical operator kinds — the operator vocabulary of the simulated
/// engine (and the dimensions of the plan feature vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Partitioned base-table scan (with pushed-down predicates).
    FileScan,
    /// Nested-loop join with broadcast inner.
    NestedLoopJoin,
    /// Partitioned hash join.
    HashJoin,
    /// Sort-merge join (used for band joins on large inputs).
    MergeJoin,
    /// Hash semi-join (nested subqueries).
    SemiJoin,
    /// Full sort.
    Sort,
    /// Hash aggregation.
    HashGroupBy,
    /// Repartitioning / gathering data movement.
    Exchange,
    /// Partition-parallel split point.
    Split,
    /// Top-N (LIMIT).
    Top,
    /// Final result composition on the coordinating node.
    Root,
    /// Residual predicate evaluation not pushed into a scan.
    Filter,
}

impl OpKind {
    /// All operator kinds, in the canonical feature-vector order.
    pub const ALL: [OpKind; 12] = [
        OpKind::FileScan,
        OpKind::NestedLoopJoin,
        OpKind::HashJoin,
        OpKind::MergeJoin,
        OpKind::SemiJoin,
        OpKind::Sort,
        OpKind::HashGroupBy,
        OpKind::Exchange,
        OpKind::Split,
        OpKind::Top,
        OpKind::Root,
        OpKind::Filter,
    ];

    /// Index of this kind within [`OpKind::ALL`].
    ///
    /// Kept as an exhaustive match (checked against `ALL` by the
    /// roundtrip test below) so the lookup cannot panic.
    pub fn index(self) -> usize {
        match self {
            OpKind::FileScan => 0,
            OpKind::NestedLoopJoin => 1,
            OpKind::HashJoin => 2,
            OpKind::MergeJoin => 3,
            OpKind::SemiJoin => 4,
            OpKind::Sort => 5,
            OpKind::HashGroupBy => 6,
            OpKind::Exchange => 7,
            OpKind::Split => 8,
            OpKind::Top => 9,
            OpKind::Root => 10,
            OpKind::Filter => 11,
        }
    }

    /// Short lowercase name (matches the paper's plan listings, e.g.
    /// `file_scan`, `nested_join`).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::FileScan => "file_scan",
            OpKind::NestedLoopJoin => "nested_join",
            OpKind::HashJoin => "hash_join",
            OpKind::MergeJoin => "merge_join",
            OpKind::SemiJoin => "semi_join",
            OpKind::Sort => "sort",
            OpKind::HashGroupBy => "hashgroupby",
            OpKind::Exchange => "exchange",
            OpKind::Split => "split",
            OpKind::Top => "top",
            OpKind::Root => "root",
            OpKind::Filter => "filter",
        }
    }
}

/// One node of a physical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// Operator kind.
    pub kind: OpKind,
    /// Child node indices (0, 1 or 2 children).
    pub children: Vec<usize>,
    /// Optimizer-estimated output cardinality (rows).
    pub est_rows: f64,
    /// Estimated output row width, bytes.
    pub row_width: f64,
    /// Base table name for scans.
    pub table: Option<String>,
    /// Column the output is partitioned on (None = replicated/gathered).
    pub partition_key: Option<String>,
}

/// A physical plan: node arena plus the root index (always the last
/// node) and the optimizer's abstract cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Node arena; children precede parents.
    pub nodes: Vec<PlanNode>,
    /// Optimizer cost in abstract units (deliberately *not* seconds —
    /// the paper's Fig. 17 point).
    pub optimizer_cost: f64,
}

impl Plan {
    /// Root node index.
    pub fn root(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Number of operators of the given kind.
    pub fn count(&self, kind: OpKind) -> usize {
        self.nodes.iter().filter(|n| n.kind == kind).count()
    }

    /// Sum of estimated cardinalities over operators of the given kind.
    pub fn cardinality_sum(&self, kind: OpKind) -> f64 {
        qpp_linalg::vector::sum_iter(
            self.nodes
                .iter()
                .filter(|n| n.kind == kind)
                .map(|n| n.est_rows),
        )
    }

    /// Validates arena well-formedness: children precede parents, every
    /// non-root node has exactly one parent.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("empty plan".into());
        }
        let mut parents = vec![0usize; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            for &c in &n.children {
                if c >= i {
                    return Err(format!("node {i} has forward child {c}"));
                }
                parents[c] += 1;
            }
            if !n.est_rows.is_finite() || n.est_rows < 0.0 {
                return Err(format!("node {i} has bad est_rows {}", n.est_rows));
            }
        }
        for (i, &p) in parents.iter().enumerate() {
            if i != self.root() && p != 1 {
                return Err(format!("node {i} has {p} parents"));
            }
        }
        if parents[self.root()] != 0 {
            return Err("root has a parent".into());
        }
        Ok(())
    }

    /// Pretty-prints the plan as an indented operator tree (like the
    /// paper's Fig. 9 listing).
    pub fn display_tree(&self) -> String {
        let mut out = String::new();
        self.fmt_node(self.root(), 0, &mut out);
        out
    }

    fn fmt_node(&self, idx: usize, depth: usize, out: &mut String) {
        let n = &self.nodes[idx];
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(n.kind.name());
        if let Some(t) = &n.table {
            out.push_str(&format!(" [ {t} ]"));
        }
        out.push_str(&format!(" (est {:.0})\n", n.est_rows));
        for &c in n.children.iter().rev() {
            self.fmt_node(c, depth + 1, out);
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_tree())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(table: &str, rows: f64) -> PlanNode {
        PlanNode {
            kind: OpKind::FileScan,
            children: vec![],
            est_rows: rows,
            row_width: 100.0,
            table: Some(table.to_string()),
            partition_key: None,
        }
    }

    fn tiny_plan() -> Plan {
        Plan {
            nodes: vec![
                leaf("a", 1000.0),
                leaf("b", 10.0),
                PlanNode {
                    kind: OpKind::HashJoin,
                    children: vec![0, 1],
                    est_rows: 1000.0,
                    row_width: 150.0,
                    table: None,
                    partition_key: None,
                },
                PlanNode {
                    kind: OpKind::Root,
                    children: vec![2],
                    est_rows: 1000.0,
                    row_width: 150.0,
                    table: None,
                    partition_key: None,
                },
            ],
            optimizer_cost: 42.0,
        }
    }

    #[test]
    fn counts_and_sums() {
        let p = tiny_plan();
        assert_eq!(p.count(OpKind::FileScan), 2);
        assert_eq!(p.count(OpKind::HashJoin), 1);
        assert_eq!(p.cardinality_sum(OpKind::FileScan), 1010.0);
    }

    #[test]
    fn validate_detects_forward_children() {
        let mut p = tiny_plan();
        p.nodes[2].children = vec![0, 3];
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_detects_orphans() {
        let mut p = tiny_plan();
        p.nodes[3].children = vec![0]; // node 1 and 2 orphaned
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_ok_for_well_formed() {
        assert_eq!(tiny_plan().validate(), Ok(()));
    }

    #[test]
    fn display_tree_mentions_tables() {
        let s = tiny_plan().display_tree();
        assert!(s.contains("file_scan [ a ]"));
        assert!(s.contains("root"));
    }

    #[test]
    fn all_kinds_have_unique_indices() {
        for (i, k) in OpKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }
}
