//! Heuristic cost-based query optimizer.
//!
//! Produces a physical [`Plan`] from a logical [`QuerySpec`] using only
//! catalog statistics — estimated cardinalities under uniformity and
//! independence assumptions, greedy left-deep join ordering, and
//! threshold-based join-method selection. Also reports a scalar
//! *optimizer cost* in abstract units, deliberately not mapped to time
//! (the premise of the paper's Fig. 17 comparison): the cost model is
//! a classic single-node, page-I/O-oriented formula — it assumes every
//! page is fetched from disk, knows nothing about the buffer pool,
//! parallel execution, interconnect traffic, or operator spills. That
//! is precisely why its units do not track elapsed time on the real
//! (simulated) parallel system, while still ranking plans usefully.
//!
//! Plans depend on the [`SystemConfig`]: the nested-loop threshold
//! scales with available memory, and layouts where the data is spread
//! over more partitions than there are executing CPUs insert extra
//! data-movement operators — reproducing the paper's observation that
//! the same query gets different plans on the 4-node and 32-node
//! systems (§VII-B).

use crate::catalog::Catalog;
use crate::config::SystemConfig;
use crate::plan::{OpKind, Plan, PlanNode};
use qpp_workload::spec::{JoinKind, QuerySpec};

/// Executor-facing annotation tying a plan node back to the logical
/// query element it implements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Annotation {
    /// Scan of `QuerySpec::tables[idx]`.
    Scan {
        /// Index into the spec's table list.
        spec_table: usize,
    },
    /// Join implementing `QuerySpec::joins[idx]`.
    Join {
        /// Index into the spec's join list.
        edge: usize,
    },
    /// Semi-join implementing `QuerySpec::subqueries[idx]`.
    Semi {
        /// Index into the spec's subquery list.
        subquery: usize,
    },
}

/// An optimized query: the physical plan plus its annotations.
#[derive(Debug, Clone)]
pub struct OptimizedQuery {
    /// The physical plan (estimated cardinalities, abstract cost).
    pub plan: Plan,
    /// Node-aligned annotations (same length as `plan.nodes`).
    pub annotations: Vec<Option<Annotation>>,
}

/// Band width used by the renderer and the optimizer for non-equi joins
/// (`BETWEEN x-30 AND x+30` → 61 values).
pub const BAND_WIDTH: f64 = 61.0;

/// Page size assumed by the optimizer's I/O-oriented cost model.
const PAGE_BYTES: f64 = 32.0 * 1024.0;

struct Builder<'a> {
    catalog: &'a Catalog,
    config: &'a SystemConfig,
    nodes: Vec<PlanNode>,
    annotations: Vec<Option<Annotation>>,
    cost: f64,
}

/// Running description of a partial plan (one subtree).
#[derive(Clone)]
struct Stream {
    node: usize,
    rows: f64,
    width: f64,
    partition_key: Option<String>,
}

impl<'a> Builder<'a> {
    fn push(&mut self, mut node: PlanNode, ann: Option<Annotation>, cost: f64) -> usize {
        if !node.est_rows.is_finite() {
            node.est_rows = f64::MAX / 1e6;
        }
        node.est_rows = node.est_rows.max(1.0);
        self.nodes.push(node);
        self.annotations.push(ann);
        self.cost += cost;
        self.nodes.len() - 1
    }

    /// Scan of the spec table `idx`, with all its predicates pushed down.
    fn scan(&mut self, q: &QuerySpec, idx: usize) -> Stream {
        let table = &q.tables[idx];
        let base_rows = self.catalog.rows(table);
        let width = self.catalog.row_width(table);
        let sel: f64 = q
            .predicates
            .iter()
            .filter(|p| p.table == idx)
            .map(|p| self.catalog.estimate_selectivity(table, p))
            .product();
        let est = (base_rows * sel).max(1.0);
        let partition_key = self
            .catalog
            .schema()
            .table(table)
            .and_then(|t| t.columns.first())
            .map(|c| c.name.clone());
        let node = self.push(
            PlanNode {
                kind: OpKind::FileScan,
                children: vec![],
                est_rows: est,
                row_width: width,
                table: Some(table.clone()),
                partition_key: partition_key.clone(),
            },
            Some(Annotation::Scan { spec_table: idx }),
            // Page-fetch cost of a full scan: the cost model assumes the
            // table is read from disk regardless of memory.
            (base_rows * width / PAGE_BYTES).max(1.0),
        );
        let mut stream = Stream {
            node,
            rows: est,
            width,
            partition_key,
        };
        // Data spread across more partitions than executing CPUs: results
        // must be combined from all drives through an extra split+exchange
        // (32-node system observation in the paper).
        if self.config.data_partitions > self.config.cpus {
            stream = self.exchange(stream, None);
        }
        stream
    }

    /// Split + Exchange repartitioning `input` onto `key` (None = gather).
    fn exchange(&mut self, input: Stream, key: Option<String>) -> Stream {
        let split = self.push(
            PlanNode {
                kind: OpKind::Split,
                children: vec![input.node],
                est_rows: input.rows,
                row_width: input.width,
                table: None,
                partition_key: input.partition_key.clone(),
            },
            None,
            // The single-node cost model does not charge data movement.
            0.0,
        );
        let node = self.push(
            PlanNode {
                kind: OpKind::Exchange,
                children: vec![split],
                est_rows: input.rows,
                row_width: input.width,
                table: None,
                partition_key: key.clone(),
            },
            None,
            0.0,
        );
        Stream {
            node,
            rows: input.rows,
            width: input.width,
            partition_key: key,
        }
    }

    /// Joins `outer` with the scanned table `inner_idx` along spec edge
    /// `edge_idx`.
    fn join(&mut self, q: &QuerySpec, outer: Stream, inner_idx: usize, edge_idx: usize) -> Stream {
        let edge = &q.joins[edge_idx];
        let mut inner = self.scan(q, inner_idx);
        let ltab = &q.tables[edge.left];
        let lcol = &edge.left_column;
        let rtab = &q.tables[edge.right];
        let rcol = &edge.right_column;
        let est = self
            .catalog
            .estimate_join(edge, ltab, rtab, outer.rows, inner.rows, BAND_WIDTH)
            .max(1.0);

        // NLJ threshold: how many inner rows we are willing to broadcast
        // and loop over. Scales with memory per CPU.
        let nlj_threshold = 2000.0
            * (self.config.mem_per_cpu as f64 / (2.0 * 1024.0 * 1024.0 * 1024.0)).clamp(0.05, 4.0);

        let (kind, est_out, op_cost) = match edge.kind {
            JoinKind::Equi => {
                let inner_pages = (inner.rows * inner.width / PAGE_BYTES).max(1.0);
                let outer_pages = (outer.rows * outer.width / PAGE_BYTES).max(1.0);
                if inner.rows <= nlj_threshold {
                    // Broadcast nested-loop join: no repartitioning needed.
                    (
                        OpKind::NestedLoopJoin,
                        est,
                        outer_pages + outer.rows * 0.002 * inner_pages,
                    )
                } else {
                    // Partitioned hash join: repartition sides not already
                    // partitioned on the join column.
                    if inner.partition_key.as_deref() != Some(rcol.as_str()) {
                        inner = self.exchange(inner, Some(rcol.clone()));
                    }
                    (OpKind::HashJoin, est, 3.0 * (inner_pages + outer_pages))
                }
            }
            JoinKind::NonEqui => {
                let inner_pages = (inner.rows * inner.width / PAGE_BYTES).max(1.0);
                let outer_pages = (outer.rows * outer.width / PAGE_BYTES).max(1.0);
                if inner.rows <= nlj_threshold {
                    (
                        OpKind::NestedLoopJoin,
                        est,
                        outer_pages + outer.rows * 0.002 * inner_pages,
                    )
                } else {
                    // Sort-merge band join.
                    let pages = outer_pages + inner_pages;
                    (OpKind::MergeJoin, est, pages * pages.max(2.0).log2())
                }
            }
        };
        let mut outer = outer;
        if kind == OpKind::HashJoin && outer.partition_key.as_deref() != Some(lcol.as_str()) {
            outer = self.exchange(outer, Some(lcol.clone()));
        }
        let width = (outer.width + inner.width) * 0.7;
        let node = self.push(
            PlanNode {
                kind,
                children: vec![outer.node, inner.node],
                est_rows: est_out,
                row_width: width,
                table: None,
                partition_key: if kind == OpKind::HashJoin {
                    Some(lcol.clone())
                } else {
                    outer.partition_key.clone()
                },
            },
            Some(Annotation::Join { edge: edge_idx }),
            op_cost,
        );
        Stream {
            node,
            rows: est_out,
            width,
            partition_key: self.nodes[node].partition_key.clone(),
        }
    }
}

/// Optimizes a logical query for the given configuration.
pub fn optimize(q: &QuerySpec, catalog: &Catalog, config: &SystemConfig) -> OptimizedQuery {
    debug_assert_eq!(q.validate(), Ok(()));
    let mut b = Builder {
        catalog,
        config,
        nodes: Vec::with_capacity(q.tables.len() * 3 + 8),
        annotations: Vec::new(),
        cost: 0.0,
    };

    // Driving table scan.
    let mut current = b.scan(q, 0);

    // Greedy left-deep join order: repeatedly take the pending edge whose
    // join yields the smallest estimated intermediate.
    let mut pending: Vec<usize> = (0..q.joins.len()).collect();
    while !pending.is_empty() {
        let mut best = (0usize, f64::INFINITY);
        for (pos, &e) in pending.iter().enumerate() {
            let edge = &q.joins[e];
            let inner_idx = edge.right;
            let inner_table = &q.tables[inner_idx];
            let inner_rows = catalog.rows(inner_table)
                * q.predicates
                    .iter()
                    .filter(|p| p.table == inner_idx)
                    .map(|p| catalog.estimate_selectivity(inner_table, p))
                    .product::<f64>();
            let est = catalog.estimate_join(
                edge,
                &q.tables[edge.left],
                inner_table,
                current.rows,
                inner_rows.max(1.0),
                BAND_WIDTH,
            );
            if est < best.1 {
                best = (pos, est);
            }
        }
        let edge_idx = pending.swap_remove(best.0);
        let inner_idx = q.joins[edge_idx].right;
        current = b.join(q, current, inner_idx, edge_idx);
    }

    // Semi-join subqueries.
    for (s_idx, sub) in q.subqueries.iter().enumerate() {
        let inner_rows = b.catalog.rows(&sub.inner_table).max(1.0);
        let inner_width = b.catalog.row_width(&sub.inner_table);
        let inner_node = b.push(
            PlanNode {
                kind: OpKind::FileScan,
                children: vec![],
                est_rows: inner_rows,
                row_width: inner_width,
                table: Some(sub.inner_table.clone()),
                partition_key: None,
            },
            None,
            inner_rows,
        );
        // The optimizer's magic guess for IN-subquery selectivity.
        let est_out = (current.rows * 0.3).max(1.0);
        let node = b.push(
            PlanNode {
                kind: OpKind::SemiJoin,
                children: vec![current.node, inner_node],
                est_rows: est_out,
                row_width: current.width,
                table: None,
                partition_key: current.partition_key.clone(),
            },
            Some(Annotation::Semi { subquery: s_idx }),
            (current.rows * current.width + 3.0 * inner_rows * inner_width) / PAGE_BYTES,
        );
        current = Stream {
            node,
            rows: est_out,
            width: current.width,
            partition_key: current.partition_key.clone(),
        };
    }

    // Aggregation: repartition on the grouping keys, then hash group-by.
    if q.group_by_cols > 0 || q.agg_cols > 0 {
        if q.group_by_cols > 0 {
            current = b.exchange(current, Some(format!("group_key_{}", q.group_by_cols)));
        }
        let groups = b.catalog.estimate_groups(current.rows, q.group_by_cols);
        let width = 8.0 * (q.group_by_cols + q.agg_cols) as f64 + 16.0;
        let in_rows = current.rows;
        let node = b.push(
            PlanNode {
                kind: OpKind::HashGroupBy,
                children: vec![current.node],
                est_rows: groups,
                row_width: width,
                table: None,
                partition_key: current.partition_key.clone(),
            },
            None,
            2.0 * in_rows * current.width / PAGE_BYTES,
        );
        current = Stream {
            node,
            rows: groups,
            width,
            partition_key: current.partition_key,
        };
    } else if q.distinct {
        let groups = (current.rows * 0.5).max(1.0);
        let in_rows = current.rows;
        let node = b.push(
            PlanNode {
                kind: OpKind::HashGroupBy,
                children: vec![current.node],
                est_rows: groups,
                row_width: current.width,
                table: None,
                partition_key: current.partition_key.clone(),
            },
            None,
            2.0 * in_rows * current.width / PAGE_BYTES,
        );
        current = Stream {
            node,
            rows: groups,
            width: current.width,
            partition_key: current.partition_key,
        };
    }

    // Sort for ORDER BY.
    if q.order_by_cols > 0 {
        let n = current.rows;
        let node = b.push(
            PlanNode {
                kind: OpKind::Sort,
                children: vec![current.node],
                est_rows: n,
                row_width: current.width,
                table: None,
                partition_key: current.partition_key.clone(),
            },
            None,
            (n * current.width / PAGE_BYTES).max(1.0) * n.max(2.0).log2(),
        );
        current = Stream {
            node,
            rows: n,
            width: current.width,
            partition_key: current.partition_key,
        };
    }

    // LIMIT.
    if let Some(limit) = q.limit {
        let out = (limit as f64).min(current.rows);
        let node = b.push(
            PlanNode {
                kind: OpKind::Top,
                children: vec![current.node],
                est_rows: out,
                row_width: current.width,
                table: None,
                partition_key: current.partition_key.clone(),
            },
            None,
            0.0,
        );
        current = Stream {
            node,
            rows: out,
            width: current.width,
            partition_key: current.partition_key,
        };
    }

    // Gather to the coordinator and compose the final result.
    current = b.exchange(current, None);
    let root_rows = current.rows;
    b.push(
        PlanNode {
            kind: OpKind::Root,
            children: vec![current.node],
            est_rows: root_rows,
            row_width: current.width,
            table: None,
            partition_key: None,
        },
        None,
        0.0,
    );

    // Per-operator cost constants are calibrated against a reference
    // machine, not the deployed one: plans with different operator
    // mixes sit on systematically different cost-to-time lines. Model
    // that miscalibration as a deterministic per-plan-shape warp — the
    // same plan always costs the same, but the scalar's *units* drift
    // by operator mix, which is precisely why Fig. 17's best-fit line
    // leaves 10-100x residuals while plan ranking still works.
    let shape: String = OpKind::ALL
        .iter()
        .map(|k| {
            format!(
                "{}:{};",
                k.name(),
                b.nodes.iter().filter(|n| n.kind == *k).count()
            )
        })
        .collect();
    let warp = 10f64.powf(0.4 * qpp_workload::world::hashed_normal(&[&shape, "cost_units"], 0));
    let plan = Plan {
        nodes: b.nodes,
        optimizer_cost: (b.cost * warp).max(1.0),
    };
    debug_assert_eq!(plan.validate(), Ok(()));
    OptimizedQuery {
        plan,
        annotations: b.annotations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpp_workload::WorkloadGenerator;

    fn setup() -> (Catalog, SystemConfig) {
        (
            Catalog::new(qpp_workload::Schema::tpcds(1.0)),
            SystemConfig::neoview_4(),
        )
    }

    #[test]
    fn plans_are_well_formed_for_generated_workload() {
        let (cat, cfg) = setup();
        let mut g = WorkloadGenerator::tpcds(1.0, 42);
        for q in g.generate(200) {
            let opt = optimize(&q, &cat, &cfg);
            assert_eq!(opt.plan.validate(), Ok(()), "query {}", q.id);
            assert_eq!(opt.plan.nodes.len(), opt.annotations.len());
            assert!(opt.plan.optimizer_cost > 0.0);
            // One scan per table (+ subquery inner scans).
            assert_eq!(
                opt.plan.count(OpKind::FileScan),
                q.tables.len() + q.subqueries.len()
            );
            // Root is last and unique.
            assert_eq!(opt.plan.count(OpKind::Root), 1);
            assert_eq!(opt.plan.nodes[opt.plan.root()].kind, OpKind::Root);
        }
    }

    #[test]
    fn small_inner_tables_get_nested_loop_joins() {
        let (cat, cfg) = setup();
        let mut g = WorkloadGenerator::tpcds(1.0, 7);
        // Find a query joining the 12-row `store` dimension.
        let q = loop {
            let q = g.generate_one();
            if q.tables.iter().any(|t| t == "store") {
                break q;
            }
        };
        let opt = optimize(&q, &cat, &cfg);
        assert!(opt.plan.count(OpKind::NestedLoopJoin) >= 1);
    }

    #[test]
    fn large_joins_use_hash_join_with_exchange() {
        let (cat, cfg) = setup();
        let mut g = WorkloadGenerator::tpcds(1.0, 11);
        // An unfiltered join against the 100k-row customer table must use
        // a partitioned hash join (with repartitioning exchanges).
        let q = loop {
            let mut q = g.generate_one();
            if let Some(idx) = q.tables.iter().position(|t| t == "customer") {
                q.predicates.retain(|p| p.table != idx);
                if q.validate().is_ok() {
                    break q;
                }
            }
        };
        let opt = optimize(&q, &cat, &cfg);
        assert!(opt.plan.count(OpKind::HashJoin) >= 1);
        assert!(opt.plan.count(OpKind::Exchange) >= 1);
    }

    #[test]
    fn plans_differ_across_configurations() {
        // The paper's §VII-B observation: 4-node plans differ from
        // 32-node plans for the same query.
        let cat = Catalog::new(qpp_workload::Schema::tpcds(1.0));
        let mut g = WorkloadGenerator::tpcds(1.0, 19);
        let qs = g.generate(40);
        let mut differs = 0;
        for q in &qs {
            let p4 = optimize(q, &cat, &SystemConfig::neoview_4()).plan;
            let p32 = optimize(q, &cat, &SystemConfig::neoview_32(4)).plan;
            if p4.nodes.len() != p32.nodes.len() {
                differs += 1;
            }
        }
        assert!(differs > 20, "only {differs}/40 plans differ");
    }

    #[test]
    fn replanning_is_deterministic() {
        let (cat, cfg) = setup();
        let mut g = WorkloadGenerator::tpcds(1.0, 3);
        let q = g.generate_one();
        let a = optimize(&q, &cat, &cfg).plan;
        let b = optimize(&q, &cat, &cfg).plan;
        assert_eq!(a, b);
    }

    #[test]
    fn estimates_track_but_do_not_equal_truth() {
        // Histogram-informed estimates follow the data without being
        // exact: across a workload, scan estimates should mostly land
        // within a factor of ~3 of the truth, rarely exactly on it.
        let (cat, cfg) = setup();
        let schema = qpp_workload::Schema::tpcds(1.0);
        let mut g = WorkloadGenerator::tpcds(1.0, 3);
        let mut within = 0;
        let mut exact = 0;
        let mut total = 0;
        for q in g.generate(50) {
            let opt = optimize(&q, &cat, &cfg);
            let out = crate::executor::execute(&q, &opt, &schema, &cfg);
            for (i, node) in opt.plan.nodes.iter().enumerate() {
                if node.kind != OpKind::FileScan {
                    continue;
                }
                let t = out.true_rows[i].max(1.0);
                let e = node.est_rows.max(1.0);
                let ratio = (t / e).max(e / t);
                total += 1;
                if ratio < 3.0 {
                    within += 1;
                }
                if ratio < 1.0 + 1e-9 {
                    exact += 1;
                }
            }
        }
        assert!(within * 10 >= total * 8, "only {within}/{total} within 3x");
        assert!(exact < total, "estimates suspiciously exact");
    }

    #[test]
    fn optimizer_cost_monotone_in_workload_size() {
        // A full-scan query must out-cost a highly selective one from the
        // same shape.
        let (cat, cfg) = setup();
        let mut g = WorkloadGenerator::tpcds(1.0, 23);
        let mut q = g.generate_one();
        let cheap = optimize(&q, &cat, &cfg).plan.optimizer_cost;
        q.predicates.clear(); // no filters → full scans
        let expensive = optimize(&q, &cat, &cfg).plan.optimizer_cost;
        assert!(expensive >= cheap);
    }
}
