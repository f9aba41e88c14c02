//! Parameterized query templates.
//!
//! The paper generated thousands of queries from (a) the official TPC-DS
//! templates, which at scale factor 1 produced almost exclusively
//! sub-3-minute "feathers", and (b) new templates written against the
//! TPC-DS schema to mimic real customer problem queries — the source of
//! the "golf balls" (3–30 min) and "bowling balls" (30 min – 2 h).
//!
//! A template fixes the SQL *shape*: which fact table drives the query,
//! which dimensions may join in, how many predicates/aggregates/sort
//! columns appear. Instantiation draws the *constants* — predicate
//! selectivities (log-uniform across orders of magnitude), join
//! fan-outs, group-by arity. As the paper stresses (§IV-B), the same
//! template can yield a three-minute query or an hours-long one
//! depending on the constants chosen.

use crate::schema::Schema;
use crate::spec::{JoinKind, JoinSpec, PredOp, PredicateSpec, QuerySpec, SubquerySpec};
use crate::world;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Broad class of a template; used to weight workload mixes and to
/// label experiment output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemplateClass {
    /// Standard TPC-DS-style reporting query (star join + aggregate).
    Reporting,
    /// Ad-hoc analytical query with wider parameter ranges.
    AdHoc,
    /// Fact-to-fact join (sales vs. returns, cross-channel).
    CrossFact,
    /// "Problem" template modeled on the customer queries that ran 4+
    /// hours on production systems: huge intermediates, misestimated
    /// selectivities, occasional non-equi joins.
    Problem,
}

/// A candidate dimension join for a fact table:
/// `(dim table, fact join column, dim join column, dim predicate column)`.
type DimJoin = (&'static str, &'static str, &'static str, &'static str);

/// A parameterized query template.
#[derive(Debug, Clone)]
pub struct Template {
    /// Template name, e.g. `tpcds_store_monthly`.
    pub name: String,
    /// Class (drives workload mixes).
    pub class: TemplateClass,
    /// Relative sampling weight inside a workload.
    pub weight: f64,
    /// Driving fact table.
    pub fact: String,
    /// Additional fact tables joined to the driver:
    /// `(table, driver column, other column)`.
    pub extra_facts: Vec<(String, String, String)>,
    /// Candidate dimension joins.
    pub dims: Vec<(String, String, String, String)>,
    /// Min/max number of dimension joins to draw.
    pub dim_range: (usize, usize),
    /// log10 range of the driving range-predicate selectivity on the
    /// fact table (e.g. `(-4.0, -0.5)` spans 0.01% to ~32%). `None`
    /// means full fact scan.
    pub driving_sel_log10: Option<(f64, f64)>,
    /// Min/max extra predicates on joined dimensions.
    pub extra_preds: (u32, u32),
    /// Probability that a fact-fact join is written as a non-equi
    /// (band) join.
    pub nonequi_prob: f64,
    /// Min/max GROUP BY columns.
    pub group_by: (u32, u32),
    /// Min/max aggregate expressions.
    pub agg: (u32, u32),
    /// Min/max ORDER BY columns.
    pub order_by: (u32, u32),
    /// Probability of a nested (semi-join) subquery.
    pub subquery_prob: f64,
    /// log10 standard deviation of true-vs-estimated selectivity error.
    /// Standard templates ≈ 0.25; problem templates up to ≈ 0.8, which
    /// is what defeats uniformity-based cardinality estimation.
    pub est_error_sigma: f64,
    /// log10 range of the extra-fact join fan-out factor (1.0 = textbook
    /// estimate is exact).
    pub fanout_log10: (f64, f64),
}

impl Template {
    /// Instantiates the template into a concrete [`QuerySpec`].
    ///
    /// A query is a **structural variant** of its template plus a set of
    /// **constants**. Like real benchmark templates, a template's SQL
    /// shape barely varies: the variant id (a small integer) picks one
    /// of a handful of fixed shapes — which dimensions join in, how
    /// many predicates/aggregates appear — via a variant-seeded RNG, so
    /// the same (template, variant) always produces the same structure.
    /// Only the constants (range widths, literal ids) vary freely,
    /// which is what creates the near-duplicate queries the paper's
    /// nearest-neighbor prediction thrives on.
    pub fn instantiate(&self, schema: &Schema, id: u64, rng: &mut impl Rng) -> QuerySpec {
        // Structural RNG: deterministic per (template, variant).
        let variant = rng.random_range(0..Self::VARIANTS);
        let mut srng = StdRng::seed_from_u64(
            (world::hashed_unit(&[&self.name, "variant"], variant) * u32::MAX as f64) as u64,
        );

        let mut tables = vec![self.fact.clone()];
        let mut joins = Vec::new();
        let mut predicates = Vec::new();

        // Extra fact tables.
        for (tbl, lcol, rcol) in &self.extra_facts {
            let idx = tables.len();
            tables.push(tbl.clone());
            let kind = if srng.random_bool(self.nonequi_prob) {
                JoinKind::NonEqui
            } else {
                JoinKind::Equi
            };
            // Fan-out is a property of the data: pinned to the join
            // columns plus a small phase (which filtered subset of the
            // key domain the query touches).
            let phase = rng.random_range(0..4u64);
            joins.push(JoinSpec {
                left: 0,
                right: idx,
                left_column: lcol.clone(),
                right_column: rcol.clone(),
                kind,
                true_fanout_factor: world::join_fanout(lcol, rcol, phase, self.fanout_log10),
            });
        }

        // Dimension joins: the subset is part of the variant's structure.
        let n_dims = if self.dims.is_empty() {
            0
        } else {
            let hi = self.dim_range.1.min(self.dims.len());
            let lo = self.dim_range.0.min(hi);
            srng.random_range(lo..=hi)
        };
        let mut dim_pool: Vec<usize> = (0..self.dims.len()).collect();
        for _ in 0..n_dims {
            let pick = srng.random_range(0..dim_pool.len());
            let (dim, fcol, dcol, pcol) = &self.dims[dim_pool.swap_remove(pick)];
            let idx = tables.len();
            tables.push(dim.clone());
            joins.push(JoinSpec {
                left: 0,
                right: idx,
                left_column: fcol.clone(),
                right_column: dcol.clone(),
                kind: JoinKind::Equi,
                // Dimension joins are key joins: fan-out is near-exact,
                // and fixed by the data.
                true_fanout_factor: world::join_fanout(fcol, dcol, 0, (-0.04, 0.04)),
            });
            // Whether the dimension carries a predicate is structure;
            // the predicate's constant comes from the free RNG.
            if srng.random_bool(0.7) {
                predicates.push(self.draw_predicate(schema, idx, dim, pcol, &mut srng, rng));
            }
        }

        // Driving range predicate on the fact table (typically the date
        // surrogate key — TPC-DS queries restrict the sold-date range).
        if let Some((lo, hi)) = self.driving_sel_log10 {
            let date_col = schema
                .table(&self.fact)
                .and_then(|t| t.columns.first())
                .map(|c| c.name.clone())
                .unwrap_or_else(|| "date_sk".to_string());
            // Constants come from a discrete grid of range widths x
            // positions — real template instantiation draws dates from a
            // limited calendar, so repeats occur, and repeated constants
            // see the same data (same truth).
            const WIDTHS: u64 = 10;
            const PHASES: u64 = 3;
            let w = rng.random_range(0..WIDTHS);
            let phase = rng.random_range(0..PHASES);
            let u = lo + (hi - lo) * (w as f64 + 0.5) / WIDTHS as f64;
            let fraction = 10f64.powf(u).clamp(1e-8, 1.0);
            let true_sel = world::true_selectivity(
                &self.fact,
                &date_col,
                "range",
                w * PHASES + phase,
                fraction,
                self.est_error_sigma,
            );
            predicates.push(PredicateSpec {
                table: 0,
                column: date_col,
                op: PredOp::Range { fraction },
                true_selectivity: true_sel,
            });
        }

        // Extra predicates on fixed (per-variant) fact measure columns.
        let n_extra = srng.random_range(self.extra_preds.0..=self.extra_preds.1);
        if let Some(fact_table) = schema.table(&self.fact) {
            for _ in 0..n_extra {
                let col = &fact_table.columns[srng.random_range(0..fact_table.columns.len())];
                predicates.push(self.draw_measure_predicate(0, &col.name, col.ndv, &mut srng, rng));
            }
        }

        // Optional nested subquery (semi-join) — presence is structure.
        let mut subqueries = Vec::new();
        if srng.random_bool(self.subquery_prob) {
            let inner = if srng.random_bool(0.5) {
                "item"
            } else {
                "customer"
            };
            let constant_id = rng.random_range(0..4u64);
            subqueries.push(SubquerySpec {
                outer_table: 0,
                inner_table: inner.to_string(),
                true_pass_fraction: world::subquery_pass_fraction(inner, constant_id),
                inner_predicates: srng.random_range(1..=3),
            });
        }

        let group_by_cols = srng.random_range(self.group_by.0..=self.group_by.1);
        let agg_cols = srng.random_range(self.agg.0..=self.agg.1);
        let order_by_cols = srng.random_range(self.order_by.0..=self.order_by.1);

        QuerySpec {
            template: self.name.clone(),
            id,
            tables,
            joins,
            predicates,
            subqueries,
            group_by_cols,
            agg_cols,
            order_by_cols,
            distinct: srng.random_bool(0.1),
            limit: if srng.random_bool(0.15) {
                Some(srng.random_range(10..1000))
            } else {
                None
            },
        }
    }

    /// Structural variants per template.
    pub const VARIANTS: u64 = 4;

    fn draw_predicate(
        &self,
        schema: &Schema,
        table_idx: usize,
        table: &str,
        column: &str,
        srng: &mut impl Rng,
        rng: &mut impl Rng,
    ) -> PredicateSpec {
        let (ndv, skew) = schema
            .table(table)
            .and_then(|t| t.column(column))
            .map(|c| (c.ndv.max(1), c.skew))
            .unwrap_or((100, 0.0));
        // The operator is part of the variant's structure; the constant
        // id is drawn freely. Templates pick literals from small
        // domains, so constants repeat across queries — and repeated
        // constants share their ground truth.
        let roll: f64 = srng.random();
        let (op, op_tag, constant_id, est) = if roll < 0.5 {
            let c = rng.random_range(0..ndv.min(10));
            (PredOp::Eq, "eq", c, 1.0 / ndv as f64)
        } else if roll < 0.75 {
            let items = srng.random_range(2..=8u32).min(ndv as u32);
            let c = rng.random_range(0..4u64);
            (
                PredOp::InList { items },
                "in",
                c * 16 + items as u64,
                items as f64 / ndv as f64,
            )
        } else if roll < 0.9 {
            let w = rng.random_range(0..6u64);
            let fraction = 10f64.powf(-2.0 + 1.8 * (w as f64 + 0.5) / 6.0);
            (PredOp::Range { fraction }, "range", w, fraction)
        } else {
            let c = rng.random_range(0..4u64);
            (PredOp::Like, "like", c, 0.05)
        };
        // Ground truth deviates more on skewed columns — an equality
        // predicate on a Zipf-heavy value can match far more rows than
        // 1/ndv suggests.
        let sigma = self.est_error_sigma * (1.0 + 2.0 * skew);
        let true_selectivity =
            world::true_selectivity(table, column, op_tag, constant_id, est, sigma);
        PredicateSpec {
            table: table_idx,
            column: column.to_string(),
            op,
            true_selectivity,
        }
    }

    fn draw_measure_predicate(
        &self,
        table_idx: usize,
        column: &str,
        ndv: u64,
        srng: &mut impl Rng,
        rng: &mut impl Rng,
    ) -> PredicateSpec {
        let roll: f64 = srng.random();
        let (op, op_tag, constant_id, est) = if roll < 0.4 {
            let w = rng.random_range(0..6u64);
            let fraction = 10f64.powf(-1.5 + 1.4 * (w as f64 + 0.5) / 6.0);
            (PredOp::Range { fraction }, "range", w, fraction)
        } else if roll < 0.7 {
            let c = rng.random_range(0..ndv.clamp(1, 10));
            (PredOp::Eq, "eq", c, 1.0 / ndv.max(1) as f64)
        } else {
            let c = rng.random_range(0..ndv.clamp(1, 10));
            (PredOp::Neq, "neq", c, 1.0 - 1.0 / ndv.max(2) as f64)
        };
        let true_selectivity = world::true_selectivity(
            "fact_measure",
            column,
            op_tag,
            constant_id,
            est,
            self.est_error_sigma,
        );
        PredicateSpec {
            table: table_idx,
            column: column.to_string(),
            op,
            true_selectivity,
        }
    }
}

/// Draws `10^u` with `u` uniform in the given log10 range.
#[cfg_attr(not(test), allow(dead_code))]
fn log10_uniform(rng: &mut impl Rng, (lo, hi): (f64, f64)) -> f64 {
    let u = if hi > lo {
        rng.random_range(lo..hi)
    } else {
        lo
    };
    10f64.powf(u)
}

/// Standard normal via Box–Muller (rand_distr is not in the offline set).
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn standard_normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.random_range(1e-12..1.0);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Dimension-join candidates for each TPC-DS fact table.
fn dims_for(fact: &str) -> Vec<DimJoin> {
    match fact {
        "store_sales" => vec![
            ("date_dim", "ss_sold_date_sk", "d_date_sk", "d_year"),
            ("item", "ss_item_sk", "i_item_sk", "i_category"),
            (
                "customer",
                "ss_customer_sk",
                "c_customer_sk",
                "c_birth_year",
            ),
            ("store", "ss_store_sk", "s_store_sk", "s_state"),
            ("promotion", "ss_promo_sk", "p_promo_sk", "p_channel_email"),
        ],
        "catalog_sales" => vec![
            ("date_dim", "cs_sold_date_sk", "d_date_sk", "d_year"),
            ("item", "cs_item_sk", "i_item_sk", "i_category"),
            (
                "customer",
                "cs_bill_customer_sk",
                "c_customer_sk",
                "c_birth_year",
            ),
            (
                "call_center",
                "cs_call_center_sk",
                "cc_call_center_sk",
                "cc_call_center_sk",
            ),
            (
                "ship_mode",
                "cs_ship_mode_sk",
                "sm_ship_mode_sk",
                "sm_ship_mode_sk",
            ),
        ],
        "web_sales" => vec![
            ("date_dim", "ws_sold_date_sk", "d_date_sk", "d_year"),
            ("item", "ws_item_sk", "i_item_sk", "i_category"),
            (
                "customer",
                "ws_bill_customer_sk",
                "c_customer_sk",
                "c_birth_year",
            ),
            ("web_site", "ws_web_site_sk", "web_site_sk", "web_site_sk"),
        ],
        "inventory" => vec![
            ("date_dim", "inv_date_sk", "d_date_sk", "d_moy"),
            ("item", "inv_item_sk", "i_item_sk", "i_class"),
            (
                "warehouse",
                "inv_warehouse_sk",
                "w_warehouse_sk",
                "w_warehouse_sq_ft",
            ),
        ],
        "store_returns" => vec![
            ("date_dim", "sr_returned_date_sk", "d_date_sk", "d_year"),
            ("item", "sr_item_sk", "i_item_sk", "i_brand"),
            (
                "customer",
                "sr_customer_sk",
                "c_customer_sk",
                "c_preferred_cust_flag",
            ),
        ],
        _ => vec![("date_dim", "sold_date_sk", "d_date_sk", "d_year")],
    }
}

fn owned_dims(fact: &str) -> Vec<(String, String, String, String)> {
    dims_for(fact)
        .into_iter()
        .map(|(a, b, c, d)| (a.to_string(), b.to_string(), c.to_string(), d.to_string()))
        .collect()
}

/// The standard TPC-DS-style template suite plus the problem templates
/// (paper §IV-B). Thirty-two templates across the four classes.
pub fn tpcds_suite() -> Vec<Template> {
    let mut out = Vec::new();

    // ---- Reporting templates: one per fact table and reporting flavor.
    // Tight date ranges, star joins, aggregation → feathers.
    for (i, fact) in ["store_sales", "catalog_sales", "web_sales", "store_returns"]
        .iter()
        .enumerate()
    {
        for (j, (lo, hi)) in [(-3.5, -1.5), (-3.0, -1.0), (-2.5, -0.7)]
            .iter()
            .enumerate()
        {
            out.push(Template {
                name: format!("tpcds_report_{fact}_{j}"),
                class: TemplateClass::Reporting,
                weight: 3.0,
                fact: fact.to_string(),
                extra_facts: vec![],
                dims: owned_dims(fact),
                dim_range: (1, 3),
                driving_sel_log10: Some((*lo, *hi)),
                extra_preds: (0, 2),
                nonequi_prob: 0.0,
                group_by: (1, 4),
                agg: (1, 4),
                order_by: (0, 2),
                subquery_prob: if i == 0 && j == 0 { 0.2 } else { 0.05 },
                est_error_sigma: 0.2,
                fanout_log10: (0.0, 0.0),
            });
        }
    }

    // ---- Ad-hoc templates: wider selectivity ranges, more predicates.
    for (j, fact) in ["store_sales", "catalog_sales", "web_sales", "inventory"]
        .iter()
        .enumerate()
    {
        out.push(Template {
            name: format!("tpcds_adhoc_{fact}"),
            class: TemplateClass::AdHoc,
            weight: 2.0,
            fact: fact.to_string(),
            extra_facts: vec![],
            dims: owned_dims(fact),
            dim_range: (2, 4),
            driving_sel_log10: Some((-3.0, -0.1)),
            extra_preds: (1, 4),
            nonequi_prob: 0.0,
            group_by: (0, 6),
            agg: (1, 6),
            order_by: (0, 3),
            subquery_prob: 0.15,
            est_error_sigma: 0.3,
            fanout_log10: (0.0, 0.0),
        });
        // Full-scan variant (no driving predicate).
        if j < 2 {
            out.push(Template {
                name: format!("tpcds_adhoc_full_{fact}"),
                class: TemplateClass::AdHoc,
                weight: 1.0,
                fact: fact.to_string(),
                extra_facts: vec![],
                dims: owned_dims(fact),
                dim_range: (1, 3),
                driving_sel_log10: None,
                extra_preds: (1, 3),
                nonequi_prob: 0.0,
                group_by: (1, 5),
                agg: (1, 5),
                order_by: (0, 2),
                subquery_prob: 0.1,
                est_error_sigma: 0.3,
                fanout_log10: (0.0, 0.0),
            });
        }
    }

    // ---- Cross-fact templates: sales ⋈ returns / cross-channel.
    let crossfacts: Vec<(&str, &str, (&str, &str, &str))> = vec![
        (
            "sales_vs_returns_store",
            "store_sales",
            ("store_returns", "ss_item_sk", "sr_item_sk"),
        ),
        (
            "sales_vs_returns_catalog",
            "catalog_sales",
            ("catalog_returns", "cs_item_sk", "cr_item_sk"),
        ),
        (
            "cross_channel_sc",
            "store_sales",
            ("catalog_sales", "ss_customer_sk", "cs_bill_customer_sk"),
        ),
        (
            "cross_channel_sw",
            "store_sales",
            ("web_sales", "ss_item_sk", "ws_item_sk"),
        ),
        (
            "cross_channel_cw",
            "catalog_sales",
            ("web_sales", "cs_item_sk", "ws_item_sk"),
        ),
    ];
    for (name, fact, (xt, lc, rc)) in crossfacts {
        out.push(Template {
            name: format!("tpcds_{name}"),
            class: TemplateClass::CrossFact,
            weight: 1.5,
            fact: fact.to_string(),
            extra_facts: vec![(xt.to_string(), lc.to_string(), rc.to_string())],
            dims: owned_dims(fact),
            dim_range: (1, 3),
            driving_sel_log10: Some((-2.0, -0.1)),
            extra_preds: (0, 2),
            nonequi_prob: 0.0,
            group_by: (1, 4),
            agg: (1, 4),
            order_by: (0, 2),
            subquery_prob: 0.1,
            est_error_sigma: 0.35,
            // Item/customer-key fact-fact joins fan out heavily on skewed
            // keys: up to ~30x the textbook estimate.
            fanout_log10: (0.3, 1.5),
        });
    }

    // ---- Problem templates: modeled on the customer queries that ran
    // for 4+ hours (paper §IV-B). Loose or missing date restrictions,
    // multi-fact joins, occasional band joins, heavy estimation error.
    out.push(Template {
        name: "problem_runaway_crossjoin".into(),
        class: TemplateClass::Problem,
        weight: 0.8,
        fact: "store_sales".into(),
        extra_facts: vec![
            (
                "catalog_sales".into(),
                "ss_item_sk".into(),
                "cs_item_sk".into(),
            ),
            ("web_sales".into(), "ss_item_sk".into(), "ws_item_sk".into()),
        ],
        dims: owned_dims("store_sales"),
        dim_range: (0, 2),
        driving_sel_log10: Some((-2.2, -0.7)),
        extra_preds: (0, 1),
        nonequi_prob: 0.15,
        group_by: (1, 3),
        agg: (1, 3),
        order_by: (0, 2),
        subquery_prob: 0.2,
        est_error_sigma: 0.6,
        fanout_log10: (0.1, 0.7),
    });
    out.push(Template {
        name: "problem_band_join".into(),
        class: TemplateClass::Problem,
        weight: 0.7,
        fact: "catalog_sales".into(),
        extra_facts: vec![(
            "catalog_returns".into(),
            "cs_order_number".into(),
            "cr_order_number".into(),
        )],
        dims: owned_dims("catalog_sales"),
        dim_range: (0, 2),
        driving_sel_log10: Some((-1.5, -0.1)),
        extra_preds: (0, 2),
        nonequi_prob: 0.6,
        group_by: (0, 3),
        agg: (1, 4),
        order_by: (1, 3),
        subquery_prob: 0.15,
        est_error_sigma: 0.7,
        fanout_log10: (0.5, 1.2),
    });
    out.push(Template {
        name: "problem_inventory_blowup".into(),
        class: TemplateClass::Problem,
        weight: 1.2,
        fact: "inventory".into(),
        extra_facts: vec![(
            "store_sales".into(),
            "inv_item_sk".into(),
            "ss_item_sk".into(),
        )],
        dims: owned_dims("inventory"),
        dim_range: (1, 3),
        driving_sel_log10: Some((-1.5, -0.1)),
        extra_preds: (0, 1),
        nonequi_prob: 0.1,
        group_by: (1, 4),
        agg: (1, 4),
        order_by: (0, 2),
        subquery_prob: 0.1,
        est_error_sigma: 0.6,
        fanout_log10: (0.3, 0.9),
    });
    out.push(Template {
        name: "problem_skew_misestimate".into(),
        class: TemplateClass::Problem,
        weight: 0.8,
        fact: "store_sales".into(),
        extra_facts: vec![(
            "store_returns".into(),
            "ss_ticket_number".into(),
            "sr_ticket_number".into(),
        )],
        dims: owned_dims("store_sales"),
        dim_range: (1, 4),
        driving_sel_log10: Some((-4.0, -0.2)),
        extra_preds: (2, 5),
        nonequi_prob: 0.0,
        group_by: (1, 5),
        agg: (2, 6),
        order_by: (1, 3),
        subquery_prob: 0.3,
        est_error_sigma: 0.9,
        fanout_log10: (-0.2, 0.8),
    });
    out.push(Template {
        name: "problem_full_history".into(),
        class: TemplateClass::Problem,
        weight: 0.6,
        fact: "catalog_sales".into(),
        extra_facts: vec![(
            "web_sales".into(),
            "cs_bill_customer_sk".into(),
            "ws_bill_customer_sk".into(),
        )],
        dims: owned_dims("catalog_sales"),
        dim_range: (1, 3),
        driving_sel_log10: None, // full history scan, no date restriction
        extra_preds: (0, 1),
        nonequi_prob: 0.1,
        group_by: (2, 5),
        agg: (2, 5),
        order_by: (1, 2),
        subquery_prob: 0.25,
        est_error_sigma: 0.6,
        // Customer-key joins between channels: the handful of very
        // active customers dominate, inflating output 15-250x.
        fanout_log10: (1.2, 2.4),
    });
    // Dedicated long-running report templates, modeled on the nightly
    // rollups the paper's system administrators supplied: their typical
    // (not extreme) instantiation runs for tens of minutes to hours, so
    // the golf/bowling pools contain dense clusters of similar queries.
    out.push(Template {
        name: "problem_nightly_rollup".into(),
        class: TemplateClass::Problem,
        weight: 1.0,
        fact: "inventory".into(),
        extra_facts: vec![(
            "store_sales".into(),
            "inv_item_sk".into(),
            "ss_item_sk".into(),
        )],
        dims: owned_dims("inventory"),
        dim_range: (1, 2),
        driving_sel_log10: Some((-0.55, -0.1)),
        extra_preds: (0, 1),
        nonequi_prob: 0.0,
        group_by: (1, 3),
        agg: (1, 3),
        order_by: (0, 1),
        subquery_prob: 0.05,
        est_error_sigma: 0.3,
        fanout_log10: (0.5, 0.72),
    });
    out.push(Template {
        name: "problem_weekly_reconcile".into(),
        class: TemplateClass::Problem,
        weight: 1.0,
        fact: "store_sales".into(),
        extra_facts: vec![(
            "catalog_sales".into(),
            "ss_item_sk".into(),
            "cs_item_sk".into(),
        )],
        dims: owned_dims("store_sales"),
        dim_range: (1, 2),
        driving_sel_log10: Some((-0.8, -0.2)),
        extra_preds: (0, 1),
        nonequi_prob: 0.0,
        group_by: (1, 3),
        agg: (1, 3),
        order_by: (0, 1),
        subquery_prob: 0.05,
        est_error_sigma: 0.3,
        fanout_log10: (0.25, 0.5),
    });
    out.push(Template {
        name: "problem_wide_sort".into(),
        class: TemplateClass::Problem,
        weight: 0.6,
        fact: "store_sales".into(),
        extra_facts: vec![],
        dims: owned_dims("store_sales"),
        dim_range: (2, 5),
        driving_sel_log10: Some((-1.2, -0.01)),
        extra_preds: (0, 2),
        nonequi_prob: 0.0,
        group_by: (0, 1),
        agg: (0, 2),
        order_by: (3, 6),
        subquery_prob: 0.1,
        est_error_sigma: 0.5,
        fanout_log10: (0.0, 0.0),
    });

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn suite_has_all_classes() {
        let suite = tpcds_suite();
        assert!(suite.len() >= 25, "got {}", suite.len());
        for class in [
            TemplateClass::Reporting,
            TemplateClass::AdHoc,
            TemplateClass::CrossFact,
            TemplateClass::Problem,
        ] {
            assert!(suite.iter().any(|t| t.class == class), "{class:?} missing");
        }
    }

    #[test]
    fn every_template_instantiates_validly() {
        let schema = Schema::tpcds(1.0);
        let mut rng = StdRng::seed_from_u64(7);
        for t in tpcds_suite() {
            for k in 0..20 {
                let q = t.instantiate(&schema, k, &mut rng);
                assert_eq!(q.validate(), Ok(()), "template {}", t.name);
                // All referenced tables exist in the schema.
                for tbl in &q.tables {
                    assert!(schema.table(tbl).is_some(), "missing table {tbl}");
                }
            }
        }
    }

    #[test]
    fn instantiation_is_deterministic_under_seed() {
        let schema = Schema::tpcds(1.0);
        let t = &tpcds_suite()[0];
        let a = t.instantiate(&schema, 1, &mut StdRng::seed_from_u64(42));
        let b = t.instantiate(&schema, 1, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    fn same_template_varies_constants_not_shape() {
        // The Fig. 8 premise: shape (SQL-text features) can coincide while
        // selectivities differ by orders of magnitude.
        let schema = Schema::tpcds(1.0);
        let t = tpcds_suite()
            .into_iter()
            .find(|t| t.class == TemplateClass::AdHoc)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let sels: Vec<f64> = (0..200)
            .map(|k| {
                let q = t.instantiate(&schema, k, &mut rng);
                q.predicates
                    .iter()
                    .map(|p| p.true_selectivity)
                    .product::<f64>()
            })
            .collect();
        let min = sels.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = sels.iter().cloned().fold(0.0, f64::max);
        assert!(
            max / min > 100.0,
            "selectivity products span {min:e}..{max:e}"
        );
    }

    #[test]
    fn box_muller_normal_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn log10_uniform_respects_range() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let v = log10_uniform(&mut rng, (-3.0, -1.0));
            assert!((1e-3 * 0.999..=1e-1 * 1.001).contains(&v));
        }
        // Degenerate range returns the endpoint.
        assert_eq!(log10_uniform(&mut rng, (0.0, 0.0)), 1.0);
    }
}
