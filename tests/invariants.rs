//! Cross-crate property tests: invariants that must hold for any
//! generated workload. Case `seed` of each runs alone from
//! `StdRng::seed_from_u64(seed)`.

use qpp::core::features::PlanFeatures;
use qpp::engine::{execute, optimize, Catalog, OpKind, SystemConfig};
use qpp::workload::{Schema, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cases of each property.
const CASES: u64 = 48;

/// Any generated query yields a well-formed plan and valid,
/// internally consistent metrics on any preset configuration.
#[test]
fn any_query_executes_validly() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let workload_seed = rng.random_range(0u64..10_000);
        let cpus_idx = rng.random_range(0usize..5);
        let config = match cpus_idx {
            0 => SystemConfig::neoview_4(),
            1 => SystemConfig::neoview_32(4),
            2 => SystemConfig::neoview_32(8),
            3 => SystemConfig::neoview_32(16),
            _ => SystemConfig::neoview_32(32),
        };
        let mut g = WorkloadGenerator::tpcds(1.0, workload_seed);
        let q = g.generate_one();
        assert_eq!(q.validate(), Ok(()), "seed {seed}");
        let schema = Schema::tpcds(1.0);
        let catalog = Catalog::new(schema.clone());
        let opt = optimize(&q, &catalog, &config);
        assert_eq!(opt.plan.validate(), Ok(()), "seed {seed}");
        assert!(opt.plan.optimizer_cost >= 1.0, "seed {seed}");
        let out = execute(&q, &opt, &schema, &config);
        assert!(out.metrics.is_valid(), "seed {seed}");
        assert!(
            out.metrics.elapsed_seconds >= config.startup_seconds * 0.5,
            "seed {seed}"
        );
        assert!(
            out.metrics.records_accessed >= out.metrics.records_used,
            "seed {seed}"
        );
        // Per-node truths are finite and positive.
        assert!(
            out.true_rows.iter().all(|r| r.is_finite() && *r >= 0.0),
            "seed {seed}"
        );
    }
}

/// Plan feature extraction is total and consistent with the plan.
#[test]
fn plan_features_consistent() {
    for seed in 0..CASES {
        let workload_seed = StdRng::seed_from_u64(seed).random_range(0u64..10_000);
        let config = SystemConfig::neoview_4();
        let mut g = WorkloadGenerator::tpcds(1.0, workload_seed);
        let q = g.generate_one();
        let catalog = Catalog::new(Schema::tpcds(1.0));
        let opt = optimize(&q, &catalog, &config);
        let f = PlanFeatures::from_plan(&opt.plan);
        let v = f.to_vec();
        assert_eq!(v.len(), PlanFeatures::DIM, "seed {seed}");
        assert!(v.iter().all(|x| x.is_finite()), "seed {seed}");
        let total_ops: f64 = f.counts.iter().sum();
        assert_eq!(total_ops as usize, opt.plan.nodes.len(), "seed {seed}");
        // Scan count = referenced tables + subquery inner scans.
        assert_eq!(
            f.counts[OpKind::FileScan.index()] as usize,
            q.tables.len() + q.subqueries.len(),
            "seed {seed}"
        );
    }
}

/// Drift scales elapsed time exactly linearly, leaving cardinality
/// metrics untouched (the executor invariant behind the OS-upgrade
/// simulation).
#[test]
fn drift_scales_elapsed_linearly() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let workload_seed = rng.random_range(0u64..5_000);
        let drift = rng.random_range(1.0f64..3.0);
        let schema = Schema::tpcds(1.0);
        let catalog = Catalog::new(schema.clone());
        let mut g = WorkloadGenerator::tpcds(1.0, workload_seed);
        let q = g.generate_one();
        let base = SystemConfig::neoview_4();
        let drifted = SystemConfig::neoview_4().with_drift(drift);
        let mb = execute(&q, &optimize(&q, &catalog, &base), &schema, &base).metrics;
        let md = execute(&q, &optimize(&q, &catalog, &drifted), &schema, &drifted).metrics;
        assert!(
            (md.elapsed_seconds / mb.elapsed_seconds - drift).abs() < 1e-6,
            "seed {seed}"
        );
        assert_eq!(mb.records_used, md.records_used, "seed {seed}");
        assert_eq!(mb.disk_ios, md.disk_ios, "seed {seed}");
    }
}

/// SQL rendering is total and the SQL-text feature vector matches
/// the structure it renders.
#[test]
fn sql_rendering_and_features_agree() {
    for seed in 0..CASES {
        let workload_seed = StdRng::seed_from_u64(seed).random_range(0u64..10_000);
        let mut g = WorkloadGenerator::tpcds(1.0, workload_seed);
        let q = g.generate_one();
        let sql = qpp::workload::sql::render(&q);
        assert!(sql.starts_with("SELECT"), "seed {seed}");
        let f = qpp::workload::SqlTextFeatures::from_spec(&q);
        // Every rendered subquery appears in the text.
        assert_eq!(
            sql.matches("(SELECT").count() as u32,
            f.nested_subqueries,
            "seed {seed}"
        );
        if f.sort_columns > 0 {
            assert!(sql.contains("ORDER BY"), "seed {seed}");
        }
    }
}
