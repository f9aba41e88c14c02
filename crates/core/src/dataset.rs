//! Dataset collection: run workloads through the engine, keep
//! `(query, plan, measured metrics)` records.

use crate::categories::QueryCategory;
use crate::features::{feature_dim, performance_to_kernel_space, query_features_to, FeatureKind};
use qpp_engine::{execute, optimize, Catalog, OptimizedQuery, PerfMetrics, SystemConfig};
use qpp_linalg::Matrix;
use qpp_workload::{QuerySpec, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One executed training/test query.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// The logical query.
    pub spec: QuerySpec,
    /// The optimizer's output (plan + cost + annotations).
    pub optimized: OptimizedQuery,
    /// Measured performance.
    pub metrics: PerfMetrics,
    /// Runtime category of the measured elapsed time.
    pub category: QueryCategory,
}

/// A collection of executed queries on one system configuration.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Configuration the queries ran on.
    pub config: SystemConfig,
    /// Schema the queries ran against.
    pub schema: Schema,
    /// Executed queries.
    pub records: Vec<QueryRecord>,
}

impl Dataset {
    /// Optimizes and executes `queries` on `config`, in parallel on at
    /// most `threads` `qpp-par` workers (the caller included). Record
    /// order matches input order regardless of worker count.
    pub fn collect(
        schema: &Schema,
        queries: Vec<QuerySpec>,
        config: &SystemConfig,
        threads: usize,
    ) -> Dataset {
        let catalog = Catalog::new(schema.clone());
        let workers = threads.max(1).min(qpp_par::current_threads());
        let records = qpp_par::with_threads(workers, || {
            qpp_par::parallel_map(&queries, 1, |spec| {
                run_query(spec.clone(), &catalog, schema, config)
            })
        });
        Dataset {
            config: config.clone(),
            schema: schema.clone(),
            records,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Query feature matrix (one row per record), filled directly into
    /// one contiguous allocation.
    pub fn feature_matrix(&self, kind: FeatureKind) -> Matrix {
        let mut out = Matrix::zeros(self.len(), feature_dim(kind));
        for (i, r) in self.records.iter().enumerate() {
            query_features_to(kind, &r.spec, &r.optimized.plan, out.row_mut(i));
        }
        out
    }

    /// Raw performance matrix (`n x 6`, canonical metric order).
    pub fn performance_matrix(&self) -> Matrix {
        let mut out = Matrix::zeros(self.len(), PerfMetrics::DIM);
        for (i, r) in self.records.iter().enumerate() {
            out.row_mut(i).copy_from_slice(&r.metrics.to_array());
        }
        out
    }

    /// Log-space performance matrix for kernelization.
    pub fn kernel_performance_matrix(&self) -> Matrix {
        performance_to_kernel_space(&self.performance_matrix())
    }

    /// Elapsed times, seconds.
    pub fn elapsed(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.metrics.elapsed_seconds)
            .collect()
    }

    /// Subset by record indices (clones records).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            config: self.config.clone(),
            schema: self.schema.clone(),
            records: indices.iter().map(|&i| self.records[i].clone()).collect(),
        }
    }

    /// Records of one category.
    pub fn of_category(&self, category: QueryCategory) -> Vec<usize> {
        self.records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.category == category)
            .map(|(i, _)| i)
            .collect()
    }

    /// Draws disjoint train/test index sets with the requested per-
    /// category counts (the paper's pool sampling: e.g. 767 feathers /
    /// 230 golf balls / 30 bowling balls for training, 45/7/9 for test).
    ///
    /// Panics if a pool is too small to satisfy `train + test`.
    pub fn sample_pools(
        &self,
        train_counts: &[(QueryCategory, usize)],
        test_counts: &[(QueryCategory, usize)],
        seed: u64,
    ) -> (Vec<usize>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut train = Vec::new();
        let mut test = Vec::new();
        for &(cat, _) in train_counts {
            let mut pool = self.of_category(cat);
            // Deterministic Fisher-Yates shuffle.
            for i in (1..pool.len()).rev() {
                let j = rng.random_range(0..=i);
                pool.swap(i, j);
            }
            let want_train = train_counts
                .iter()
                .find(|(c, _)| *c == cat)
                .map(|(_, n)| *n)
                .unwrap_or(0);
            let want_test = test_counts
                .iter()
                .find(|(c, _)| *c == cat)
                .map(|(_, n)| *n)
                .unwrap_or(0);
            assert!(
                pool.len() >= want_train + want_test,
                "pool for {:?} has {} queries, need {}",
                cat,
                pool.len(),
                want_train + want_test
            );
            train.extend_from_slice(&pool[..want_train]);
            test.extend_from_slice(&pool[want_train..want_train + want_test]);
        }
        (train, test)
    }
}

fn run_query(
    spec: QuerySpec,
    catalog: &Catalog,
    schema: &Schema,
    config: &SystemConfig,
) -> QueryRecord {
    let optimized = optimize(&spec, catalog, config);
    let outcome = execute(&spec, &optimized, schema, config);
    QueryRecord {
        category: QueryCategory::of(outcome.metrics.elapsed_seconds),
        metrics: outcome.metrics,
        optimized,
        spec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpp_workload::WorkloadGenerator;

    fn small_dataset(n: usize, seed: u64) -> Dataset {
        let schema = Schema::tpcds(1.0);
        let mut g = WorkloadGenerator::tpcds(1.0, seed);
        Dataset::collect(&schema, g.generate(n), &SystemConfig::neoview_4(), 3)
    }

    #[test]
    fn collect_preserves_order_and_determinism() {
        let a = small_dataset(30, 5);
        let b = small_dataset(30, 5);
        assert_eq!(a.len(), 30);
        for (ra, rb) in a.records.iter().zip(b.records.iter()) {
            assert_eq!(ra.spec.id, rb.spec.id);
            assert_eq!(ra.metrics, rb.metrics);
        }
        // Ids in input order.
        for (i, r) in a.records.iter().enumerate() {
            assert_eq!(r.spec.id, i as u64);
        }
    }

    #[test]
    fn matrices_have_consistent_shapes() {
        let d = small_dataset(20, 9);
        let x = d.feature_matrix(FeatureKind::QueryPlan);
        let y = d.performance_matrix();
        assert_eq!(x.rows(), 20);
        assert_eq!(y.shape(), (20, PerfMetrics::DIM));
        let yk = d.kernel_performance_matrix();
        assert_eq!(yk.shape(), y.shape());
        // Log space compresses: all kernel values are ≤ raw ones + 1.
        for i in 0..20 {
            for j in 0..PerfMetrics::DIM {
                assert!(yk[(i, j)] <= y[(i, j)] + 1.0);
            }
        }
    }

    #[test]
    fn subset_and_categories() {
        let d = small_dataset(25, 11);
        let feathers = d.of_category(QueryCategory::Feather);
        assert!(!feathers.is_empty());
        let sub = d.subset(&feathers);
        assert!(sub
            .records
            .iter()
            .all(|r| r.category == QueryCategory::Feather));
    }

    #[test]
    fn sample_pools_disjoint() {
        let d = small_dataset(40, 13);
        let n_feather = d.of_category(QueryCategory::Feather).len();
        assert!(n_feather >= 10, "need feathers for this test");
        let (train, test) = d.sample_pools(
            &[(QueryCategory::Feather, 6)],
            &[(QueryCategory::Feather, 3)],
            7,
        );
        assert_eq!(train.len(), 6);
        assert_eq!(test.len(), 3);
        for t in &test {
            assert!(!train.contains(t));
        }
    }

    #[test]
    #[should_panic(expected = "pool for")]
    fn sample_pools_panics_when_starved() {
        let d = small_dataset(10, 17);
        d.sample_pools(
            &[(QueryCategory::BowlingBall, 500)],
            &[(QueryCategory::BowlingBall, 500)],
            1,
        );
    }
}
