//! Query runtime categories (paper Fig. 2).
//!
//! The paper sorts queries by elapsed time into **feathers** (< 3 min),
//! **golf balls** (3–30 min) and **bowling balls** (30 min – 2 h), with
//! **wrecking balls** beyond that excluded from the pools. The
//! boundaries are arbitrary — the paper stresses its approach does not
//! depend on them — but they organize the experiments and the two-step
//! predictor.

use qpp_linalg::vector;

/// Runtime class of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryCategory {
    /// Under 3 minutes.
    Feather,
    /// 3 to 30 minutes.
    GolfBall,
    /// 30 minutes to 2 hours.
    BowlingBall,
    /// Over 2 hours ("too long to be bowling balls").
    WreckingBall,
}

impl QueryCategory {
    /// Feather/golf boundary, seconds.
    pub const FEATHER_MAX: f64 = 180.0;
    /// Golf/bowling boundary, seconds.
    pub const GOLF_MAX: f64 = 1800.0;
    /// Bowling/wrecking boundary, seconds.
    pub const BOWLING_MAX: f64 = 7200.0;

    /// Categorizes an elapsed time in seconds.
    pub fn of(elapsed_seconds: f64) -> Self {
        if elapsed_seconds < Self::FEATHER_MAX {
            QueryCategory::Feather
        } else if elapsed_seconds < Self::GOLF_MAX {
            QueryCategory::GolfBall
        } else if elapsed_seconds < Self::BOWLING_MAX {
            QueryCategory::BowlingBall
        } else {
            QueryCategory::WreckingBall
        }
    }

    /// Display name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            QueryCategory::Feather => "feather",
            QueryCategory::GolfBall => "golf ball",
            QueryCategory::BowlingBall => "bowling ball",
            QueryCategory::WreckingBall => "wrecking ball",
        }
    }

    /// The three pool categories (wrecking balls are excluded from
    /// training/test pools, as in the paper).
    pub const POOLED: [QueryCategory; 3] = [
        QueryCategory::Feather,
        QueryCategory::GolfBall,
        QueryCategory::BowlingBall,
    ];
}

/// Summary row of a category pool (the Fig. 2 table).
#[derive(Debug, Clone)]
pub struct PoolSummary {
    /// Category.
    pub category: QueryCategory,
    /// Number of query instances in the pool.
    pub instances: usize,
    /// Mean elapsed seconds.
    pub mean_elapsed: f64,
    /// Minimum elapsed seconds.
    pub min_elapsed: f64,
    /// Maximum elapsed seconds.
    pub max_elapsed: f64,
}

/// Builds the Fig. 2 summary for a set of elapsed times.
pub fn summarize_pools(elapsed: &[f64]) -> Vec<PoolSummary> {
    QueryCategory::POOLED
        .iter()
        .map(|&category| {
            let times: Vec<f64> = elapsed
                .iter()
                .copied()
                .filter(|&t| QueryCategory::of(t) == category)
                .collect();
            let instances = times.len();
            let (mean, min, max) = if times.is_empty() {
                (0.0, 0.0, 0.0)
            } else {
                let sum = vector::sum(&times);
                let min = vector::min_iter(f64::INFINITY, times.iter().copied());
                let max = vector::max_iter(0.0, times.iter().copied());
                (sum / instances as f64, min, max)
            };
            PoolSummary {
                category,
                instances,
                mean_elapsed: mean,
                min_elapsed: min,
                max_elapsed: max,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_match_paper() {
        assert_eq!(QueryCategory::of(0.1), QueryCategory::Feather);
        assert_eq!(QueryCategory::of(179.9), QueryCategory::Feather);
        assert_eq!(QueryCategory::of(180.0), QueryCategory::GolfBall);
        assert_eq!(QueryCategory::of(1799.0), QueryCategory::GolfBall);
        assert_eq!(QueryCategory::of(1800.0), QueryCategory::BowlingBall);
        assert_eq!(QueryCategory::of(7199.0), QueryCategory::BowlingBall);
        assert_eq!(QueryCategory::of(7200.0), QueryCategory::WreckingBall);
    }

    #[test]
    fn pool_summary_aggregates() {
        let elapsed = vec![10.0, 20.0, 200.0, 2000.0, 9000.0];
        let pools = summarize_pools(&elapsed);
        assert_eq!(pools.len(), 3);
        let feather = &pools[0];
        assert_eq!(feather.instances, 2);
        assert_eq!(feather.mean_elapsed, 15.0);
        assert_eq!(feather.min_elapsed, 10.0);
        assert_eq!(feather.max_elapsed, 20.0);
        // Wrecking ball (9000 s) appears in no pool.
        let total: usize = pools.iter().map(|p| p.instances).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn empty_category_is_zeroed() {
        let pools = summarize_pools(&[1.0]);
        assert_eq!(pools[1].instances, 0);
        assert_eq!(pools[1].mean_elapsed, 0.0);
    }
}
