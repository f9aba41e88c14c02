//! Everything a run derives from `--seed`: the training set, the live
//! queries, the order they are requested in and the arrival schedule. The
//! program under test only ever sees the generated `QuerySpec`/`Plan` pairs.

use qpp_core::pipeline::collect_tpcds;
use qpp_core::Dataset;
use qpp_engine::SystemConfig;

/// Queries in the live set every workload draws its requests from.
pub const LIVE_QUERIES: usize = 1000;

/// Offsets added to `--seed` so the four seeded streams are independent.
const LIVE_SEED_OFFSET: u64 = 64;
const ORDER_SEED_OFFSET: u64 = 128;
const SCHEDULE_SEED_OFFSET: u64 = 192;

/// SplitMix64: a small, well-mixed generator whose whole state is the seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn next_open01(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// `n` training queries executed on the paper's 4-node configuration.
pub fn training_set(n: usize, seed: u64) -> Dataset {
    collect_tpcds(
        n,
        seed,
        &SystemConfig::neoview_4(),
        qpp_par::current_threads(),
    )
}

/// The held-out queries requests are drawn from; their simulated metrics are
/// the truth predictions are scored against.
pub fn live_set(seed: u64) -> Dataset {
    training_set(LIVE_QUERIES, seed + LIVE_SEED_OFFSET)
}

/// The endless sequence of live-set indices requests are made in.
#[derive(Debug, Clone)]
pub struct RequestOrder {
    rng: SplitMix64,
    live: usize,
}

impl RequestOrder {
    pub fn new(seed: u64, live: usize) -> Self {
        assert!(live > 0, "the live set is not empty");
        RequestOrder {
            rng: SplitMix64::new(seed + ORDER_SEED_OFFSET),
            live,
        }
    }
}

impl Iterator for RequestOrder {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        Some((self.rng.next_u64() % self.live as u64) as usize)
    }
}

/// Due times, in nanoseconds from the start of the run, of a Poisson
/// arrival process of `rate_per_s` requests per second over `seconds`.
pub fn arrival_schedule(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed + SCHEDULE_SEED_OFFSET);
    let end_ns = seconds * 1e9;
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut due = Vec::with_capacity((rate_per_s * seconds * 1.05) as usize);
    let mut t = 0.0f64;
    loop {
        t += -rng.next_open01().ln() * mean_gap_ns;
        if t >= end_ns {
            return due;
        }
        due.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_the_same_schedule_and_order() {
        assert_eq!(
            arrival_schedule(29, 4000.0, 0.5),
            arrival_schedule(29, 4000.0, 0.5)
        );
        let a: Vec<usize> = RequestOrder::new(29, 1000).take(500).collect();
        let b: Vec<usize> = RequestOrder::new(29, 1000).take(500).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_schedules_and_orders() {
        assert_ne!(
            arrival_schedule(29, 4000.0, 0.5),
            arrival_schedule(30, 4000.0, 0.5)
        );
        let a: Vec<usize> = RequestOrder::new(29, 1000).take(500).collect();
        let b: Vec<usize> = RequestOrder::new(30, 1000).take(500).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn the_schedule_is_ascending_inside_the_run_and_close_to_the_rate() {
        let due = arrival_schedule(7, 4000.0, 2.0);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(*due.last().unwrap() < 2_000_000_000);
        // 8000 expected, standard deviation ~ 89.
        assert!((7500..8500).contains(&due.len()), "{} arrivals", due.len());
    }

    #[test]
    fn the_order_stays_inside_the_live_set_and_is_not_the_schedule_stream() {
        assert!(RequestOrder::new(3, 17).take(1000).all(|i| i < 17));
        // Same --seed, separate streams: the order must not be a function
        // of the inter-arrival draws.
        let mut order_rng = SplitMix64::new(29 + ORDER_SEED_OFFSET);
        let mut schedule_rng = SplitMix64::new(29 + SCHEDULE_SEED_OFFSET);
        assert_ne!(order_rng.next_u64(), schedule_rng.next_u64());
    }
}
