//! Round statistics: quantiles, and the quiet-round summary every timing
//! of the benchmark is reported through.
//!
//! A run is a sequence of short equal rounds. Each timing is computed per
//! round and the reported value is the *quiet round*: the minimum over
//! rounds for a cost, the maximum for a rate. On the reference box (a
//! 2-vCPU VM on a shared host) other tenants slow some stretches of a run by
//! 30-80% and never speed one up, and the calm stretches last tens of
//! milliseconds; the quiet round is the number that repeats between runs
//! (see README.md for the measurements). The median and quartiles over
//! rounds are printed beside it.

/// Which direction is good for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Sorts a sample ascending. Panics on NaN: every sample here is a
/// measured duration or count.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Quantile `q` in `[0, 1]` of an ascending sample, by linear interpolation
/// between the two closest ranks. An empty sample has no quantile: 0.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = (sorted.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// The per-round values of one metric, reduced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rounds {
    /// The reported value: the best round.
    pub quiet: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub rounds: usize,
}

/// Reduces one value per round to the quiet round and the spread.
pub fn summarize(per_round: &[f64], better: Better) -> Rounds {
    let s = sorted(per_round.to_vec());
    let quiet = match better {
        Better::Lower => s.first(),
        Better::Higher => s.last(),
    };
    Rounds {
        quiet: quiet.copied().unwrap_or(0.0),
        median: quantile(&s, 0.5),
        q1: quantile(&s, 0.25),
        q3: quantile(&s, 0.75),
        rounds: s.len(),
    }
}

/// The three timings of a workload, one value each per round.
#[derive(Debug, Default)]
pub struct RoundSeries {
    ops: Vec<f64>,
    p50_us: Vec<f64>,
    cpu_us_per_op: Vec<f64>,
}

impl RoundSeries {
    /// Adds a round from the time each operation that completed in it took
    /// (nanoseconds; the vector is left empty) and the CPU seconds the
    /// process used during it.
    pub fn push(&mut self, op_ns: &mut Vec<f64>, cpu_s: f64) {
        let ops = op_ns.len() as f64;
        if ops > 0.0 {
            op_ns.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
            self.ops.push(ops);
            self.p50_us.push(quantile(op_ns, 0.5) / 1e3);
            self.cpu_us_per_op.push(cpu_s * 1e6 / ops);
        }
        op_ns.clear();
    }

    /// A series restricted to the rounds that completed at least half as
    /// many operations as the median round. When the host stalls the whole
    /// VM a round completes a handful of operations and next to no CPU time
    /// is charged to it; its ratios are accidents of attribution, and the
    /// minimum over rounds would pick exactly those.
    fn of_full_rounds(&self, series: &[f64]) -> Vec<f64> {
        let enough = median(&self.ops) / 2.0;
        series
            .iter()
            .zip(&self.ops)
            .filter(|(_, &ops)| ops >= enough)
            .map(|(&v, _)| v)
            .collect()
    }

    pub fn rounds(&self) -> usize {
        self.ops.len()
    }

    pub fn latency_p50_us(&self) -> Rounds {
        summarize(&self.of_full_rounds(&self.p50_us), Better::Lower)
    }

    pub fn cpu_us_per_op(&self) -> Rounds {
        summarize(&self.of_full_rounds(&self.cpu_us_per_op), Better::Lower)
    }

    /// Operations per second, for rounds `round_s` seconds long.
    pub fn throughput_rps(&self, round_s: f64) -> Rounds {
        let rates: Vec<f64> = self.ops.iter().map(|ops| ops / round_s).collect();
        summarize(&rates, Better::Higher)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&s, 0.0), 10.0);
        assert_eq!(quantile(&s, 1.0), 40.0);
        assert_eq!(quantile(&s, 0.5), 25.0);
        assert_eq!(quantile(&s, 0.25), 17.5);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quiet_round_is_min_for_costs_and_max_for_rates() {
        // Five rounds; the third was hit by a host stall.
        let latency = [33.0, 32.5, 47.0, 33.4, 34.1];
        let r = summarize(&latency, Better::Lower);
        assert_eq!(r.quiet, 32.5);
        assert_eq!(r.median, 33.4);
        assert_eq!(r.q1, 33.0);
        assert_eq!(r.q3, 34.1);
        assert_eq!(r.rounds, 5);

        let rate = [17_000.0, 17_300.0, 12_100.0, 16_900.0, 17_100.0];
        let r = summarize(&rate, Better::Higher);
        assert_eq!(r.quiet, 17_300.0);
        assert_eq!(r.median, 17_000.0);
    }

    #[test]
    fn a_stalled_round_cannot_be_the_quiet_round_of_a_cost() {
        let mut series = RoundSeries::default();
        // Three ordinary rounds: 100 operations of ~40 us, 4.2 ms of CPU.
        for shift in [0.0, 1.0, 2.0] {
            let mut op_ns: Vec<f64> = (0..100)
                .map(|i| 40_000.0 + shift * 1000.0 + i as f64)
                .collect();
            series.push(&mut op_ns, 0.0042);
            assert!(op_ns.is_empty());
        }
        // A round the VM was stalled through: three fast operations and
        // almost no CPU charged.
        series.push(&mut vec![20_000.0, 21_000.0, 22_000.0], 0.000_01);
        // A round nothing completed in leaves no trace.
        series.push(&mut Vec::new(), 0.001);
        assert_eq!(series.rounds(), 4);

        let latency = series.latency_p50_us();
        assert_eq!(latency.rounds, 3);
        assert!((latency.quiet - 40.0495).abs() < 1e-9, "{}", latency.quiet);
        assert!((series.cpu_us_per_op().quiet - 42.0).abs() < 1e-9);
        // Rates keep every round: a stalled round can only lose.
        let rate = series.throughput_rps(0.05);
        assert_eq!(rate.rounds, 4);
        assert_eq!(rate.quiet, 2000.0);
    }

    #[test]
    fn one_stalled_round_does_not_move_the_quiet_round() {
        let calm = [10.0, 10.1, 10.2, 10.3];
        let stalled = [10.0, 10.1, 10.2, 19.0];
        assert_eq!(
            summarize(&calm, Better::Lower).quiet,
            summarize(&stalled, Better::Lower).quiet
        );
    }
}
