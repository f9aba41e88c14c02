//! Metric primitives: lock-free counters and the log-spaced latency
//! histogram (with quantile estimation) shared by every layer.
//!
//! These used to live as ad-hoc `AtomicU64` fields and a private
//! histogram inside `qpp-serve`'s stats; they are hoisted here so the
//! serving stats, the global recorder, and any future subsystem count
//! things the same way — and so the quantile edge conventions are
//! fixed in exactly one place.

use std::sync::atomic::{AtomicU64, Ordering};

/// A lock-free monotonic (or watermark) counter.
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds 1.
    pub fn incr(&self) {
        // ordering: pure statistic; nothing is published through it.
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        // ordering: pure statistic; nothing is published through it.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the value to at least `v` (high-watermark semantics).
    pub fn observe_max(&self, v: u64) {
        // ordering: monotone max; readers tolerate any interleaving.
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: any recent value is acceptable for a statistic.
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Counter {
        Counter::new()
    }
}

/// Histogram bucket count. Bucket `i` holds samples in
/// `[2^i, 2^(i+1))` microseconds; the last bucket is open-ended.
pub const BUCKETS: usize = 26; // 1 µs .. ~33 s

/// A lock-free log2-spaced histogram over microsecond-scale values.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    /// A zeroed histogram.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }

    /// Records one sample (microseconds; 0 is clamped into bucket 0).
    pub fn record(&self, value_us: u64) {
        let v = value_us.max(1);
        let bucket = (63 - v.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed); // ordering: statistical counter
    }

    /// Per-bucket counts (a racy-but-monotone snapshot).
    pub fn counts(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (o, b) in out.iter_mut().zip(self.buckets.iter()) {
            *o = b.load(Ordering::Relaxed); // ordering: racy-but-monotone snapshot by contract
        }
        out
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        let counts = self.counts();
        counts.iter().sum::<u64>()
    }

    /// Estimated quantile `q` of the recorded samples.
    pub fn quantile(&self, q: f64) -> LatencyQuantile {
        quantile_of(&self.counts(), q)
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// A latency quantile estimated from the log-spaced histogram.
///
/// When `saturated` is false the true quantile is `<= bound_us`, with
/// `bound_us` the *inclusive* upper edge (`2^(i+1) - 1`) of the bucket
/// the quantile fell in. When it is true the sample landed in the
/// open-ended last bucket and only a lower bound is known: the quantile
/// is `>= bound_us`, possibly far beyond it. Reporting code must not
/// present a saturated bound as a finite upper bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyQuantile {
    /// Bucket bound, microseconds. Inclusive upper bound unless
    /// `saturated`, then a lower bound.
    pub bound_us: u64,
    /// True when the quantile fell in the open-ended last bucket.
    pub saturated: bool,
}

impl LatencyQuantile {
    fn finite(bound_us: u64) -> LatencyQuantile {
        LatencyQuantile {
            bound_us,
            saturated: false,
        }
    }

    fn saturated() -> LatencyQuantile {
        LatencyQuantile {
            bound_us: 1u64 << (BUCKETS - 1),
            saturated: true,
        }
    }
}

impl std::fmt::Display for LatencyQuantile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}{}",
            if self.saturated { ">=" } else { "<=" },
            self.bound_us
        )
    }
}

/// Bound (µs) of the histogram bucket containing quantile `q` of
/// `counts` (log2-spaced, [`BUCKETS`] buckets, last one open-ended).
///
/// Conventions, fixed here once:
///
/// * The rank is floored at 1 sample: `q = 0.0` means "the smallest
///   recorded sample's bucket", never an empty bucket 0. (The old serve
///   implementation computed rank 0, which every bucket — including an
///   empty one — trivially satisfied, so `quantile(h, 0.0)` reported a
///   finite `<= 2` µs even when no sample was below a second.)
/// * Finite bounds are *inclusive* upper edges, `2^(i+1) - 1`, matching
///   the `<=` the Display impl prints. (The old code returned the
///   exclusive edge `2^(i+1)` while printing `<=`.)
/// * A quantile landing in the open-ended last bucket is returned as
///   saturated at the bucket's lower edge; only a lower bound is known.
/// * An empty histogram reports a finite 0 (nothing recorded).
///
/// Monotone in `q` by construction: a larger `q` can only move the
/// rank, hence the bucket index, hence the bound, upward (saturated
/// compares above every finite bound).
pub fn quantile_of(counts: &[u64], q: f64) -> LatencyQuantile {
    let total = counts.iter().sum::<u64>();
    if total == 0 {
        return LatencyQuantile::finite(0);
    }
    let rank = (((total as f64) * q).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for (i, &count) in counts.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return if i == BUCKETS - 1 {
                LatencyQuantile::saturated()
            } else {
                LatencyQuantile::finite((1u64 << (i + 1)) - 1)
            };
        }
    }
    LatencyQuantile::saturated()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.observe_max(3);
        assert_eq!(c.get(), 5);
        c.observe_max(9);
        assert_eq!(c.get(), 9);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::new();
        h.record(0); // clamped into bucket 0
        h.record(1);
        h.record(1023);
        h.record(1024);
        let counts = h.counts();
        assert_eq!(counts[0], 2);
        assert_eq!(counts[9], 1); // [512, 1024)
        assert_eq!(counts[10], 1); // [1024, 2048)
        assert_eq!(h.total(), 4);
    }

    /// Regression for the q=0 bug: with bucket 0 empty, `quantile(0.0)`
    /// used to compute rank 0 and report bucket 0's finite bound even
    /// though nothing was recorded there.
    #[test]
    fn quantile_zero_skips_empty_leading_buckets() {
        let mut counts = [0u64; BUCKETS];
        counts[5] = 7; // all samples in [32, 64)
        let q0 = quantile_of(&counts, 0.0);
        assert!(!q0.saturated);
        assert_eq!(q0.bound_us, (1 << 6) - 1, "bucket 5 inclusive edge");
        // And the whole q range agrees when there is only one bucket.
        assert_eq!(quantile_of(&counts, 1.0), q0);
    }

    /// Finite bounds are inclusive: a bucket holding values up to
    /// `2^(i+1) - 1` must not claim `<= 2^(i+1)`.
    #[test]
    fn finite_bound_is_inclusive_upper_edge() {
        let h = Histogram::new();
        h.record(1023); // bucket 9 = [512, 1024)
        let q = h.quantile(0.5);
        assert_eq!(q.bound_us, 1023);
        assert!(!q.saturated);
        assert_eq!(format!("{q}"), "<=1023");
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), LatencyQuantile::finite(0));
        }
    }

    #[test]
    fn last_bucket_is_saturated_lower_bound() {
        let mut counts = [0u64; BUCKETS];
        counts[BUCKETS - 1] = 1;
        let q = quantile_of(&counts, 0.99);
        assert!(q.saturated);
        assert_eq!(q.bound_us, 1u64 << (BUCKETS - 1));
        assert_eq!(format!("{q}"), ">=33554432");
    }

    /// Ordering key that places saturated bounds above every finite
    /// bound (saturated 2^25 means ">= 33.5 s", beyond any finite
    /// `<= 2^25 - 1`).
    fn order_key(q: LatencyQuantile) -> (bool, u64) {
        (q.saturated, q.bound_us)
    }

    /// Property: quantile is monotone in `q` over random histograms.
    /// Hand-rolled xorshift generator keeps qpp-obs dependency-free.
    #[test]
    fn quantile_is_monotone_in_q_over_random_histograms() {
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let qs = [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
        for _case in 0..500 {
            let mut counts = [0u64; BUCKETS];
            let populated = (next() % BUCKETS as u64) as usize;
            for _ in 0..populated {
                let bucket = (next() % BUCKETS as u64) as usize;
                counts[bucket] = next() % 1000;
            }
            let mut prev: Option<LatencyQuantile> = None;
            for &q in &qs {
                let cur = quantile_of(&counts, q);
                if let Some(p) = prev {
                    assert!(
                        order_key(p) <= order_key(cur),
                        "quantile not monotone: q grid {qs:?}, counts {counts:?}, {p:?} then {cur:?}"
                    );
                }
                prev = Some(cur);
            }
        }
    }
}
