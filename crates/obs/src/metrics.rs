//! Metric primitives: the lock-free [`Counter`] every layer counts with.
//!
//! Latency has no aggregate here: each serve answer carries its exact
//! latency and the trace carries its spans, so percentiles are computed
//! by whoever holds the samples.

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
}
