//! The six performance metrics the paper predicts.

/// Measured performance of one query execution — exactly the paper's
/// performance feature vector (§VI-D): "elapsed time, disk I/Os, message
/// count, message bytes, records accessed (the input cardinality of the
/// file scan operator) and records used (the output cardinality of the
/// file scan operator)".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfMetrics {
    /// Wall-clock elapsed time, seconds.
    pub elapsed_seconds: f64,
    /// Number of disk I/O operations.
    pub disk_ios: f64,
    /// Number of interconnect messages.
    pub message_count: f64,
    /// Interconnect bytes moved.
    pub message_bytes: f64,
    /// Σ input cardinality over file-scan operators.
    pub records_accessed: f64,
    /// Σ output cardinality over file-scan operators.
    pub records_used: f64,
}

impl PerfMetrics {
    /// Number of metrics (the performance vector dimensionality).
    pub const DIM: usize = 6;

    /// Metric names in vector order.
    pub const NAMES: [&'static str; 6] = [
        "elapsed_time",
        "disk_io",
        "message_count",
        "message_bytes",
        "records_accessed",
        "records_used",
    ];

    /// Zeroed metrics.
    pub fn zero() -> Self {
        PerfMetrics {
            elapsed_seconds: 0.0,
            disk_ios: 0.0,
            message_count: 0.0,
            message_bytes: 0.0,
            records_accessed: 0.0,
            records_used: 0.0,
        }
    }

    /// As an array in canonical order (matches [`PerfMetrics::NAMES`]).
    pub fn to_array(&self) -> [f64; Self::DIM] {
        [
            self.elapsed_seconds,
            self.disk_ios,
            self.message_count,
            self.message_bytes,
            self.records_accessed,
            self.records_used,
        ]
    }

    /// [`PerfMetrics::to_array`] as a vector.
    pub fn to_vec(&self) -> Vec<f64> {
        self.to_array().to_vec()
    }

    /// Rebuilds from a canonical-order vector.
    pub fn from_vec(v: &[f64]) -> Self {
        assert_eq!(v.len(), Self::DIM, "performance vector must have 6 entries");
        PerfMetrics {
            elapsed_seconds: v[0],
            disk_ios: v[1],
            message_count: v[2],
            message_bytes: v[3],
            records_accessed: v[4],
            records_used: v[5],
        }
    }

    /// All entries finite and non-negative.
    pub fn is_valid(&self) -> bool {
        self.to_array().iter().all(|x| x.is_finite() && *x >= 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_round_trip() {
        let m = PerfMetrics {
            elapsed_seconds: 1.5,
            disk_ios: 10.0,
            message_count: 100.0,
            message_bytes: 1e6,
            records_accessed: 5e6,
            records_used: 2e4,
        };
        assert_eq!(PerfMetrics::from_vec(&m.to_vec()), m);
    }

    #[test]
    fn zero_is_valid() {
        assert!(PerfMetrics::zero().is_valid());
    }

    #[test]
    fn nan_is_invalid() {
        let mut m = PerfMetrics::zero();
        m.elapsed_seconds = f64::NAN;
        assert!(!m.is_valid());
        let mut m2 = PerfMetrics::zero();
        m2.disk_ios = -1.0;
        assert!(!m2.is_valid());
    }

    #[test]
    #[should_panic(expected = "6 entries")]
    fn from_vec_checks_len() {
        PerfMetrics::from_vec(&[1.0, 2.0]);
    }
}
