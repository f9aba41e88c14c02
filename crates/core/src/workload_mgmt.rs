//! Workload management decisions driven by predictions (paper §I).
//!
//! "Should we run this query? If so, when? How long do we wait for it
//! to complete before deciding that something went wrong (so we should
//! kill it)?" — this module turns metric predictions into those
//! decisions: admission control against resource/deadline budgets, a
//! kill timeout derived from the predicted runtime, and anomaly
//! flagging from prediction confidence.

use crate::predictor::Prediction;

/// Admission policy limits.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionPolicy {
    /// Longest acceptable predicted runtime, seconds.
    pub max_elapsed_seconds: f64,
    /// Largest acceptable predicted message-byte volume (interconnect
    /// pressure proxy); `f64::INFINITY` disables the check.
    pub max_message_bytes: f64,
    /// Largest acceptable predicted disk I/O count.
    pub max_disk_ios: f64,
    /// Neighbor-distance threshold above which a prediction is deemed
    /// unreliable and the query is deferred for human review.
    pub confidence_distance_threshold: f64,
    /// Safety factor applied to the predicted runtime when deriving the
    /// kill timeout ("how long do we wait before killing it").
    pub kill_timeout_factor: f64,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            max_elapsed_seconds: 2.0 * 3600.0,
            max_message_bytes: f64::INFINITY,
            max_disk_ios: f64::INFINITY,
            confidence_distance_threshold: f64::INFINITY,
            kill_timeout_factor: 3.0,
        }
    }
}

/// Outcome of an admission decision.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionDecision {
    /// Run now; kill if it exceeds the embedded timeout (seconds).
    Admit {
        /// Kill deadline derived from the prediction.
        kill_timeout_seconds: f64,
    },
    /// Predicted to exceed a resource limit; reject or defer to an
    /// off-peak window.
    Reject {
        /// Which limit tripped.
        reason: String,
    },
    /// The model has not seen similar queries (large neighbor
    /// distance); a human should look before running.
    ReviewRequired {
        /// Observed neighbor distance.
        confidence_distance: f64,
    },
}

/// Decides admission for one predicted query.
pub fn decide(policy: &AdmissionPolicy, prediction: &Prediction) -> AdmissionDecision {
    if prediction.confidence_distance > policy.confidence_distance_threshold {
        return AdmissionDecision::ReviewRequired {
            confidence_distance: prediction.confidence_distance,
        };
    }
    let m = &prediction.metrics;
    if m.elapsed_seconds > policy.max_elapsed_seconds {
        return AdmissionDecision::Reject {
            reason: format!(
                "predicted elapsed {:.0}s exceeds limit {:.0}s",
                m.elapsed_seconds, policy.max_elapsed_seconds
            ),
        };
    }
    if m.message_bytes > policy.max_message_bytes {
        return AdmissionDecision::Reject {
            reason: format!(
                "predicted message volume {:.0}B exceeds limit {:.0}B",
                m.message_bytes, policy.max_message_bytes
            ),
        };
    }
    if m.disk_ios > policy.max_disk_ios {
        return AdmissionDecision::Reject {
            reason: format!(
                "predicted disk I/O {:.0} exceeds limit {:.0}",
                m.disk_ios, policy.max_disk_ios
            ),
        };
    }
    AdmissionDecision::Admit {
        kill_timeout_seconds: m.elapsed_seconds * policy.kill_timeout_factor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpp_engine::PerfMetrics;

    fn prediction(elapsed: f64, confidence: f64) -> Prediction {
        let mut m = PerfMetrics::zero();
        m.elapsed_seconds = elapsed;
        Prediction {
            metrics: m,
            neighbor_indices: vec![0, 1, 2].into_iter().collect(),
            confidence_distance: confidence,
            max_kernel_similarity: 1.0,
        }
    }

    #[test]
    fn admits_short_queries_with_timeout() {
        let d = decide(&AdmissionPolicy::default(), &prediction(60.0, 0.1));
        match d {
            AdmissionDecision::Admit {
                kill_timeout_seconds,
            } => assert!((kill_timeout_seconds - 180.0).abs() < 1e-9),
            other => panic!("expected admit, got {other:?}"),
        }
    }

    #[test]
    fn rejects_predicted_monsters() {
        let d = decide(&AdmissionPolicy::default(), &prediction(3.0 * 3600.0, 0.1));
        assert!(matches!(d, AdmissionDecision::Reject { .. }));
    }

    #[test]
    fn flags_low_confidence_for_review() {
        let policy = AdmissionPolicy {
            confidence_distance_threshold: 1.0,
            ..AdmissionPolicy::default()
        };
        let d = decide(&policy, &prediction(10.0, 5.0));
        assert!(matches!(d, AdmissionDecision::ReviewRequired { .. }));
    }

    #[test]
    fn resource_limits_trip() {
        let policy = AdmissionPolicy {
            max_disk_ios: 100.0,
            ..AdmissionPolicy::default()
        };
        let mut p = prediction(10.0, 0.1);
        p.metrics.disk_ios = 500.0;
        assert!(matches!(
            decide(&policy, &p),
            AdmissionDecision::Reject { .. }
        ));
    }
}
