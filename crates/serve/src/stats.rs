//! Service statistics: one set of service-wide [`qpp_obs::Counter`]s.
//!
//! Every accepted request whose answer is waited on ends in exactly one
//! of `completed`, `fallbacks` or `failed`. Latency is not aggregated
//! here: each [`crate::ServeResponse`] carries its exact `latency` and
//! the trace carries the admission, queue-wait and worker spans, so a
//! caller that wants percentiles computes them from those.

use qpp_obs::Counter;

/// Live counters for a running prediction service.
///
/// All fields are lock-free: workers and clients update them without
/// any shared lock, and [`ServiceStats::snapshot`] reads a
/// consistent-enough view for monitoring (individual counters are
/// exact; cross-counter skew is bounded by in-flight requests).
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Requests accepted into the queue.
    pub submitted: Counter,
    /// Worker answers handed to the caller, counted in
    /// `PendingPrediction::wait` before it returns. An answer whose
    /// `PendingPrediction` is dropped unread is not counted.
    pub completed: Counter,
    /// Requests answered client-side by the cost-model fallback after
    /// the per-request deadline expired.
    pub fallbacks: Counter,
    /// Worker errors handed to the caller (a plan the model cannot
    /// predict, a model uninstalled mid-flight), counted where
    /// `completed` is.
    pub failed: Counter,
    /// Submissions rejected because the queue was full.
    pub rejected_full: Counter,
    /// Submissions rejected because their tenant was over its admission
    /// quota.
    pub rejected_quota: Counter,
    /// Worker answers that arrived after the client had already fallen
    /// back (wasted work; the client saw exactly one answer).
    pub late_answers: Counter,
    /// Admission-gateway outcomes across all answered requests.
    pub admitted: Counter,
    /// Requests the policy rejected (predicted over a resource limit).
    pub policy_rejected: Counter,
    /// Requests flagged for human review (low prediction confidence).
    pub review_required: Counter,
    /// Micro-batches drained by workers.
    pub batches: Counter,
    /// Requests carried by those batches (mean batch size = this /
    /// `batches`).
    pub batched_requests: Counter,
    /// Largest queue depth observed at submission time.
    pub max_queue_depth: Counter,
    /// Executed-query outcomes reported back through
    /// `observe_completion` (the adaptation feedback loop's input).
    pub observed_completions: Counter,
    /// Requests answered by a worker from the optimizer-cost baseline
    /// because the installed entry was kill-switch demoted (distinct
    /// from `fallbacks`, which count client-side deadline misses).
    pub degraded_answers: Counter,
}

impl ServiceStats {
    /// Records a drained micro-batch of `len` requests.
    pub fn record_batch(&self, len: usize) {
        self.batches.incr();
        self.batched_requests.add(len as u64);
    }

    /// Raises the max-depth watermark to at least `depth`.
    pub fn observe_queue_depth(&self, depth: usize) {
        self.max_queue_depth.observe_max(depth as u64);
    }

    /// An immutable view of the counters plus the mean batch size;
    /// the queue depth and the registry's swap and demotion counts are
    /// their owners' to report, so the caller passes them in.
    pub fn snapshot(
        &self,
        queue_depth: usize,
        model_swaps: u64,
        model_demotions: u64,
    ) -> StatsSnapshot {
        let batches = self.batches.get();
        let batched = self.batched_requests.get();
        StatsSnapshot {
            submitted: self.submitted.get(),
            completed: self.completed.get(),
            fallbacks: self.fallbacks.get(),
            failed: self.failed.get(),
            late_answers: self.late_answers.get(),
            rejected_queue_full: self.rejected_full.get(),
            rejected_quota: self.rejected_quota.get(),
            admitted: self.admitted.get(),
            policy_rejected: self.policy_rejected.get(),
            review_required: self.review_required.get(),
            queue_depth,
            max_queue_depth: self.max_queue_depth.get(),
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                batched as f64 / batches as f64
            },
            model_swaps,
            model_demotions,
            observed_completions: self.observed_completions.get(),
            degraded_answers: self.degraded_answers.get(),
        }
    }
}

/// Point-in-time statistics view.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Worker answers handed to the caller (see
    /// [`ServiceStats::completed`]).
    pub completed: u64,
    /// Requests answered by the deadline fallback.
    pub fallbacks: u64,
    /// Worker errors handed to the caller. Once every accepted request
    /// has been waited on, `completed + fallbacks + failed ==
    /// submitted`.
    pub failed: u64,
    /// Worker answers that arrived after a client fallback.
    pub late_answers: u64,
    /// Submissions rejected because the queue was full.
    pub rejected_queue_full: u64,
    /// Submissions rejected because a tenant was over quota.
    pub rejected_quota: u64,
    /// Gateway outcome counts.
    pub admitted: u64,
    /// Requests the admission policy rejected.
    pub policy_rejected: u64,
    /// Requests flagged for review.
    pub review_required: u64,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
    /// Highest queue depth observed.
    pub max_queue_depth: u64,
    /// Mean micro-batch size drained by workers.
    pub mean_batch_size: f64,
    /// Model hot-swaps performed.
    pub model_swaps: u64,
    /// Kill-switch demotions performed.
    pub model_demotions: u64,
    /// Executed-query outcomes fed back via `observe_completion`.
    pub observed_completions: u64,
    /// Worker answers served from the baseline due to a demoted entry.
    pub degraded_answers: u64,
}

impl StatsSnapshot {
    /// The snapshot's service-wide counts as JSON lines, one
    /// `{"counter":<field name>,"value":…}` object each, in field order;
    /// the serving examples append them to their trace dumps.
    pub fn counters_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, value) in [
            ("submitted", self.submitted),
            ("completed", self.completed),
            ("fallbacks", self.fallbacks),
            ("failed", self.failed),
            ("late_answers", self.late_answers),
            ("rejected_queue_full", self.rejected_queue_full),
            ("rejected_quota", self.rejected_quota),
            ("admitted", self.admitted),
            ("policy_rejected", self.policy_rejected),
            ("review_required", self.review_required),
            ("max_queue_depth", self.max_queue_depth),
            ("model_swaps", self.model_swaps),
            ("model_demotions", self.model_demotions),
            ("observed_completions", self.observed_completions),
            ("degraded_answers", self.degraded_answers),
        ] {
            out.push_str(&format!("{{\"counter\":\"{name}\",\"value\":{value}}}\n"));
        }
        out
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "submitted {} | completed {} | fallbacks {} | failed {} | late {}",
            self.submitted, self.completed, self.fallbacks, self.failed, self.late_answers,
        )?;
        writeln!(
            f,
            "queue: depth {} (max {}) | rejected-full {} | rejected-quota {} | mean batch {:.2}",
            self.queue_depth,
            self.max_queue_depth,
            self.rejected_queue_full,
            self.rejected_quota,
            self.mean_batch_size,
        )?;
        writeln!(
            f,
            "gateway: admitted {} | rejected {} | review {}",
            self.admitted, self.policy_rejected, self.review_required,
        )?;
        write!(
            f,
            "adapt: observed {} | degraded answers {} | model swaps {} | demotions {}",
            self.observed_completions,
            self.degraded_answers,
            self.model_swaps,
            self.model_demotions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_and_depth_accounting() {
        let stats = ServiceStats::default();
        stats.record_batch(4);
        stats.record_batch(8);
        stats.observe_queue_depth(3);
        stats.observe_queue_depth(7);
        stats.observe_queue_depth(2);
        let snap = stats.snapshot(1, 0, 0);
        assert!((snap.mean_batch_size - 6.0).abs() < 1e-12);
        assert_eq!(snap.max_queue_depth, 7);
        assert_eq!(snap.queue_depth, 1);
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let snap = ServiceStats::default().snapshot(0, 0, 0);
        assert_eq!(snap.mean_batch_size, 0.0);
    }

    #[test]
    fn display_is_total() {
        let stats = ServiceStats::default();
        let text = format!("{}", stats.snapshot(2, 3, 1));
        assert!(text.contains("model swaps 3"));
        assert!(text.contains("demotions 1"));
    }

    #[test]
    fn counters_jsonl_names_every_ledger_count() {
        let stats = ServiceStats::default();
        stats.submitted.add(24);
        stats.completed.add(12);
        stats.failed.add(2);
        stats.rejected_quota.incr();
        stats.rejected_full.incr();
        let snap = stats.snapshot(0, 0, 0);
        assert_eq!(snap.submitted, 24);
        assert_eq!(snap.completed, 12);
        assert_eq!(snap.failed, 2);
        assert_eq!(snap.rejected_quota, 1);
        assert_eq!(snap.rejected_queue_full, 1);
        // The dump lines carry the same totals under the field names.
        let jsonl = snap.counters_jsonl();
        assert_eq!(jsonl.lines().count(), 15);
        for line in [
            "{\"counter\":\"submitted\",\"value\":24}",
            "{\"counter\":\"rejected_quota\",\"value\":1}",
            "{\"counter\":\"fallbacks\",\"value\":0}",
            "{\"counter\":\"failed\",\"value\":2}",
        ] {
            assert!(jsonl.contains(line), "{line} missing from {jsonl}");
        }
        assert!(format!("{snap}").contains("failed 2"));
    }
}
