//! Online prediction-error ledger, per query template and global.
//!
//! Every completed query whose answer came from the KCCA model yields a
//! `(prediction, observed)` pair. The ledger folds the pair's six
//! per-metric errors into a global count + sums and into the same for
//! the query's template, in a `BTreeMap` keyed by template name.
//!
//! It is plain data: [`crate::AdaptiveController`] keeps it in the
//! state its one mutex guards, folds with `&mut self` inside the
//! critical section `observe` enters anyway, and hands readers an
//! [`ErrorSnapshot`]. The sums are integers (micro-units), so a
//! template's mean does not depend on the order threads arrived in.

use qpp_engine::PerfMetrics;
use std::collections::BTreeMap;

/// Most templates tracked. Template names arrive from outside, so the
/// table is bounded: a pair whose template would be one more counts
/// globally and in [`ErrorSnapshot::dropped`] only; TPC-DS has far
/// fewer distinct templates.
pub const TEMPLATE_SLOTS: usize = 64;

/// Fixed-point scale for error-sum accumulators: errors are summed as
/// integer micro-units so accumulation is exact and order-independent
/// (a float sum would round differently per arrival order).
const ERR_SCALE: f64 = 1e6;

/// Errors are clamped to this before accumulation so one absurd pair
/// cannot saturate a mean. ln-ratio 64 is astronomically wrong already.
pub(crate) const ERR_CLAMP: f64 = 64.0;

/// Additive shift inside the log-ratio so zero-valued metrics (common
/// for disk I/O on cached runs) stay well-defined.
const EPS: f64 = 1e-3;

/// Per-metric absolute log-ratio errors of one `(predicted, observed)`
/// pair: `|ln((pred + ε) / (obs + ε))|`, canonical metric order.
///
/// Scale-free (a 2× miss scores the same on 1 s as on 100 s) and
/// symmetric (over- and under-prediction score alike), matching the
/// paper's relative-accuracy framing.
pub fn log_ratio_errors(
    predicted: &PerfMetrics,
    observed: &PerfMetrics,
) -> [f64; PerfMetrics::DIM] {
    [
        one_error(predicted.elapsed_seconds, observed.elapsed_seconds),
        one_error(predicted.disk_ios, observed.disk_ios),
        one_error(predicted.message_count, observed.message_count),
        one_error(predicted.message_bytes, observed.message_bytes),
        one_error(predicted.records_accessed, observed.records_accessed),
        one_error(predicted.records_used, observed.records_used),
    ]
}

fn one_error(predicted: f64, observed: f64) -> f64 {
    let p = if predicted.is_finite() && predicted > 0.0 {
        predicted
    } else {
        0.0
    };
    let o = if observed.is_finite() && observed > 0.0 {
        observed
    } else {
        0.0
    };
    ((p + EPS) / (o + EPS)).ln().abs().min(ERR_CLAMP)
}

/// Mean of the six per-metric errors (explicit loop: ordered, exact
/// iteration order regardless of thread count).
pub fn mean_error(errors: &[f64; PerfMetrics::DIM]) -> f64 {
    let mut sum = 0.0;
    for e in errors {
        sum += e;
    }
    sum / PerfMetrics::DIM as f64
}

/// Pairs folded and their fixed-point (micro-unit) per-metric error sums.
#[derive(Debug, Default)]
struct Sums {
    count: u64,
    err_sum: [u64; PerfMetrics::DIM],
}

impl Sums {
    fn add(&mut self, errors: &[f64; PerfMetrics::DIM]) {
        self.count += 1;
        for (sum, e) in self.err_sum.iter_mut().zip(errors) {
            *sum += (*e * ERR_SCALE) as u64;
        }
    }

    /// Per-metric means, all 0.0 before any pair.
    fn means(&self) -> [f64; PerfMetrics::DIM] {
        let mut mean = [0.0; PerfMetrics::DIM];
        if self.count > 0 {
            for (m, sum) in mean.iter_mut().zip(&self.err_sum) {
                *m = *sum as f64 / ERR_SCALE / self.count as f64;
            }
        }
        mean
    }
}

/// Streaming error sums over completed queries.
#[derive(Debug, Default)]
pub(crate) struct ErrorTracker {
    templates: BTreeMap<String, Sums>,
    /// All pairs, including those of dropped templates.
    global: Sums,
    /// Pairs whose template found the table full.
    dropped: u64,
}

/// Per-template snapshot row.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateErrors {
    /// Template name as recorded.
    pub template: String,
    /// Pairs recorded for this template.
    pub count: u64,
    /// Mean per-metric absolute log-ratio errors.
    pub mean: [f64; PerfMetrics::DIM],
    /// Mean of the six per-metric means.
    pub overall: f64,
}

/// What the ledger held at one instant
/// ([`crate::AdaptiveController::error_snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorSnapshot {
    /// Pairs recorded in total (all templates, including dropped ones).
    pub observations: u64,
    /// Pairs dropped from the per-template view because the table
    /// already held [`TEMPLATE_SLOTS`] other templates.
    pub dropped: u64,
    /// Global mean absolute log-ratio error per metric (canonical
    /// order), 0.0 before any observation.
    pub global_mean: [f64; PerfMetrics::DIM],
    /// Per-template rows, sorted by template name.
    pub templates: Vec<TemplateErrors>,
}

impl ErrorTracker {
    /// Folds the [`log_ratio_errors`] of one completed query in. The
    /// only allocation is the name copy the first time a template is
    /// seen.
    pub(crate) fn record(&mut self, template: &str, errors: &[f64; PerfMetrics::DIM]) {
        self.global.add(errors);
        if let Some(sums) = self.templates.get_mut(template) {
            sums.add(errors);
        } else if self.templates.len() < TEMPLATE_SLOTS {
            let mut sums = Sums::default();
            sums.add(errors);
            self.templates.insert(template.to_string(), sums);
        } else {
            self.dropped += 1;
        }
    }

    pub(crate) fn snapshot(&self) -> ErrorSnapshot {
        ErrorSnapshot {
            observations: self.global.count,
            dropped: self.dropped,
            global_mean: self.global.means(),
            templates: self
                .templates
                .iter()
                .map(|(template, sums)| {
                    let mean = sums.means();
                    TemplateErrors {
                        template: template.clone(),
                        count: sums.count,
                        overall: mean_error(&mean),
                        mean,
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(scale: f64) -> PerfMetrics {
        PerfMetrics {
            elapsed_seconds: 2.0 * scale,
            disk_ios: 100.0 * scale,
            message_count: 10.0 * scale,
            message_bytes: 4096.0 * scale,
            records_accessed: 1000.0 * scale,
            records_used: 50.0 * scale,
        }
    }

    fn record(t: &mut ErrorTracker, template: &str, predicted_scale: f64) {
        t.record(
            template,
            &log_ratio_errors(&metrics(predicted_scale), &metrics(1.0)),
        );
    }

    #[test]
    fn perfect_predictions_have_zero_error() {
        let errs = log_ratio_errors(&metrics(1.0), &metrics(1.0));
        assert!(errs.iter().all(|e| e.abs() < 1e-3), "{errs:?}");
        let mut t = ErrorTracker::default();
        t.record("q1", &errs);
        let snapshot = t.snapshot();
        assert_eq!(snapshot.observations, 1);
        assert!(snapshot.global_mean[0] < 1e-3);
    }

    #[test]
    fn log_ratio_error_is_symmetric_and_scale_free() {
        let over = log_ratio_errors(&metrics(2.0), &metrics(1.0));
        let under = log_ratio_errors(&metrics(1.0), &metrics(2.0));
        for i in 0..PerfMetrics::DIM {
            assert!(
                (over[i] - under[i]).abs() < 1e-6,
                "metric {i}: over {} under {}",
                over[i],
                under[i]
            );
        }
        // A 2x miss scores ~ln 2 on every metric (± the ε shift).
        assert!((over[0] - 2f64.ln()).abs() < 0.01, "{}", over[0]);
    }

    #[test]
    fn zero_valued_metrics_are_well_defined() {
        let errs = log_ratio_errors(&PerfMetrics::zero(), &PerfMetrics::zero());
        assert!(errs.iter().all(|e| *e == 0.0));
        let errs = log_ratio_errors(&metrics(1.0), &PerfMetrics::zero());
        assert!(errs.iter().all(|e| e.is_finite()));
    }

    #[test]
    fn per_template_means_are_tracked_separately() {
        let mut t = ErrorTracker::default();
        for _ in 0..4 {
            record(&mut t, "good", 1.0);
            record(&mut t, "bad", 3.0);
        }
        let rows = t.snapshot().templates;
        assert_eq!(rows.len(), 2);
        // Sorted by name: "bad" first.
        assert_eq!(rows[0].template, "bad");
        assert_eq!(rows[0].count, 4);
        assert!(rows[0].overall > 0.5, "{}", rows[0].overall);
        assert_eq!(rows[1].template, "good");
        assert!(rows[1].overall < 1e-3, "{}", rows[1].overall);
    }

    #[test]
    fn table_overflow_drops_instead_of_blocking() {
        let mut t = ErrorTracker::default();
        for i in 0..(TEMPLATE_SLOTS + 10) {
            record(&mut t, &format!("template_{i}"), 1.0);
        }
        // A template that got its row before the table filled still counts.
        record(&mut t, "template_0", 1.0);
        let snapshot = t.snapshot();
        assert_eq!(snapshot.dropped, 10);
        assert_eq!(snapshot.observations as usize, TEMPLATE_SLOTS + 11);
        assert_eq!(snapshot.templates.len(), TEMPLATE_SLOTS);
    }
}
