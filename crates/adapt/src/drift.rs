//! Deterministic drift detection over prediction-error streams.
//!
//! Each completed query whose answer came from the KCCA model yields a
//! `(prediction, observed)` pair; [`log_ratio_errors`] turns it into six
//! per-metric errors, and the detector reads those errors and nothing
//! else.
//!
//! One Page–Hinkley test per metric stream (the six paper metrics plus
//! a seventh "overall" stream, the mean of the six), gated by a
//! windowed mean-ratio check so slow noise accumulation alone cannot
//! fire. Both tests are driven purely by the error values and the
//! caller-supplied epoch (observation count) — no wall clock anywhere,
//! so a replay of the same error sequence drifts at the same epoch on
//! any machine.
//!
//! Page–Hinkley: a calibration mean `μ₀` and standard deviation `σ₀`
//! are frozen over the first `warmup` samples; each later sample `x`
//! accumulates the *normalized* deviation
//! `mₜ = mₜ₋₁ + ((x − μ₀)/σ₀ − δ)` (δ = `DELTA`); the test statistic is
//! `mₜ − min(m)`, which stays bounded (the `−δ` drift pulls a
//! stationary walk down faster than its `±1σ` steps push it up) and
//! grows linearly once the mean shifts up by more than `δ·σ₀`.
//! Normalizing by `σ₀` matters: per-query log-ratio errors are *noisy*
//! (σ near the mean itself for KCCA predictions), and a fixed absolute
//! slack is either deaf on quiet streams or alarm-happy on loud ones.
//! Drift is declared when the statistic exceeds λ = `LAMBDA` *and*
//! the mean of the last `window` samples exceeds `μ₀ · MIN_RATIO`.

use qpp_engine::PerfMetrics;
use std::collections::VecDeque;

/// Index of the synthetic "overall" stream (mean of the six metric
/// errors) in [`DriftDetector`]; metric streams are `0..6`.
pub const OVERALL: usize = PerfMetrics::DIM;

/// Streams tracked: six metrics + overall.
pub const STREAMS: usize = PerfMetrics::DIM + 1;

/// Page–Hinkley slack `δ` in calibration-σ units: mean shifts smaller
/// than `δ·σ₀` never accumulate.
const DELTA: f64 = 0.25;

/// Page–Hinkley threshold `λ` on the normalized test statistic. A mean
/// shift of `Δ·σ₀` fires after about `λ/(Δ−δ)` samples.
const LAMBDA: f64 = 8.0;

/// Recent mean must exceed `μ₀ ·` this for drift to be declared.
const MIN_RATIO: f64 = 1.4;

/// Errors are clamped to this so one absurd pair cannot saturate a
/// mean. ln-ratio 64 is astronomically wrong already.
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

/// Drift-detection tunables.
#[derive(Debug, Clone, Copy)]
pub struct DriftConfig {
    /// Samples used to freeze the calibration mean `μ₀` and std `σ₀`.
    pub warmup: usize,
    /// Recent-window length for the mean-ratio gate.
    /// [`DriftDetector::new`] clamps it to at least 1: an empty window
    /// has a mean of 0 and would never pass the gate.
    pub window: usize,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            warmup: 40,
            window: 16,
        }
    }
}

/// Page–Hinkley + mean-ratio state for one stream.
#[derive(Debug, Clone)]
struct StreamState {
    n: u64,
    calib_sum: f64,
    calib_sumsq: f64,
    mean0: f64,
    sigma0: f64,
    calibrated: bool,
    recent: VecDeque<f64>,
    recent_sum: f64,
    mh: f64,
    min_mh: f64,
}

impl StreamState {
    fn new(window: usize) -> StreamState {
        StreamState {
            n: 0,
            calib_sum: 0.0,
            calib_sumsq: 0.0,
            mean0: 0.0,
            sigma0: 1.0,
            calibrated: false,
            recent: VecDeque::with_capacity(window),
            recent_sum: 0.0,
            mh: 0.0,
            min_mh: 0.0,
        }
    }

    fn push_recent(&mut self, x: f64, window: usize) {
        self.recent.push_back(x);
        self.recent_sum += x;
        while self.recent.len() > window {
            if let Some(old) = self.recent.pop_front() {
                self.recent_sum -= old;
            }
        }
    }

    fn recent_mean(&self) -> f64 {
        if self.recent.is_empty() {
            0.0
        } else {
            self.recent_sum / self.recent.len() as f64
        }
    }

    fn score(&self) -> f64 {
        self.mh - self.min_mh
    }

    /// Feeds one sample; returns `Some(score)` when past warmup and
    /// both tests agree the mean has shifted up.
    fn observe(&mut self, x: f64, cfg: &DriftConfig) -> Option<f64> {
        self.n += 1;
        self.push_recent(x, cfg.window);
        if !self.calibrated {
            self.calib_sum += x;
            self.calib_sumsq += x * x;
            if self.n as usize >= cfg.warmup {
                self.mean0 = self.calib_sum / self.n as f64;
                let variance =
                    (self.calib_sumsq / self.n as f64 - self.mean0 * self.mean0).max(0.0);
                // Floors: a near-constant calibration stream must not
                // divide deviations by ~zero (5% of the mean, with an
                // absolute backstop for a near-zero mean).
                self.sigma0 = variance.sqrt().max(0.05 * self.mean0).max(1e-6);
                self.calibrated = true;
            }
            return None;
        }
        self.mh += (x - self.mean0) / self.sigma0 - DELTA;
        if self.mh < self.min_mh {
            self.min_mh = self.mh;
        }
        let score = self.score();
        if score > LAMBDA && self.recent_mean() > self.ratio_floor() {
            Some(score)
        } else {
            None
        }
    }

    fn ratio_floor(&self) -> f64 {
        // A tiny absolute floor keeps near-zero calibration means (a
        // near-perfect model) from declaring drift on harmless noise.
        (self.mean0 * MIN_RATIO).max(0.01)
    }
}

/// A declared drift on one stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSignal {
    /// Caller-supplied epoch (observation count) at declaration.
    pub epoch: u64,
    /// Stream index: `0..6` = canonical metric, [`OVERALL`] = mean;
    /// [`stream_name`] names it.
    pub metric: usize,
    /// Page–Hinkley statistic at declaration.
    pub score: f64,
    /// Recent-window mean error at declaration.
    pub recent_mean: f64,
    /// Frozen calibration mean error.
    pub calibration_mean: f64,
}

/// Per-metric drift detectors over the error streams produced by
/// [`log_ratio_errors`].
#[derive(Debug, Clone)]
pub struct DriftDetector {
    cfg: DriftConfig,
    streams: [StreamState; STREAMS],
}

impl DriftDetector {
    /// Creates calibrating detectors for all streams.
    pub fn new(cfg: DriftConfig) -> DriftDetector {
        let cfg = DriftConfig {
            window: cfg.window.max(1),
            ..cfg
        };
        DriftDetector {
            cfg,
            streams: std::array::from_fn(|_| StreamState::new(cfg.window)),
        }
    }

    /// Feeds the per-metric errors of one completed query. Returns the
    /// first stream (lowest index) declaring drift this epoch, if any —
    /// deterministic for a deterministic error sequence.
    pub fn observe(&mut self, epoch: u64, errors: &[f64; PerfMetrics::DIM]) -> Option<DriftSignal> {
        let overall = mean_error(errors);
        let mut fired: Option<DriftSignal> = None;
        for (i, stream) in self.streams.iter_mut().enumerate() {
            let x = if i == OVERALL { overall } else { errors[i] };
            if let Some(score) = stream.observe(x, &self.cfg) {
                if fired.is_none() {
                    fired = Some(DriftSignal {
                        epoch,
                        metric: i,
                        score,
                        recent_mean: stream.recent_mean(),
                        calibration_mean: stream.mean0,
                    });
                }
            }
        }
        fired
    }

    /// Recent-window mean of a stream (index `0..6` or [`OVERALL`]).
    pub fn recent_mean(&self, stream: usize) -> f64 {
        self.streams[stream].recent_mean()
    }

    /// Frozen calibration mean of a stream (0.0 while calibrating).
    pub fn calibration_mean(&self, stream: usize) -> f64 {
        self.streams[stream].mean0
    }

    /// Current Page–Hinkley statistic of a stream.
    pub fn score(&self, stream: usize) -> f64 {
        self.streams[stream].score()
    }

    /// True once every stream has frozen its calibration mean.
    pub fn calibrated(&self) -> bool {
        self.streams.iter().all(|s| s.calibrated)
    }

    /// Discards all state and recalibrates from scratch — called after
    /// a model swap (the error distribution changed by design) and
    /// after a rejected candidate (re-baseline on the new normal
    /// instead of alarming forever).
    pub fn reset(&mut self) {
        self.streams = std::array::from_fn(|_| StreamState::new(self.cfg.window));
    }
}

/// Stream display name: the canonical metric names plus "overall".
pub fn stream_name(stream: usize) -> &'static str {
    if stream == OVERALL {
        "overall"
    } else {
        PerfMetrics::NAMES[stream]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn errs(v: f64) -> [f64; PerfMetrics::DIM] {
        [v; PerfMetrics::DIM]
    }

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

    #[test]
    fn perfect_predictions_have_zero_error() {
        let errs = log_ratio_errors(&metrics(1.0), &metrics(1.0));
        assert!(errs.iter().all(|e| e.abs() < 1e-3), "{errs:?}");
        assert!(mean_error(&errs) < 1e-3);
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
    fn no_drift_before_warmup() {
        let mut d = DriftDetector::new(DriftConfig::default());
        for epoch in 0..40 {
            assert!(d.observe(epoch, &errs(5.0)).is_none(), "epoch {epoch}");
        }
        assert!(d.calibrated());
    }

    #[test]
    fn stationary_stream_stays_quiet() {
        let cfg = DriftConfig::default();
        let mut d = DriftDetector::new(cfg);
        let mut rng = StdRng::seed_from_u64(9);
        for epoch in 0..2000 {
            let e = 0.4 + rng.random_range(-0.1..0.1);
            assert!(
                d.observe(epoch, &errs(e)).is_none(),
                "false positive at {epoch}"
            );
        }
    }

    #[test]
    fn mean_shift_is_detected_and_attributed() {
        let cfg = DriftConfig::default();
        let mut d = DriftDetector::new(cfg);
        let mut rng = StdRng::seed_from_u64(10);
        for epoch in 0..cfg.warmup as u64 {
            let e = 0.3 + rng.random_range(-0.05..0.05);
            // Shift only metric 0: attribution must name it.
            let mut v = errs(e);
            v[0] = e;
            assert!(d.observe(epoch, &v).is_none());
        }
        let mut fired = None;
        for epoch in 0..200u64 {
            let e = 0.3 + rng.random_range(-0.05..0.05);
            let mut v = errs(e);
            v[0] = e + 0.9; // metric 0 drifts 4x
            if let Some(sig) = d.observe(cfg.warmup as u64 + epoch, &v) {
                fired = Some(sig);
                break;
            }
        }
        let sig = fired.expect("drift must be detected");
        assert_eq!(sig.metric, 0, "first drifted stream is metric 0");
        assert_eq!(stream_name(sig.metric), "elapsed_time");
        assert!(sig.score > LAMBDA);
        assert!(sig.recent_mean > sig.calibration_mean * MIN_RATIO);
    }

    #[test]
    fn detection_is_deterministic_in_the_epoch() {
        let run = |window: usize| {
            let cfg = DriftConfig {
                window,
                ..DriftConfig::default()
            };
            let mut d = DriftDetector::new(cfg);
            for epoch in 0..300u64 {
                let e = if epoch < 60 { 0.3 } else { 1.2 };
                if let Some(sig) = d.observe(epoch, &errs(e)) {
                    return Some(sig.epoch);
                }
            }
            None
        };
        let a = run(16).expect("detects");
        let b = run(16).expect("detects");
        assert_eq!(a, b, "same sequence must drift at the same epoch");
        // A zero window is clamped to one: an empty window's mean of 0
        // never passed the ratio gate, so drift was never declared.
        let one = run(1).expect("a one-sample window detects");
        assert_eq!(run(0), Some(one), "window 0 drifts as window 1 does");
    }

    #[test]
    fn reset_recalibrates_from_scratch() {
        let cfg = DriftConfig::default();
        let mut d = DriftDetector::new(cfg);
        for epoch in 0..60u64 {
            d.observe(epoch, &errs(0.3));
        }
        // Force drift.
        let mut fired = false;
        for epoch in 60..160u64 {
            if d.observe(epoch, &errs(1.5)).is_some() {
                fired = true;
                break;
            }
        }
        assert!(fired);
        d.reset();
        assert!(!d.calibrated());
        // The high errors are the new normal after reset: quiet.
        for epoch in 0..500u64 {
            assert!(d.observe(epoch, &errs(1.5)).is_none(), "epoch {epoch}");
        }
    }

    /// Satellite property test: across 500 seeded stationary runs the
    /// detector produces at most a bounded handful of false positives.
    #[test]
    fn property_stationary_false_positive_rate_is_bounded() {
        let cfg = DriftConfig::default();
        let mut false_positives = 0;
        for seed in 0..500u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut d = DriftDetector::new(cfg);
            let base: f64 = 0.2 + rng.random_range(0.0..0.4);
            let noise: f64 = 0.05 + rng.random_range(0.0..0.1);
            let mut run_fired = false;
            for epoch in 0..400u64 {
                let mut v = [0.0; PerfMetrics::DIM];
                for slot in v.iter_mut() {
                    *slot = (base + rng.random_range(-noise..noise)).max(0.0);
                }
                if d.observe(epoch, &v).is_some() {
                    run_fired = true;
                    break;
                }
            }
            if run_fired {
                false_positives += 1;
            }
        }
        assert!(
            false_positives <= 5,
            "{false_positives}/500 stationary runs declared drift"
        );
    }
}
