//! Prediction-quality metrics.

use qpp_linalg::vector;

/// The paper's *predictive risk* (§VI-C):
///
/// ```text
/// 1 - Σ (predictedᵢ - actualᵢ)² / Σ (actualᵢ - mean(actual))²
/// ```
///
/// Like R², but computed on held-out test points, so values can be
/// negative (worse than predicting the training mean). 1.0 is perfect.
pub fn predictive_risk(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "length mismatch");
    assert!(!actual.is_empty(), "empty input");
    let mean = vector::sum(actual) / actual.len() as f64;
    let ss_res = vector::sum_iter(
        predicted
            .iter()
            .zip(actual.iter())
            .map(|(&p, &a)| (p - a) * (p - a)),
    );
    let ss_tot = vector::sum_iter(actual.iter().map(|&a| (a - mean) * (a - mean)));
    if ss_tot <= 0.0 {
        // Constant actuals: perfect iff residuals vanish.
        return if ss_res == 0.0 {
            1.0
        } else {
            f64::NEG_INFINITY
        };
    }
    1.0 - ss_res / ss_tot
}

/// Fraction of predictions within `tolerance` *relative* error of the
/// actual value — the paper's headline "within 20% of actual for 85% of
/// test queries" statistic.
pub fn fraction_within(predicted: &[f64], actual: &[f64], tolerance: f64) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "length mismatch");
    if actual.is_empty() {
        return 0.0;
    }
    let hits = predicted
        .iter()
        .zip(actual.iter())
        .filter(|(&p, &a)| {
            let denom = a.abs().max(1e-12);
            ((p - a).abs() / denom) <= tolerance
        })
        .count();
    hits as f64 / actual.len() as f64
}

/// Predictive risk after dropping the `drop_worst` largest squared
/// residuals — the paper repeatedly reports "removing the furthest
/// outlier increased the predictive risk to …".
pub fn predictive_risk_dropping_outliers(
    predicted: &[f64],
    actual: &[f64],
    drop_worst: usize,
) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "length mismatch");
    let mut pairs: Vec<(f64, f64)> = predicted
        .iter()
        .zip(actual.iter())
        .map(|(&p, &a)| (p, a))
        .collect();
    pairs.sort_by(|x, y| {
        let rx = (x.0 - x.1) * (x.0 - x.1);
        let ry = (y.0 - y.1) * (y.0 - y.1);
        rx.partial_cmp(&ry).unwrap_or(std::cmp::Ordering::Equal)
    });
    let keep = pairs.len().saturating_sub(drop_worst).max(1);
    let (p, a): (Vec<f64>, Vec<f64>) = pairs[..keep].iter().cloned().unzip();
    predictive_risk(&p, &a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_scores_one() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(predictive_risk(&a, &a), 1.0);
    }

    #[test]
    fn mean_prediction_scores_zero() {
        let actual = [1.0, 2.0, 3.0];
        let pred = [2.0, 2.0, 2.0];
        assert!(predictive_risk(&pred, &actual).abs() < 1e-12);
    }

    #[test]
    fn bad_prediction_goes_negative() {
        let actual = [1.0, 2.0, 3.0];
        let pred = [30.0, -10.0, 99.0];
        assert!(predictive_risk(&pred, &actual) < 0.0);
    }

    #[test]
    fn constant_actuals_edge_case() {
        assert_eq!(predictive_risk(&[5.0, 5.0], &[5.0, 5.0]), 1.0);
        assert_eq!(predictive_risk(&[5.0, 6.0], &[5.0, 5.0]), f64::NEG_INFINITY);
    }

    #[test]
    fn fraction_within_counts_relative_errors() {
        let actual = [100.0, 100.0, 100.0, 100.0];
        let pred = [110.0, 125.0, 95.0, 81.0];
        // Within 20%: 110 (10%), 95 (5%), 81 (19%) → 3/4.
        assert!((fraction_within(&pred, &actual, 0.2) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn dropping_outliers_improves_risk() {
        let actual = [1.0, 2.0, 3.0, 4.0, 1000.0];
        let pred = [1.0, 2.0, 3.0, 4.0, 5.0];
        let full = predictive_risk(&pred, &actual);
        let trimmed = predictive_risk_dropping_outliers(&pred, &actual, 1);
        assert!(trimmed > full);
        assert!((trimmed - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        predictive_risk(&[1.0], &[1.0, 2.0]);
    }
}
