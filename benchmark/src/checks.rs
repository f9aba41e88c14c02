//! Output checks shared by the workloads.

use qpp_core::pipeline::evaluate;
use qpp_core::{Dataset, KccaPredictor, Prediction};

/// Whether two predictions are the same bit for bit: the six metrics, the
/// neighbour ids and both confidence signals.
pub fn same_prediction(a: &Prediction, b: &Prediction) -> bool {
    let bits = |p: &Prediction| -> Vec<u64> {
        p.metrics
            .to_vec()
            .iter()
            .chain([&p.confidence_distance, &p.max_kernel_similarity])
            .map(|v| v.to_bits())
            .collect()
    };
    bits(a) == bits(b) && a.neighbor_indices == b.neighbor_indices
}

/// Share of the held-out queries whose predicted elapsed time is within 20%
/// of the simulated truth, with the batched predictions it was scored on.
pub fn elapsed_within_20pct(model: &KccaPredictor, live: &Dataset) -> (f64, Vec<Prediction>) {
    let predictions = model
        .predict_dataset(live)
        .expect("held-out queries predict");
    let share = evaluate(&predictions, live).elapsed_within_20pct;
    (share, predictions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpp_core::NeighborIds;
    use qpp_engine::PerfMetrics;

    fn prediction(elapsed: f64, neighbors: &[usize]) -> Prediction {
        Prediction {
            metrics: PerfMetrics {
                elapsed_seconds: elapsed,
                ..PerfMetrics::zero()
            },
            neighbor_indices: neighbors.iter().copied().collect::<NeighborIds>(),
            confidence_distance: 0.25,
            max_kernel_similarity: 0.9,
        }
    }

    #[test]
    fn predictions_differing_in_one_bit_or_one_neighbour_are_not_the_same() {
        let a = prediction(1.0, &[1, 2, 3]);
        assert!(same_prediction(&a, &prediction(1.0, &[1, 2, 3])));
        assert!(!same_prediction(
            &a,
            &prediction(1.0 + f64::EPSILON, &[1, 2, 3])
        ));
        assert!(!same_prediction(&a, &prediction(1.0, &[1, 2, 4])));
        // -0.0 == 0.0 as numbers, but not as answers of the same code path.
        assert!(!same_prediction(
            &prediction(0.0, &[1]),
            &prediction(-0.0, &[1])
        ));
    }
}
