//! KCCA-based job performance prediction — the database predictor
//! itself ([`KccaPredictor`]), with only the feature vectors swapped,
//! proving the paper's §VIII claim.

use crate::cluster::{run, ClusterConfig};
use crate::job::{JobOutcome, JobSpec};
use qpp_core::error::QppError;
use qpp_core::{KccaPredictor, PredictorOptions};
use qpp_linalg::{LinalgError, Matrix};
use serde::{Deserialize, Serialize};

/// A prediction for one job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobPrediction {
    /// Predicted outcome metrics.
    pub outcome: JobOutcome,
    /// Mean neighbor distance (confidence; small = trustworthy).
    pub confidence_distance: f64,
    /// Largest kernel similarity to any training pivot, in `(0, 1]`;
    /// near zero means the job is unlike everything trained on.
    pub max_kernel_similarity: f64,
}

/// KCCA predictor over MapReduce jobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobPredictor {
    model: KccaPredictor,
}

impl JobPredictor {
    /// Runs `jobs` on `cluster` (calibration) and trains the model, `k`
    /// neighbors per prediction.
    pub fn train(
        jobs: &[JobSpec],
        cluster: &ClusterConfig,
        k: usize,
    ) -> Result<(Self, Vec<JobOutcome>), QppError> {
        if jobs.len() < 8 {
            return Err(LinalgError::Empty("job training set").into());
        }
        let outcomes: Vec<JobOutcome> = jobs.iter().map(|j| run(j, cluster)).collect();
        let mut features = Matrix::zeros(jobs.len(), JobSpec::FEATURE_DIM);
        let mut performance = Matrix::zeros(jobs.len(), JobOutcome::DIM);
        for (i, (job, outcome)) in jobs.iter().zip(&outcomes).enumerate() {
            features.row_mut(i).copy_from_slice(&job.features());
            performance.row_mut(i).copy_from_slice(&outcome.to_vec());
        }
        let options = PredictorOptions {
            neighbors: k,
            ..PredictorOptions::default()
        };
        let model = KccaPredictor::fit(&features, performance, options)?;
        Ok((JobPredictor { model }, outcomes))
    }

    /// Predicts a job's outcome from its spec alone.
    pub fn predict(&self, job: &JobSpec) -> Result<JobPrediction, QppError> {
        let p = self.model.predict_features(&job.features())?;
        // The model's six metric slots hold the outcome vector in
        // `JobOutcome::to_vec` order.
        let m = p.metrics.to_vec();
        Ok(JobPrediction {
            outcome: JobOutcome {
                elapsed_seconds: m[0],
                map_output_records: m[1],
                shuffle_bytes: m[2],
                reduce_input_records: m[3],
                hdfs_bytes_read: m[4],
                spilled_records: m[5],
            },
            confidence_distance: p.confidence_distance,
            max_kernel_similarity: p.max_kernel_similarity,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobGenerator;
    use qpp_ml::predictive_risk;

    #[test]
    fn predicts_job_runtimes_well() {
        let cluster = ClusterConfig::small();
        let train_jobs = JobGenerator::new(1).generate(400);
        let test_jobs = JobGenerator::new(2).generate(80);
        let (model, _) = JobPredictor::train(&train_jobs, &cluster, 3).unwrap();
        let mut predicted = Vec::new();
        let mut actual = Vec::new();
        for j in &test_jobs {
            predicted.push(model.predict(j).unwrap().outcome.elapsed_seconds);
            actual.push(run(j, &cluster).elapsed_seconds);
        }
        let risk = predictive_risk(&predicted, &actual);
        assert!(risk > 0.6, "job elapsed risk {risk}");
    }

    #[test]
    fn predicts_shuffle_volume() {
        let cluster = ClusterConfig::large();
        let train_jobs = JobGenerator::new(5).generate(300);
        let test_jobs = JobGenerator::new(6).generate(60);
        let (model, _) = JobPredictor::train(&train_jobs, &cluster, 3).unwrap();
        let mut predicted = Vec::new();
        let mut actual = Vec::new();
        for j in &test_jobs {
            predicted.push(model.predict(j).unwrap().outcome.shuffle_bytes);
            actual.push(run(j, &cluster).shuffle_bytes);
        }
        let risk = predictive_risk(&predicted, &actual);
        assert!(risk > 0.7, "shuffle risk {risk}");
    }

    #[test]
    fn tiny_training_rejected() {
        let jobs = JobGenerator::new(7).generate(4);
        assert!(JobPredictor::train(&jobs, &ClusterConfig::small(), 3).is_err());
    }
}
