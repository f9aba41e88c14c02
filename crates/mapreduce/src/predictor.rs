//! KCCA-based job performance prediction — the same machinery as the
//! database predictor, with only the feature vectors swapped, proving
//! the paper's §VIII claim.

use crate::cluster::{run, ClusterConfig};
use crate::job::{JobOutcome, JobSpec};
use qpp_core::error::{QppError, ResultExt};
use qpp_linalg::stats::Standardizer;
use qpp_linalg::{vector, LinalgError, Matrix};
use qpp_ml::{DistanceMetric, Kcca, KccaOptions, NearestNeighbors, NeighborWeighting};
use serde::{Deserialize, Serialize};

/// A prediction for one job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobPrediction {
    /// Predicted outcome metrics.
    pub outcome: JobOutcome,
    /// Mean neighbor distance (confidence; small = trustworthy).
    pub confidence_distance: f64,
}

/// KCCA predictor over MapReduce jobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobPredictor {
    scaler: Standardizer,
    kcca: Kcca,
    neighbors: NearestNeighbors,
    raw_outcomes: Matrix,
    k: usize,
}

impl JobPredictor {
    /// Runs `jobs` on `cluster` (calibration) and trains the model.
    pub fn train(
        jobs: &[JobSpec],
        cluster: &ClusterConfig,
        k: usize,
    ) -> Result<(Self, Vec<JobOutcome>), QppError> {
        if jobs.len() < 8 {
            return Err(LinalgError::Empty("job training set").into());
        }
        let outcomes: Vec<JobOutcome> = jobs.iter().map(|j| run(j, cluster)).collect();
        // Assemble all three training matrices directly into contiguous
        // storage — no per-row vectors at the boundary.
        let x_dim = jobs[0].features().len();
        let mut x_raw = Matrix::zeros(jobs.len(), x_dim);
        for (i, j) in jobs.iter().enumerate() {
            x_raw.row_mut(i).copy_from_slice(&j.features());
        }
        let scaler = Standardizer::fit(&x_raw);
        let x = scaler.transform(&x_raw);
        let y_dim = outcomes[0].to_vec().len();
        let mut y = Matrix::zeros(outcomes.len(), y_dim);
        let mut raw_outcomes = Matrix::zeros(outcomes.len(), y_dim);
        for (i, o) in outcomes.iter().enumerate() {
            let raw = o.to_vec();
            raw_outcomes.row_mut(i).copy_from_slice(&raw);
            for (dst, v) in y.row_mut(i).iter_mut().zip(raw.iter()) {
                *dst = (1.0 + v).ln();
            }
        }
        let kcca = Kcca::fit(x.view(), y.view(), KccaOptions::default()).ctx("fitting job kcca")?;
        let neighbors =
            NearestNeighbors::new(kcca.query_projection().clone(), DistanceMetric::Euclidean);
        let model = JobPredictor {
            scaler,
            kcca,
            neighbors,
            raw_outcomes,
            k,
        };
        Ok((model, outcomes))
    }

    /// Predicts a job's outcome from its spec alone.
    pub fn predict(&self, job: &JobSpec) -> Result<JobPrediction, QppError> {
        let scaled = self.scaler.transform_row(&job.features());
        let (projected, _) = self
            .kcca
            .project_query_with_similarity(&scaled)
            .ctx("projecting job features")?;
        let (combined, found) = self
            .neighbors
            .predict(
                &projected,
                &self.raw_outcomes,
                self.k,
                NeighborWeighting::Equal,
            )
            .ctx("combining job neighbors")?;
        // `predict` never returns an empty neighbor list on success.
        let confidence_distance =
            vector::sum_iter(found.iter().map(|n| n.distance)) / found.len() as f64;
        Ok(JobPrediction {
            outcome: JobOutcome {
                elapsed_seconds: combined[0],
                map_output_records: combined[1],
                shuffle_bytes: combined[2],
                reduce_input_records: combined[3],
                hdfs_bytes_read: combined[4],
                spilled_records: combined[5],
            },
            confidence_distance,
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
