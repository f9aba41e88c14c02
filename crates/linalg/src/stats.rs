//! Column statistics and standardization over matrices.

use crate::matrix::Matrix;

/// Per-column mean of a matrix.
pub fn column_means(m: &Matrix) -> Vec<f64> {
    let (rows, cols) = m.shape();
    let mut means = vec![0.0; cols];
    if rows == 0 {
        return means;
    }
    for row in m.row_iter() {
        for (acc, &v) in means.iter_mut().zip(row.iter()) {
            *acc += v;
        }
    }
    for v in &mut means {
        *v /= rows as f64;
    }
    means
}

/// Per-column population standard deviation.
fn column_stds(m: &Matrix) -> Vec<f64> {
    let (rows, cols) = m.shape();
    let means = column_means(m);
    let mut vars = vec![0.0; cols];
    if rows < 2 {
        return vars;
    }
    for row in m.row_iter() {
        for ((acc, &mu), &v) in vars.iter_mut().zip(means.iter()).zip(row.iter()) {
            let d = v - mu;
            *acc += d * d;
        }
    }
    for v in &mut vars {
        *v = (*v / rows as f64).sqrt();
    }
    vars
}

/// Fitted column-wise standardizer `(x - mean) / std`.
///
/// Columns with (near-)zero variance pass through centered but unscaled,
/// so constant features cannot produce NaNs downstream.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Fits to the rows of `m`.
    pub fn fit(m: &Matrix) -> Self {
        let means = column_means(m);
        let stds = column_stds(m)
            .into_iter()
            .map(|s| if s > 1e-12 { s } else { 1.0 })
            .collect();
        Standardizer { means, stds }
    }

    /// Standardizes one row into a reusable buffer. After warmup the
    /// buffer's capacity is retained, so steady-state calls allocate
    /// nothing.
    pub fn transform_row_into(&self, row: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            row.iter()
                .zip(self.means.iter().zip(self.stds.iter()))
                .map(|(&v, (&mu, &sd))| (v - mu) / sd),
        );
    }

    /// Standardizes every row of `m`.
    pub fn transform(&self, m: &Matrix) -> Matrix {
        Matrix::from_fn(m.rows(), m.cols(), |i, j| {
            (m[(i, j)] - self.means[j]) / self.stds[j]
        })
    }

    /// Fitted means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Fitted standard deviations (zero-variance columns report 1.0).
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_and_stds() {
        let m = Matrix::from_vec(2, 2, vec![1., 10., 3., 30.]).unwrap();
        assert_eq!(column_means(&m), vec![2.0, 20.0]);
        let s = column_stds(&m);
        assert!((s[0] - 1.0).abs() < 1e-12);
        assert!((s[1] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn standardizer_centres_and_scales_columns() {
        let m = Matrix::from_vec(3, 2, vec![1., 5., 2., 7., 3., 9.]).unwrap();
        let sc = Standardizer::fit(&m);
        let t = sc.transform(&m);
        // Standardized columns: zero mean, unit std.
        let means = column_means(&t);
        let stds = column_stds(&t);
        for mu in means {
            assert!(mu.abs() < 1e-12);
        }
        for sd in stds {
            assert!((sd - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_column_is_safe() {
        let m = Matrix::from_vec(3, 1, vec![4., 4., 4.]).unwrap();
        let sc = Standardizer::fit(&m);
        let t = sc.transform(&m);
        assert!(t.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(t[(0, 0)], 0.0);
    }
}
