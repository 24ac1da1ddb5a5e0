//! The analytical iteration-time model of paper §5.5 (Equation 7).
//!
//! The global manager cannot afford to evaluate a detailed cost model for
//! every candidate scheduling decision, and it cannot profile every
//! combination of request lengths in advance. The paper therefore fits, per
//! parallelism strategy, the three-coefficient model
//!
//! ```text
//! T_p(R) = alpha + beta * sum(len_r) + gamma * sum(len_r^2)
//! ```
//!
//! by least squares against a handful of profiled iterations. This module
//! implements the model, the least-squares fit (via the 3×3 normal
//! equations), and error metrics used to reproduce Figure 15.

use serde::{Deserialize, Serialize};

/// Summary features of a prefill batch: the number of requests, the sum of
/// input lengths and the sum of squared input lengths.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchFeatures {
    /// Number of requests in the batch.
    pub batch_size: usize,
    /// Σ len.
    pub sum_len: f64,
    /// Σ len².
    pub sum_len_sq: f64,
}

impl BatchFeatures {
    /// Computes features from a list of input lengths.
    pub fn from_lens(lens: &[u64]) -> Self {
        let sum_len = lens.iter().map(|&l| l as f64).sum();
        let sum_len_sq = lens.iter().map(|&l| (l as f64) * (l as f64)).sum();
        BatchFeatures {
            batch_size: lens.len(),
            sum_len,
            sum_len_sq,
        }
    }
}

/// The fitted α + β·Σl + γ·Σl² model for one parallelism strategy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalyticalModel {
    /// Constant overhead (seconds).
    pub alpha: f64,
    /// Cost per input token (seconds/token) — FFN and projection work.
    pub beta: f64,
    /// Cost per squared input token (seconds/token²) — attention work.
    pub gamma: f64,
}

impl AnalyticalModel {
    /// Predicted iteration time for a batch with the given input lengths.
    pub fn predict(&self, lens: &[u64]) -> f64 {
        self.predict_features(&BatchFeatures::from_lens(lens))
    }

    /// Predicted iteration time from precomputed features.
    pub fn predict_features(&self, f: &BatchFeatures) -> f64 {
        self.alpha + self.beta * f.sum_len + self.gamma * f.sum_len_sq
    }

    /// Fits the model by ordinary least squares on `(lens, measured_time)`
    /// samples.
    ///
    /// Returns `None` if fewer than three samples are provided or the normal
    /// equations are singular (e.g. all samples have identical features).
    pub fn fit(samples: &[(Vec<u64>, f64)]) -> Option<Self> {
        let features: Vec<(BatchFeatures, f64)> = samples
            .iter()
            .map(|(lens, t)| (BatchFeatures::from_lens(lens), *t))
            .collect();
        Self::fit_features(&features)
    }

    /// Fits the model from precomputed features.
    pub fn fit_features(samples: &[(BatchFeatures, f64)]) -> Option<Self> {
        if samples.len() < 3 {
            return None;
        }
        // Normal equations X^T X w = X^T y with X rows [1, S, Q]. The raw
        // features span ~10 orders of magnitude, so scale columns to unit
        // magnitude before solving to keep the 3x3 system well conditioned.
        let s_scale = samples
            .iter()
            .map(|(f, _)| f.sum_len.abs())
            .fold(0.0f64, f64::max)
            .max(1.0);
        let q_scale = samples
            .iter()
            .map(|(f, _)| f.sum_len_sq.abs())
            .fold(0.0f64, f64::max)
            .max(1.0);

        let mut xtx = [[0.0f64; 3]; 3];
        let mut xty = [0.0f64; 3];
        for (f, y) in samples {
            let row = [1.0, f.sum_len / s_scale, f.sum_len_sq / q_scale];
            for i in 0..3 {
                for j in 0..3 {
                    xtx[i][j] += row[i] * row[j];
                }
                xty[i] += row[i] * y;
            }
        }
        let w = solve3(xtx, xty)?;
        Some(AnalyticalModel {
            alpha: w[0],
            beta: w[1] / s_scale,
            gamma: w[2] / q_scale,
        })
    }

    /// Mean relative prediction error over a validation set, as a fraction
    /// (0.1 = 10%). Samples with non-positive measured time are skipped.
    pub fn mean_relative_error(&self, samples: &[(Vec<u64>, f64)]) -> f64 {
        let mut total = 0.0;
        let mut n = 0usize;
        for (lens, measured) in samples {
            if *measured <= 0.0 {
                continue;
            }
            let predicted = self.predict(lens);
            total += ((predicted - measured) / measured).abs();
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }
}

/// Solves a 3×3 linear system by Gaussian elimination with partial pivoting.
/// Returns `None` if the matrix is (numerically) singular.
fn solve3(mut a: [[f64; 3]; 3], mut b: [f64; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        // Pivot: pick the row with the largest magnitude in this column.
        let pivot_row = (col..3)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .expect("matrix entries are finite")
            })
            .expect("non-empty range");
        if a[pivot_row][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        let pivot = a[col];
        for row in (col + 1)..3 {
            let factor = a[row][col] / pivot[col];
            for (entry, pivot_entry) in a[row].iter_mut().zip(pivot.iter()).skip(col) {
                *entry -= factor * pivot_entry;
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = [0.0f64; 3];
    for row in (0..3).rev() {
        let mut sum = b[row];
        for k in (row + 1)..3 {
            sum -= a[row][k] * x[k];
        }
        x[row] = sum / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_recovery_of_synthetic_coefficients() {
        // Generate data from a known (alpha, beta, gamma) and check the fit
        // recovers it.
        let truth = AnalyticalModel {
            alpha: 0.004,
            beta: 2.5e-7,
            gamma: 3.0e-12,
        };
        let mut samples = Vec::new();
        for bs in [1usize, 2, 4, 8] {
            for len in [1_000u64, 10_000, 50_000, 100_000, 200_000] {
                let lens = vec![len; bs];
                samples.push((lens.clone(), truth.predict(&lens)));
            }
        }
        let fitted = AnalyticalModel::fit(&samples).expect("fit should succeed");
        assert!((fitted.alpha - truth.alpha).abs() / truth.alpha < 1e-6);
        assert!((fitted.beta - truth.beta).abs() / truth.beta < 1e-6);
        assert!((fitted.gamma - truth.gamma).abs() / truth.gamma < 1e-6);
        assert!(fitted.mean_relative_error(&samples) < 1e-9);
    }

    #[test]
    fn fit_requires_three_samples() {
        let samples = vec![(vec![10u64], 1.0), (vec![20u64], 2.0)];
        assert!(AnalyticalModel::fit(&samples).is_none());
    }

    #[test]
    fn degenerate_samples_are_rejected() {
        // Identical features in every sample: the normal matrix is singular.
        let samples = vec![(vec![100u64], 1.0); 5];
        assert!(AnalyticalModel::fit(&samples).is_none());
    }

    #[test]
    fn features_sum_correctly() {
        let f = BatchFeatures::from_lens(&[3, 4]);
        assert_eq!(f.batch_size, 2);
        assert_eq!(f.sum_len, 7.0);
        assert_eq!(f.sum_len_sq, 25.0);
    }

    #[test]
    fn relative_error_ignores_zero_measurements() {
        let m = AnalyticalModel {
            alpha: 0.0,
            beta: 1.0,
            gamma: 0.0,
        };
        let err = m.mean_relative_error(&[(vec![1], 0.0), (vec![2], 2.0)]);
        assert_eq!(err, 0.0);
        assert_eq!(m.mean_relative_error(&[(vec![2], 4.0)]), 0.5);
    }

    #[test]
    fn solver_handles_permuted_rows() {
        // A system that requires pivoting.
        let a = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]];
        let b = [3.0, 5.0, 8.0];
        let x = solve3(a, b).expect("solvable");
        assert_eq!(x, [5.0, 3.0, 4.0]);
    }

    #[test]
    fn solver_detects_singularity() {
        let a = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 1.0, 1.0]];
        assert!(solve3(a, [1.0, 2.0, 3.0]).is_none());
    }
}
