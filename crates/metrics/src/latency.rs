//! Latency aggregation helpers.
//!
//! Small, dependency-free statistics used throughout the experiment
//! harness: means, percentiles and a compact summary of a latency sample.

/// Mean of a slice, or zero for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The `p`-th percentile (0–100) using linear interpolation between closest
/// ranks, or zero for an empty slice.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or any value is NaN.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile must be in [0, 100], got {p}"
    );
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies must not be NaN"));
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// A compact summary of a latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (P50).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum observed value.
    pub max: f64,
}

impl LatencySummary {
    /// Builds a summary from raw samples.
    pub fn from_values(values: &[f64]) -> Self {
        LatencySummary {
            count: values.len(),
            mean: mean(values),
            p50: percentile(values, 50.0),
            p90: percentile(values, 90.0),
            p99: percentile(values, 99.0),
            max: values.iter().copied().fold(0.0, f64::max),
        }
    }

    /// An all-zero summary for an empty sample.
    pub fn empty() -> Self {
        Self::from_values(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_percentiles_of_simple_sample() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(mean(&v), 50.5);
        assert!((percentile(&v, 50.0) - 50.5).abs() < 1e-9);
        assert!((percentile(&v, 90.0) - 90.1).abs() < 1e-9);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }

    #[test]
    fn empty_sample_yields_zeros() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
        let s = LatencySummary::empty();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, 0.0);
    }

    #[test]
    fn single_sample_summary() {
        let s = LatencySummary::from_values(&[3.0]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.p99, 3.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn percentile_is_order_invariant() {
        let a = [5.0, 1.0, 4.0, 2.0, 3.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&a, 75.0), percentile(&b, 75.0));
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn out_of_range_percentile_panics() {
        let _ = percentile(&[1.0], 150.0);
    }
}
