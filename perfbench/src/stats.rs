//! The harness's metric arithmetic: percentiles under the tail-sample rule,
//! SLO attainment over offered requests, and the knee-rate bisection.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values` (sorted in place): the mean of the two middle values
/// for an even count. Panics on an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// A nearest-rank percentile together with its sample counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at the percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples ranked strictly after the percentile's rank.
    pub beyond: usize,
}

/// The nearest-rank `p`-quantile (`0 < p <= 1`) of `values`, sorted in
/// place. Errors on an empty slice.
pub fn percentile(values: &mut [f64], p: f64) -> Result<Percentile, String> {
    assert!(0.0 < p && p <= 1.0, "quantile {p} outside (0, 1]");
    if values.is_empty() {
        return Err("percentile of no samples".to_string());
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Ok(Percentile {
        value: values[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// [`percentile`] for a reported tail: errors when fewer than
/// [`MIN_TAIL_SAMPLES`] samples rank beyond it, i.e. when the workload is
/// too small to support that percentile.
pub fn tail_percentile(values: &mut [f64], p: f64) -> Result<Percentile, String> {
    let tail = percentile(values, p)?;
    if tail.beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{} over {} samples leaves {} beyond it; at least \
             {MIN_TAIL_SAMPLES} are required",
            p * 100.0,
            tail.samples,
            tail.beyond
        ));
    }
    Ok(tail)
}

/// SLO attainment over *offered* requests: completions that met the SLO
/// divided by everything offered. Shed, rejected, failed and unfinished
/// requests are in `offered` but never in `met`, so each counts as a miss.
pub fn attainment(met: usize, offered: usize) -> f64 {
    assert!(met <= offered, "{met} met of {offered} offered");
    if offered == 0 {
        0.0
    } else {
        met as f64 / offered as f64
    }
}

/// The highest rate in `[lo, hi]` at which `passes` holds, for a `passes`
/// that holds below some knee and fails above it. Returns 0 when `lo`
/// already fails and `hi` when `hi` still passes; otherwise halves the
/// bracket `steps` times and returns its passing end.
pub fn bisect_max_rate(lo: f64, hi: f64, steps: u32, mut passes: impl FnMut(f64) -> bool) -> f64 {
    assert!(
        0.0 < lo && lo < hi,
        "bracket [{lo}, {hi}] must be positive and ordered"
    );
    if !passes(lo) {
        return 0.0;
    }
    if passes(hi) {
        return hi;
    }
    let (mut good, mut bad) = (lo, hi);
    for _ in 0..steps {
        // Geometric midpoint: the knee's relative precision is what matters.
        let mid = (good * bad).sqrt();
        if passes(mid) {
            good = mid;
        } else {
            bad = mid;
        }
    }
    good
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let mut thousand: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let p99 = tail_percentile(&mut thousand, 0.99).expect("1000 samples support p99");
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.samples, 1_000);
        assert_eq!(p99.beyond, 10);

        let mut short: Vec<f64> = (1..=999).map(f64::from).collect();
        let err = tail_percentile(&mut short, 0.99).expect_err("999 samples leave 9 beyond p99");
        assert!(err.contains("leaves 9 beyond"), "{err}");
    }

    #[test]
    fn percentile_sorts_its_input_and_reports_the_median_rank() {
        let mut values = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        let p50 = percentile(&mut values, 0.5).expect("a median needs no tail");
        assert_eq!(p50.value, 3.0);
        assert_eq!(p50.beyond, 2);
        assert_eq!(values, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn attainment_counts_every_non_completion_as_a_miss() {
        // 80 completions of which 72 met the SLO, plus 10 shed, 5 rejected,
        // 3 failed and 2 unfinished: 100 offered.
        let offered = 80 + 10 + 5 + 3 + 2;
        assert_eq!(attainment(72, offered), 0.72);
        assert_eq!(attainment(0, offered), 0.0);
        assert_eq!(attainment(0, 0), 0.0);
    }

    #[test]
    fn bisection_finds_the_knee_of_a_monotone_curve() {
        let knee = 3.7;
        let mut calls = 0;
        let found = bisect_max_rate(0.5, 16.0, 20, |rate| {
            calls += 1;
            rate <= knee
        });
        assert!(found <= knee && knee - found < 1e-3 * knee, "{found}");
        assert_eq!(calls, 22, "both ends, then one probe per step");
    }

    #[test]
    fn bisection_returns_zero_when_the_lowest_rate_fails() {
        assert_eq!(bisect_max_rate(1.0, 8.0, 10, |_| false), 0.0);
    }

    #[test]
    fn bisection_returns_the_ceiling_when_it_passes() {
        assert_eq!(bisect_max_rate(1.0, 8.0, 10, |_| true), 8.0);
    }

    #[test]
    fn ratio_of_zero_denominator_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
