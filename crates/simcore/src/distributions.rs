//! Samplers used by workload generation.
//!
//! The paper's evaluation samples request lengths from real datasets
//! (ShareGPT, L-Eval, LV-Eval) and generates arrivals from a Poisson
//! process; the ablation in Figure 12 additionally reshapes the length
//! distribution with Zipf exponents 1.0/1.2/1.4. This module provides the
//! deterministic samplers backing those generators:
//!
//! * [`Exponential`] — inter-arrival times of a Poisson process,
//! * [`Zipf`] — ranked discrete distribution with configurable exponent,
//! * [`LogUniform`] — lengths spread uniformly in log-space between bounds,
//! * [`Empirical`] — weighted mixture over explicit (value, weight) bins,
//! * [`LogNormal`] — heavy-tailed conversational length model.

use crate::rng::SimRng;
use rand::Rng;

/// Exponential distribution with rate `lambda` (events per second).
///
/// Sampling inter-arrival gaps from `Exponential::new(rate)` produces a
/// Poisson arrival process with mean `rate` requests per second.
///
/// # Examples
///
/// ```
/// use loong_simcore::distributions::Exponential;
/// use loong_simcore::rng::SimRng;
///
/// let mut rng = SimRng::seed(1);
/// let exp = Exponential::new(2.0);
/// let gap = exp.sample(&mut rng);
/// assert!(gap >= 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with rate `lambda > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not finite and positive.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "lambda must be positive, got {lambda}"
        );
        Exponential { lambda }
    }

    /// The rate parameter (events per second).
    pub fn rate(&self) -> f64 {
        self.lambda
    }

    /// The mean inter-arrival gap in seconds.
    pub fn mean(&self) -> f64 {
        1.0 / self.lambda
    }

    /// Draws one inter-arrival gap.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inverse-CDF sampling; `1 - u` avoids ln(0).
        let u: f64 = rng.gen::<f64>();
        -(1.0 - u).ln() / self.lambda
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s`.
///
/// Rank `k` has probability proportional to `k^-s`. The ablation of
/// Figure 12 samples dataset *buckets* by Zipf rank to skew the mixture
/// towards shorter or longer requests.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    n: usize,
    exponent: f64,
    /// Cumulative probabilities for inverse-CDF sampling.
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n >= 1` ranks with exponent `s >= 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative/NaN.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "Zipf needs at least one rank");
        assert!(
            s.is_finite() && s >= 0.0,
            "Zipf exponent must be non-negative, got {s}"
        );
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }
        // Guard against floating point drift so the last bucket always catches.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Zipf {
            n,
            exponent: s,
            cdf,
        }
    }

    /// The number of ranks.
    pub fn ranks(&self) -> usize {
        self.n
    }

    /// The exponent `s`.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Probability of rank `k` (1-based).
    pub fn pmf(&self, k: usize) -> f64 {
        assert!(
            (1..=self.n).contains(&k),
            "rank {k} out of range 1..={}",
            self.n
        );
        let lo = if k == 1 { 0.0 } else { self.cdf[k - 2] };
        self.cdf[k - 1] - lo
    }

    /// Draws a rank in `1..=n`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u: f64 = rng.gen::<f64>();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf has no NaN"))
        {
            Ok(i) => i + 1,
            Err(i) => (i + 1).min(self.n),
        }
    }
}

/// Log-uniform distribution over `[lo, hi]`.
///
/// Used to spread sequence lengths across several orders of magnitude, as in
/// the L-Eval (2.7K–210K) and LV-Eval (15K–497K) token ranges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogUniform {
    lo: f64,
    hi: f64,
}

impl LogUniform {
    /// Creates a log-uniform distribution over `[lo, hi]` with `0 < lo <= hi`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not positive finite or `lo > hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo > 0.0 && lo <= hi,
            "invalid LogUniform bounds [{lo}, {hi}]"
        );
        LogUniform { lo, hi }
    }

    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Draws one value in `[lo, hi]`.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        if self.lo == self.hi {
            return self.lo;
        }
        let u: f64 = rng.gen::<f64>();
        (self.lo.ln() + u * (self.hi.ln() - self.lo.ln())).exp()
    }
}

/// Log-normal distribution parameterised by the ln-space mean and standard
/// deviation, truncated to `[min, max]` by resampling.
///
/// ShareGPT-style conversational traffic is well described by a log-normal
/// body with a hard cap at the model's (old) context window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
    min: f64,
    max: f64,
}

impl LogNormal {
    /// Creates a truncated log-normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `sigma < 0`, bounds are non-positive, or `min > max`.
    pub fn new(mu: f64, sigma: f64, min: f64, max: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be non-negative"
        );
        assert!(
            min > 0.0 && min <= max,
            "invalid truncation bounds [{min}, {max}]"
        );
        LogNormal {
            mu,
            sigma,
            min,
            max,
        }
    }

    /// Draws one value, clamped to the truncation range after at most a few
    /// resampling attempts.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        for _ in 0..16 {
            let z = standard_normal(rng);
            let x = (self.mu + self.sigma * z).exp();
            if x >= self.min && x <= self.max {
                return x;
            }
        }
        // Extremely unlikely with sane parameters; clamp as a fallback.
        let z = standard_normal(rng);
        (self.mu + self.sigma * z).exp().clamp(self.min, self.max)
    }
}

/// Draws a standard normal variate using the Box–Muller transform.
pub fn standard_normal(rng: &mut SimRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A discrete distribution over explicit `(value, weight)` bins.
///
/// Used for dataset mixtures (e.g. the "Mixed" workload samples each source
/// dataset with equal probability) and for empirical output-length tables.
#[derive(Debug, Clone, PartialEq)]
pub struct Empirical<T: Clone> {
    values: Vec<T>,
    cdf: Vec<f64>,
}

impl<T: Clone> Empirical<T> {
    /// Builds an empirical distribution from `(value, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is empty, any weight is negative/NaN, or all weights
    /// are zero.
    pub fn new(bins: Vec<(T, f64)>) -> Self {
        assert!(
            !bins.is_empty(),
            "Empirical distribution needs at least one bin"
        );
        let total: f64 = bins.iter().map(|(_, w)| *w).sum();
        assert!(
            bins.iter().all(|(_, w)| w.is_finite() && *w >= 0.0) && total > 0.0,
            "Empirical weights must be non-negative with positive sum"
        );
        let mut values = Vec::with_capacity(bins.len());
        let mut cdf = Vec::with_capacity(bins.len());
        let mut acc = 0.0;
        for (v, w) in bins {
            acc += w / total;
            values.push(v);
            cdf.push(acc);
        }
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Empirical { values, cdf }
    }

    /// The number of bins.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns true if the distribution has no bins (never true for a
    /// successfully constructed value).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Draws one bin value.
    pub fn sample(&self, rng: &mut SimRng) -> T {
        let u: f64 = rng.gen::<f64>();
        let idx = match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf has no NaN"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.values.len() - 1),
        };
        self.values[idx].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = SimRng::seed(5);
        let exp = Exponential::new(4.0);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| exp.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean was {mean}, expected 0.25");
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let z = Zipf::new(4, 1.2);
        assert!(z.pmf(1) > z.pmf(2));
        assert!(z.pmf(2) > z.pmf(4));
        let total: f64 = (1..=4).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(5, 0.0);
        for k in 1..=5 {
            assert!((z.pmf(k) - 0.2).abs() < 1e-9);
        }
    }

    #[test]
    fn zipf_samples_in_range() {
        let mut rng = SimRng::seed(2);
        let z = Zipf::new(3, 1.0);
        for _ in 0..1000 {
            let k = z.sample(&mut rng);
            assert!((1..=3).contains(&k));
        }
    }

    #[test]
    fn log_uniform_stays_in_bounds() {
        let mut rng = SimRng::seed(3);
        let d = LogUniform::new(100.0, 100_000.0);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((100.0..=100_000.0).contains(&x), "sample {x} out of bounds");
        }
    }

    #[test]
    fn log_uniform_degenerate_bounds() {
        let mut rng = SimRng::seed(3);
        let d = LogUniform::new(42.0, 42.0);
        assert_eq!(d.sample(&mut rng), 42.0);
    }

    #[test]
    fn log_normal_truncation_respected() {
        let mut rng = SimRng::seed(9);
        let d = LogNormal::new(5.0, 1.5, 4.0, 2300.0);
        for _ in 0..2000 {
            let x = d.sample(&mut rng);
            assert!((4.0..=2300.0).contains(&x), "sample {x} escaped truncation");
        }
    }

    #[test]
    fn empirical_respects_weights() {
        let mut rng = SimRng::seed(4);
        let d = Empirical::new(vec![("a", 3.0), ("b", 1.0)]);
        let n = 20_000;
        let a_count = (0..n).filter(|_| d.sample(&mut rng) == "a").count();
        let frac = a_count as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "fraction of 'a' was {frac}");
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn empirical_empty_panics() {
        let _ = Empirical::<u32>::new(vec![]);
    }
}
