//! Binned time-series counters.
//!
//! Figure 13b of the paper plots the number of elastic scale-up operations
//! triggered per 10-second interval. [`BinnedCounter`] provides exactly
//! that: record events at simulated instants, then read back per-bin counts
//! and summary statistics. The observability tier's per-replica series
//! (completions, SLO hits, preemptions, cache events) are built on the same
//! type, and its gauge series share [`bin_index`] so every series agrees on
//! bin boundaries.

use loong_simcore::time::SimTime;

/// Maps an instant to its bin under half-open `[i·w, (i+1)·w)` semantics.
///
/// `floor(t / w)` alone is not faithful to that contract in floating point:
/// with `w = 0.3`, the product `243.0 * w` divides back to
/// `242.999…` and floors into bin 242 even though the value *is* the bin-243
/// boundary (`t == 243 * w` exactly, as f64). The index is therefore
/// corrected against the interval itself, so an event exactly on a bin
/// boundary always lands in the upper bin — including the final one.
pub fn bin_index(bin_width_s: f64, t: SimTime) -> usize {
    let secs = t.as_secs();
    let mut idx = (secs / bin_width_s).floor().max(0.0) as usize;
    // Re-check against the half-open interval: division rounding can put
    // `idx` one bin below (boundary products) or above the true interval.
    if (idx as f64 + 1.0) * bin_width_s <= secs {
        idx += 1;
    } else if idx > 0 && (idx as f64) * bin_width_s > secs {
        idx -= 1;
    }
    idx
}

/// Counts events in fixed-width time bins.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedCounter {
    /// Width of each bin in seconds.
    bin_width_s: f64,
    /// Event counts per bin, indexed by [`bin_index`].
    bins: Vec<u64>,
    /// Total number of recorded events.
    total: u64,
}

impl BinnedCounter {
    /// Creates a counter with the given bin width in seconds.
    ///
    /// # Panics
    ///
    /// Panics if the width is not positive and finite: a zero or negative
    /// width has no bins, and an infinite or NaN width would silently fold
    /// every event into bin 0 (`t / inf == 0`) while still passing a bare
    /// `> 0.0` check.
    pub fn new(bin_width_s: f64) -> Self {
        assert!(
            bin_width_s > 0.0 && bin_width_s.is_finite(),
            "bin width must be positive and finite"
        );
        BinnedCounter {
            bin_width_s,
            bins: Vec::new(),
            total: 0,
        }
    }

    /// Records one event at time `t`.
    pub fn record(&mut self, t: SimTime) {
        self.record_many(t, 1);
    }

    /// Records `count` events at time `t`.
    pub fn record_many(&mut self, t: SimTime, count: u64) {
        let idx = bin_index(self.bin_width_s, t);
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0);
        }
        self.bins[idx] += count;
        self.total += count;
    }

    /// Merges another counter into this one, bin-wise.
    ///
    /// Merging an **empty** counter is the identity regardless of its bin
    /// width (an empty counter carries no binned information, so widths
    /// need not agree — the shape every freshly constructed per-replica
    /// series has before its first event). Merging *into* an empty counter
    /// adopts the other counter's width along with its bins.
    ///
    /// # Panics
    ///
    /// Panics if both counters are non-empty with different bin widths:
    /// their bins index different intervals and adding them element-wise
    /// would be silently meaningless.
    pub fn merge(&mut self, other: &BinnedCounter) {
        if other.bins.is_empty() {
            return;
        }
        if self.bins.is_empty() {
            self.bin_width_s = other.bin_width_s;
        } else {
            assert!(
                self.bin_width_s == other.bin_width_s,
                "cannot merge counters with different bin widths ({} vs {})",
                self.bin_width_s,
                other.bin_width_s
            );
        }
        if other.bins.len() > self.bins.len() {
            self.bins.resize(other.bins.len(), 0);
        }
        for (dst, src) in self.bins.iter_mut().zip(&other.bins) {
            *dst += src;
        }
        self.total += other.total;
    }

    /// The bin width in seconds.
    pub fn bin_width(&self) -> f64 {
        self.bin_width_s
    }

    /// Per-bin counts from time zero to the last recorded event.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Total number of recorded events.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean events per bin over all bins up to the last event (the paper
    /// reports 7.12 scale-ups per 10 s on ShareGPT at 25 req/s).
    pub fn mean_per_bin(&self) -> f64 {
        if self.bins.is_empty() {
            return 0.0;
        }
        self.total as f64 / self.bins.len() as f64
    }

    /// Maximum events observed in any bin.
    pub fn max_per_bin(&self) -> u64 {
        self.bins.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_land_in_the_right_bins() {
        let mut c = BinnedCounter::new(10.0);
        c.record(SimTime::from_secs(1.0));
        c.record(SimTime::from_secs(9.9));
        c.record(SimTime::from_secs(10.0));
        c.record(SimTime::from_secs(25.0));
        assert_eq!(c.bins(), &[2, 1, 1]);
        assert_eq!(c.total(), 4);
        assert_eq!(c.max_per_bin(), 2);
    }

    #[test]
    fn mean_per_bin_counts_empty_bins() {
        let mut c = BinnedCounter::new(10.0);
        c.record(SimTime::from_secs(5.0));
        c.record(SimTime::from_secs(35.0));
        // Bins: [1, 0, 0, 1] -> mean 0.5.
        assert_eq!(c.mean_per_bin(), 0.5);
    }

    #[test]
    fn empty_counter_is_zero() {
        let c = BinnedCounter::new(10.0);
        assert_eq!(c.total(), 0);
        assert_eq!(c.mean_per_bin(), 0.0);
        assert_eq!(c.max_per_bin(), 0);
        assert!(c.bins().is_empty());
        assert_eq!(c.bin_width(), 10.0);
    }

    #[test]
    fn record_many_accumulates() {
        let mut c = BinnedCounter::new(1.0);
        c.record_many(SimTime::from_secs(0.5), 5);
        c.record_many(SimTime::from_secs(0.6), 2);
        assert_eq!(c.bins(), &[7]);
    }

    #[test]
    #[should_panic(expected = "bin width must be positive")]
    fn zero_width_rejected() {
        let _ = BinnedCounter::new(0.0);
    }
}
