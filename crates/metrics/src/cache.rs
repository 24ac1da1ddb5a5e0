//! Prefix-cache counters.
//!
//! One [`CacheStats`] record accumulates everything the prefix-cache tier
//! did during a run: lookups and hits at prefill dispatch, tokens adopted
//! instead of re-prefilled, the prefill seconds those adoptions saved (per
//! the cost model at the adopting group's parallel configuration), and
//! eviction traffic. A run with the tier disabled — or one that never
//! reused a prefix — reports the all-zero record, the observable half of
//! the tier's zero-cost-when-disabled invariant.

/// Counters of prefix-cache activity for one run (or one fleet replica).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Prefill dispatches of conversation-tagged requests that consulted
    /// the prefix index.
    pub lookups: u64,
    /// Lookups that adopted a retained prefix.
    pub hits: u64,
    /// Prompt tokens adopted from the cache instead of being prefilled.
    pub reused_tokens: u64,
    /// Prefill seconds saved by adoption: the cost model's prediction for
    /// prefilling the reused tokens on the adopting group, summed over hits.
    pub saved_prefill_s: f64,
    /// Retained entries evicted (watermark or head-of-queue headroom).
    pub evicted_entries: u64,
    /// Tokens freed by those evictions.
    pub evicted_tokens: u64,
    /// High-water mark of tokens simultaneously retained by the cache.
    pub retained_tokens_high_water: u64,
}

impl CacheStats {
    /// Returns true if the run experienced no prefix-cache activity at all.
    pub fn is_zero(&self) -> bool {
        *self == CacheStats::default()
    }

    /// Fraction of lookups that hit, in `[0, 1]` (zero when no lookups).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Accumulates another record into this one (fleet rollups). Counters
    /// and seconds sum; the retained high-water mark takes the maximum,
    /// since replicas own disjoint device pools.
    pub fn merge(&mut self, other: &CacheStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.reused_tokens += other.reused_tokens;
        self.saved_prefill_s += other.saved_prefill_s;
        self.evicted_entries += other.evicted_entries;
        self.evicted_tokens += other.evicted_tokens;
        self.retained_tokens_high_water = self
            .retained_tokens_high_water
            .max(other.retained_tokens_high_water);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CacheStats {
        CacheStats {
            lookups: 8,
            hits: 6,
            reused_tokens: 1_200,
            saved_prefill_s: 0.25,
            evicted_entries: 1,
            evicted_tokens: 300,
            retained_tokens_high_water: 2_000,
        }
    }

    #[test]
    fn default_is_zero() {
        assert!(CacheStats::default().is_zero());
        assert!(!sample().is_zero());
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate_is_hits_over_lookups() {
        assert!((sample().hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_counters_and_maxes_high_water() {
        let mut a = sample();
        let mut b = sample();
        b.retained_tokens_high_water = 5_000;
        a.merge(&b);
        assert_eq!(a.lookups, 16);
        assert_eq!(a.hits, 12);
        assert_eq!(a.reused_tokens, 2_400);
        assert!((a.saved_prefill_s - 0.5).abs() < 1e-12);
        assert_eq!(a.evicted_entries, 2);
        assert_eq!(a.retained_tokens_high_water, 5_000);
    }
}
