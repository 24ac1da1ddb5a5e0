//! Memory-pressure counters.
//!
//! One [`PressureStats`] record accumulates everything the memory-pressure
//! subsystem did during a run: preempt-and-recompute evictions, swap
//! traffic over the PCIe host link, and the time requests spent stalled
//! behind those transfers. A run that never crossed a pressure watermark
//! reports the all-zero record — the observable half of the subsystem's
//! zero-cost-when-disabled invariant.

/// Counters of memory-pressure activity for one run (or one fleet replica).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PressureStats {
    /// Preempt-and-recompute evictions performed (distinct from per-record
    /// `preemptions`, which also counts decode migrations).
    pub preemptions: u64,
    /// Requests evicted to the host tier.
    pub swap_out_events: u64,
    /// Requests restored from the host tier.
    pub swap_in_events: u64,
    /// Bytes moved device→host.
    pub swap_out_bytes: f64,
    /// Bytes moved host→device.
    pub swap_in_bytes: f64,
    /// Total simulated time requests spent stalled behind swap transfers,
    /// in seconds.
    pub swap_stall_s: f64,
    /// High-water mark of tokens simultaneously parked on the host tier.
    pub max_outstanding_swapped_tokens: u64,
}

impl PressureStats {
    /// Returns true if the run experienced no pressure activity at all.
    pub fn is_zero(&self) -> bool {
        *self == PressureStats::default()
    }

    /// Total bytes moved over the host link in both directions.
    pub fn swap_bytes_total(&self) -> f64 {
        self.swap_out_bytes + self.swap_in_bytes
    }

    /// Accumulates another record into this one (fleet rollups). Counters
    /// and bytes sum; the outstanding-swapped high-water mark takes the
    /// maximum, since replicas own disjoint host pools.
    pub fn merge(&mut self, other: &PressureStats) {
        self.preemptions += other.preemptions;
        self.swap_out_events += other.swap_out_events;
        self.swap_in_events += other.swap_in_events;
        self.swap_out_bytes += other.swap_out_bytes;
        self.swap_in_bytes += other.swap_in_bytes;
        self.swap_stall_s += other.swap_stall_s;
        self.max_outstanding_swapped_tokens = self
            .max_outstanding_swapped_tokens
            .max(other.max_outstanding_swapped_tokens);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PressureStats {
        PressureStats {
            preemptions: 2,
            swap_out_events: 3,
            swap_in_events: 3,
            swap_out_bytes: 10.0,
            swap_in_bytes: 10.0,
            swap_stall_s: 0.5,
            max_outstanding_swapped_tokens: 1_000,
        }
    }

    #[test]
    fn default_is_zero() {
        assert!(PressureStats::default().is_zero());
        assert!(!sample().is_zero());
    }

    #[test]
    fn merge_sums_counters_and_maxes_watermark() {
        let mut a = sample();
        let mut b = sample();
        b.max_outstanding_swapped_tokens = 5_000;
        a.merge(&b);
        assert_eq!(a.preemptions, 4);
        assert_eq!(a.swap_out_events, 6);
        assert_eq!(a.swap_bytes_total(), 40.0);
        assert_eq!(a.max_outstanding_swapped_tokens, 5_000);
    }
}
