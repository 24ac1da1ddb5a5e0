//! Collective-communication cost models.
//!
//! LoongServe's elastic scaling decisions hinge on the *relative* cost of
//! three kinds of communication:
//!
//! * **Tensor parallelism** all-reduces inside an elastic instance (twice per
//!   transformer layer),
//! * **Sequence parallelism** ring exchanges of key-value segments between
//!   instances during the prefill phase (StripedAttention), and query/partial
//!   result exchanges during distributed decoding,
//! * **Key-value cache migration** between instances when an instance is
//!   drained or a baseline hands a request over. A migration is one
//!   point-to-point transfer, priced by [`LinkSpec::transfer_time`].
//!
//! All of these are modelled with the standard alpha-beta (latency +
//! size/bandwidth) formulation over the bottleneck link of the participating
//! GPUs, which is the same approach used by NCCL performance models. This
//! module holds the three collectives the roofline cost model prices:
//! [`CommModel::ring_allreduce`] for tensor parallelism,
//! [`CommModel::ring_sendrecv_step`] for the sequence-parallel prefill ring,
//! and [`CommModel::master_exchange`] for the query scatter and partial
//! gather of distributed decoding.

use crate::gpu::LinkSpec;

/// Cost model for collectives over a set of peers connected by a given
/// bottleneck link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommModel {
    /// The bottleneck link between any two participants.
    pub link: LinkSpec,
}

impl CommModel {
    /// Creates a communication model over the given bottleneck link.
    pub fn new(link: LinkSpec) -> Self {
        CommModel { link }
    }

    /// Time for a ring all-reduce of `bytes` bytes across `n` participants.
    ///
    /// The standard ring algorithm moves `2 (n-1) / n * bytes` per peer and
    /// takes `2 (n-1)` latency-bound steps.
    pub fn ring_allreduce(&self, bytes: f64, n: usize) -> f64 {
        assert!(n >= 1, "all-reduce needs at least one participant");
        if n == 1 || bytes == 0.0 {
            return 0.0;
        }
        let steps = 2 * (n - 1);
        let volume = 2.0 * (n as f64 - 1.0) / n as f64 * bytes;
        steps as f64 * self.link.latency + volume / self.link.bandwidth
    }

    /// Time for one step of the sequence-parallel ring: every instance sends
    /// its current key-value segment of `bytes` bytes to its neighbour while
    /// receiving the previous segment. Send and receive overlap, so the step
    /// costs one latency plus one segment transfer.
    pub fn ring_sendrecv_step(&self, bytes: f64) -> f64 {
        if bytes == 0.0 {
            return 0.0;
        }
        self.link.latency + bytes / self.link.bandwidth
    }

    /// Time for a scatter/gather where a master exchanges `bytes_per_peer`
    /// with each of `n - 1` peers sequentially over its single NIC/NVLink
    /// port. This models the query scatter and partial-attention gather of
    /// single-master distributed decoding.
    pub fn master_exchange(&self, bytes_per_peer: f64, n: usize) -> f64 {
        assert!(n >= 1, "exchange needs at least one participant");
        if n == 1 || bytes_per_peer == 0.0 {
            return 0.0;
        }
        let peers = (n - 1) as f64;
        peers * (self.link.latency + bytes_per_peer / self.link.bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::GB;

    fn nvlink_model() -> CommModel {
        CommModel::new(LinkSpec::nvlink_a800())
    }

    #[test]
    fn single_participant_collectives_are_free() {
        let m = nvlink_model();
        assert_eq!(m.ring_allreduce(1e9, 1), 0.0);
        assert_eq!(m.master_exchange(1e9, 1), 0.0);
    }

    #[test]
    fn allreduce_volume_scales_with_participants() {
        let m = nvlink_model();
        let t2 = m.ring_allreduce(1.0 * GB, 2);
        let t8 = m.ring_allreduce(1.0 * GB, 8);
        // Per the 2(n-1)/n law, 8 ranks move 1.75x the bytes of 2 ranks.
        assert!(t8 > t2);
        assert!(t8 < 2.0 * t2);
    }

    #[test]
    fn zero_bytes_costs_nothing() {
        let m = nvlink_model();
        assert_eq!(m.ring_allreduce(0.0, 8), 0.0);
        assert_eq!(m.ring_sendrecv_step(0.0), 0.0);
        assert_eq!(m.link.transfer_time(0.0), 0.0);
    }

    #[test]
    fn migration_of_large_kv_is_slow() {
        // Migrating ~488 GB of KV cache (the paper's 1M-token example) over
        // NVLink takes on the order of a second, far longer than a decode
        // step — the motivation for proactive migration.
        let m = nvlink_model();
        let t = m.link.transfer_time(488.0 * GB);
        assert!(t > 1.0, "expected >1s, got {t}");
    }

    #[test]
    fn master_exchange_scales_with_peers() {
        let m = nvlink_model();
        let t2 = m.master_exchange(1e6, 2);
        let t4 = m.master_exchange(1e6, 4);
        assert!((t4 / t2 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn one_byte_collectives_are_latency_bound() {
        // At tiny message sizes the alpha term dominates: the cost is the
        // step count times the link latency, essentially independent of
        // the payload.
        let m = nvlink_model();
        let lat = m.link.latency;
        for n in [2usize, 4, 8] {
            let t = m.ring_allreduce(1.0, n);
            let alpha_only = (2 * (n - 1)) as f64 * lat;
            assert!(
                ((t - alpha_only) / alpha_only).abs() < 1e-6,
                "n={n}: {t} vs alpha {alpha_only}"
            );
        }
        // Doubling a latency-bound payload barely moves the cost (but the
        // cost itself never decreases with size).
        let t1 = m.ring_allreduce(8.0, 8);
        let t2 = m.ring_allreduce(16.0, 8);
        assert!(t2 >= t1);
        assert!((t2 - t1) / t1 < 1e-6);
    }

    #[test]
    fn huge_collectives_are_bandwidth_bound() {
        // At large sizes the beta term dominates: cost scales linearly
        // with bytes and the alpha term disappears in the noise.
        let m = nvlink_model();
        let t1 = m.ring_allreduce(10.0 * GB, 8);
        let t2 = m.ring_allreduce(20.0 * GB, 8);
        assert!((t2 / t1 - 2.0).abs() < 1e-3, "ratio {}", t2 / t1);
        let volume_time = 2.0 * 7.0 / 8.0 * 10.0 * GB / m.link.bandwidth;
        assert!(((t1 - volume_time) / t1).abs() < 1e-3);
    }

    #[test]
    fn latency_bandwidth_crossover_sits_at_the_alpha_beta_balance() {
        // The crossover size is where the alpha and beta terms are equal:
        // steps * latency == volume / bandwidth. For a ring all-reduce over
        // n peers that is bytes* = n * latency * bandwidth (per the
        // 2(n-1) steps and 2(n-1)/n volume factors cancelling).
        let m = nvlink_model();
        let n = 8usize;
        let crossover = n as f64 * m.link.latency * m.link.bandwidth;
        let t = m.ring_allreduce(crossover, n);
        let alpha = (2 * (n - 1)) as f64 * m.link.latency;
        // At the crossover the total is exactly twice the alpha term...
        assert!((t - 2.0 * alpha).abs() / t < 1e-9);
        // ...below it latency dominates, above it bandwidth does.
        let below = m.ring_allreduce(crossover / 100.0, n);
        let above = m.ring_allreduce(crossover * 100.0, n);
        assert!(below < 1.02 * alpha);
        assert!(above > 50.0 * alpha);
    }

    #[test]
    fn n1_and_zero_byte_edges_are_free_for_every_collective() {
        let m = nvlink_model();
        // n = 1: no peers, no cost, regardless of size.
        assert_eq!(m.ring_allreduce(f64::MAX, 1), 0.0);
        assert_eq!(m.master_exchange(f64::MAX, 1), 0.0);
        // zero bytes: nothing to move, even across many peers.
        assert_eq!(m.master_exchange(0.0, 8), 0.0);
        // n = 2 is the smallest paying configuration.
        assert!(m.ring_allreduce(1.0, 2) > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participant_allreduce_panics() {
        let _ = nvlink_model().ring_allreduce(1.0, 0);
    }

    #[test]
    fn inter_node_link_pays_more_latency_than_nvlink() {
        // The same collective over the InfiniBand fabric must cost at
        // least as much as over NVLink in both regimes.
        let nv = nvlink_model();
        let ib = CommModel::new(LinkSpec::infiniband_4x200g());
        assert!(ib.ring_allreduce(1.0, 8) >= nv.ring_allreduce(1.0, 8));
        assert!(ib.ring_allreduce(1.0 * GB, 8) >= nv.ring_allreduce(1.0 * GB, 8));
        assert!(ib.ring_sendrecv_step(1.0 * GB) >= nv.ring_sendrecv_step(1.0 * GB));
    }
}
