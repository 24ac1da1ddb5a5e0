//! Cluster topology: nodes, GPUs and the links between them.
//!
//! The paper's testbed is one (and for Figure 11, two) server(s) with eight
//! A800 GPUs each, fully connected by NVLink within a node and by four
//! 200 Gbps InfiniBand NICs across nodes. [`ClusterSpec`] captures exactly
//! this shape and answers "what link connects GPU *a* to GPU *b*?", which
//! the communication cost models in [`crate::comm`] build on.

use crate::gpu::{GpuSpec, LinkSpec, GIB};
use loong_simcore::ids::{GpuId, NodeId};
use serde::{Deserialize, Serialize};

/// Static description of a homogeneous GPU cluster.
///
/// # Examples
///
/// ```
/// use loong_cluster::topology::ClusterSpec;
///
/// let cluster = ClusterSpec::single_node_a800(8);
/// assert_eq!(cluster.total_gpus(), 8);
/// assert_eq!(cluster.node_of(loong_simcore::ids::GpuId(3)), loong_simcore::ids::NodeId(0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of server nodes.
    pub nodes: usize,
    /// Number of GPUs on each node.
    pub gpus_per_node: usize,
    /// Device model shared by all GPUs.
    pub gpu: GpuSpec,
    /// Link between two GPUs on the same node.
    pub intra_node_link: LinkSpec,
    /// Link between two GPUs on different nodes.
    pub inter_node_link: LinkSpec,
    /// Host DRAM per node in bytes, backing the KV swap tier.
    pub host_memory_bytes: f64,
    /// Device↔host link (PCIe) over which KV swap traffic is costed.
    pub host_link: LinkSpec,
}

impl ClusterSpec {
    /// Default host DRAM per node: 1 TiB, the typical fit-out of an 8-GPU
    /// A800 server.
    pub const DEFAULT_HOST_MEMORY_BYTES: f64 = 1024.0 * GIB;

    /// A single node with `gpus` A800 GPUs connected by NVLink — the primary
    /// testbed of the paper (Figures 10, 12–15 use `gpus = 8`).
    pub fn single_node_a800(gpus: usize) -> Self {
        ClusterSpec {
            nodes: 1,
            gpus_per_node: gpus,
            gpu: GpuSpec::a800_80gb(),
            intra_node_link: LinkSpec::nvlink_a800(),
            inter_node_link: LinkSpec::infiniband_4x200g(),
            host_memory_bytes: Self::DEFAULT_HOST_MEMORY_BYTES,
            host_link: LinkSpec::pcie_gen4_x16(),
        }
    }

    /// Two nodes with eight A800 GPUs each — the multi-node testbed used for
    /// Figure 11.
    pub fn two_node_a800() -> Self {
        ClusterSpec {
            nodes: 2,
            gpus_per_node: 8,
            gpu: GpuSpec::a800_80gb(),
            intra_node_link: LinkSpec::nvlink_a800(),
            inter_node_link: LinkSpec::infiniband_4x200g(),
            host_memory_bytes: Self::DEFAULT_HOST_MEMORY_BYTES,
            host_link: LinkSpec::pcie_gen4_x16(),
        }
    }

    /// A custom homogeneous cluster.
    ///
    /// Construction is checked by [`ClusterSpec::validate`] — the single
    /// source of truth for topology invariants — so `custom` can never
    /// accept a spec that `validate` would reject.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails validation: zero `nodes` or
    /// `gpus_per_node`, or an invalid [`GpuSpec`].
    pub fn custom(
        nodes: usize,
        gpus_per_node: usize,
        gpu: GpuSpec,
        intra_node_link: LinkSpec,
        inter_node_link: LinkSpec,
    ) -> Self {
        let spec = ClusterSpec {
            nodes,
            gpus_per_node,
            gpu,
            intra_node_link,
            inter_node_link,
            host_memory_bytes: Self::DEFAULT_HOST_MEMORY_BYTES,
            host_link: LinkSpec::pcie_gen4_x16(),
        };
        if let Err(err) = spec.validate() {
            panic!("invalid custom cluster: {err}");
        }
        spec
    }

    /// Total number of GPUs in the cluster.
    pub fn total_gpus(&self) -> usize {
        self.nodes * self.gpus_per_node
    }

    /// The node hosting `gpu`.
    ///
    /// # Panics
    ///
    /// Panics if the GPU index is out of range.
    pub fn node_of(&self, gpu: GpuId) -> NodeId {
        let idx = gpu.index();
        assert!(
            idx < self.total_gpus(),
            "GPU {gpu} out of range (total {})",
            self.total_gpus()
        );
        NodeId((idx / self.gpus_per_node) as u64)
    }

    /// All GPU identifiers on `node`.
    pub fn gpus_on_node(&self, node: NodeId) -> Vec<GpuId> {
        let n = node.index();
        assert!(
            n < self.nodes,
            "node {node} out of range (total {})",
            self.nodes
        );
        let start = n * self.gpus_per_node;
        (start..start + self.gpus_per_node)
            .map(GpuId::from)
            .collect()
    }

    /// All GPU identifiers in the cluster, in index order.
    pub fn all_gpus(&self) -> Vec<GpuId> {
        (0..self.total_gpus()).map(GpuId::from).collect()
    }

    /// The link connecting two GPUs: NVLink if they share a node, the
    /// inter-node fabric otherwise. A GPU talking to itself has an
    /// effectively infinite-bandwidth, zero-latency path, approximated by
    /// the intra-node link.
    pub fn link_between(&self, a: GpuId, b: GpuId) -> LinkSpec {
        if self.node_of(a) == self.node_of(b) {
            self.intra_node_link
        } else {
            self.inter_node_link
        }
    }

    /// The bottleneck link among a set of GPUs, i.e. the link a ring
    /// collective spanning all of them is limited by.
    ///
    /// Returns the intra-node link for an empty or single-GPU set.
    pub fn bottleneck_link(&self, gpus: &[GpuId]) -> LinkSpec {
        let mut worst = self.intra_node_link;
        for (i, &a) in gpus.iter().enumerate() {
            for &b in &gpus[i + 1..] {
                worst = worst.bottleneck(&self.link_between(a, b));
            }
        }
        worst
    }

    /// Returns true if all GPUs in the set are on the same node.
    pub fn is_single_node(&self, gpus: &[GpuId]) -> bool {
        match gpus.first() {
            None => true,
            Some(&first) => {
                let node = self.node_of(first);
                gpus.iter().all(|&g| self.node_of(g) == node)
            }
        }
    }

    /// Validates the topology parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("cluster must have at least one node".to_string());
        }
        if self.gpus_per_node == 0 {
            return Err("nodes must have at least one GPU".to_string());
        }
        if !(self.host_memory_bytes > 0.0 && self.host_memory_bytes.is_finite()) {
            return Err("host_memory_bytes must be positive".to_string());
        }
        self.gpu.validate()
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec::single_node_a800(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_maps_all_gpus_to_node_zero() {
        let c = ClusterSpec::single_node_a800(8);
        for g in c.all_gpus() {
            assert_eq!(c.node_of(g), NodeId(0));
        }
        assert!(c.is_single_node(&c.all_gpus()));
    }

    #[test]
    fn two_node_splits_gpus() {
        let c = ClusterSpec::two_node_a800();
        assert_eq!(c.total_gpus(), 16);
        assert_eq!(c.node_of(GpuId(7)), NodeId(0));
        assert_eq!(c.node_of(GpuId(8)), NodeId(1));
        assert_eq!(c.gpus_on_node(NodeId(1)).len(), 8);
        assert!(!c.is_single_node(&[GpuId(7), GpuId(8)]));
    }

    #[test]
    fn link_selection_matches_topology() {
        let c = ClusterSpec::two_node_a800();
        let intra = c.link_between(GpuId(0), GpuId(1));
        let inter = c.link_between(GpuId(0), GpuId(15));
        assert!(intra.bandwidth > inter.bandwidth);
    }

    #[test]
    fn bottleneck_link_spans_nodes() {
        let c = ClusterSpec::two_node_a800();
        let all: Vec<GpuId> = c.all_gpus();
        let b = c.bottleneck_link(&all);
        assert_eq!(b.bandwidth, c.inter_node_link.bandwidth);
        let node0 = c.gpus_on_node(NodeId(0));
        let b0 = c.bottleneck_link(&node0);
        assert_eq!(b0.bandwidth, c.intra_node_link.bandwidth);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_gpu_panics() {
        let c = ClusterSpec::single_node_a800(8);
        let _ = c.node_of(GpuId(8));
    }

    #[test]
    fn empty_set_is_single_node() {
        let c = ClusterSpec::single_node_a800(8);
        assert!(c.is_single_node(&[]));
        let b = c.bottleneck_link(&[]);
        assert_eq!(b.bandwidth, c.intra_node_link.bandwidth);
    }

    #[test]
    fn validate_catches_bad_config() {
        let mut c = ClusterSpec::single_node_a800(8);
        c.nodes = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn host_tier_defaults_and_overrides() {
        let c = ClusterSpec::single_node_a800(8);
        assert_eq!(c.host_memory_bytes, ClusterSpec::DEFAULT_HOST_MEMORY_BYTES);
        assert_eq!(c.host_link, LinkSpec::pcie_gen4_x16());
        let mut big = c.clone();
        big.host_memory_bytes = 2.0 * ClusterSpec::DEFAULT_HOST_MEMORY_BYTES;
        big.host_link = LinkSpec::new(50e9, 5e-6);
        assert!(big.validate().is_ok());
        assert_eq!(big.host_link.bandwidth, 50e9);
    }

    #[test]
    #[should_panic(expected = "host_memory_bytes")]
    fn with_host_rejects_non_positive_memory() {
        let mut c = ClusterSpec::single_node_a800(8);
        c.host_memory_bytes = 0.0;
        if let Err(err) = c.validate() {
            panic!("invalid host tier: {err}");
        }
    }

    #[test]
    fn custom_builds_valid_multi_node_specs() {
        let c = ClusterSpec::custom(
            3,
            4,
            GpuSpec::a800_80gb(),
            LinkSpec::nvlink_a800(),
            LinkSpec::infiniband_4x200g(),
        );
        assert_eq!(c.total_gpus(), 12);
        assert!(c.validate().is_ok());
    }

    // Regression: `custom` must route through `validate` rather than
    // asserting a private copy of the preconditions, so the two can never
    // drift. The panic messages below are the *validate* messages.
    #[test]
    #[should_panic(expected = "at least one node")]
    fn custom_rejects_zero_nodes_via_validate() {
        let _ = ClusterSpec::custom(
            0,
            8,
            GpuSpec::a800_80gb(),
            LinkSpec::nvlink_a800(),
            LinkSpec::infiniband_4x200g(),
        );
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn custom_rejects_zero_gpus_via_validate() {
        let _ = ClusterSpec::custom(
            2,
            0,
            GpuSpec::a800_80gb(),
            LinkSpec::nvlink_a800(),
            LinkSpec::infiniband_4x200g(),
        );
    }

    // The old inline asserts never checked the GPU; going through
    // `validate` makes `custom` inherit every check it has — including
    // ones added later.
    #[test]
    #[should_panic(expected = "peak_flops must be positive")]
    fn custom_rejects_invalid_gpu_via_validate() {
        let mut gpu = GpuSpec::a800_80gb();
        gpu.peak_flops = -1.0;
        let _ = ClusterSpec::custom(
            1,
            8,
            gpu,
            LinkSpec::nvlink_a800(),
            LinkSpec::infiniband_4x200g(),
        );
    }

    #[test]
    fn three_node_custom_spec_maps_nodes_and_links() {
        let c = ClusterSpec::custom(
            3,
            4,
            GpuSpec::a800_80gb(),
            LinkSpec::nvlink_a800(),
            LinkSpec::infiniband_4x200g(),
        );
        // Node boundaries at GPU indices 0..4, 4..8, 8..12.
        assert_eq!(c.node_of(GpuId(0)), NodeId(0));
        assert_eq!(c.node_of(GpuId(3)), NodeId(0));
        assert_eq!(c.node_of(GpuId(4)), NodeId(1));
        assert_eq!(c.node_of(GpuId(11)), NodeId(2));
        assert_eq!(
            c.gpus_on_node(NodeId(2)),
            vec![GpuId(8), GpuId(9), GpuId(10), GpuId(11)]
        );
        // Per-node GPU sets are single-node; any cross-node set is not.
        for node in 0..3 {
            assert!(c.is_single_node(&c.gpus_on_node(NodeId(node as u64))));
        }
        assert!(!c.is_single_node(&[GpuId(3), GpuId(4)]));
        assert!(!c.is_single_node(&[GpuId(0), GpuId(5), GpuId(9)]));
        // Bottleneck: intra-node within a node, inter-node as soon as the
        // set spans a boundary.
        let b_intra = c.bottleneck_link(&c.gpus_on_node(NodeId(1)));
        assert_eq!(b_intra.bandwidth, c.intra_node_link.bandwidth);
        let b_cross = c.bottleneck_link(&[GpuId(0), GpuId(4), GpuId(8)]);
        assert_eq!(b_cross.bandwidth, c.inter_node_link.bandwidth);
    }

    #[test]
    fn single_gpu_set_bottleneck_is_intra_node() {
        let c = ClusterSpec::two_node_a800();
        let b = c.bottleneck_link(&[GpuId(9)]);
        assert_eq!(b.bandwidth, c.intra_node_link.bandwidth);
        assert!(c.is_single_node(&[GpuId(9)]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gpus_on_out_of_range_node_panics() {
        let c = ClusterSpec::two_node_a800();
        let _ = c.gpus_on_node(NodeId(2));
    }

    #[test]
    fn validate_surfaces_gpu_errors_on_multi_node_specs() {
        let mut c = ClusterSpec::two_node_a800();
        assert!(c.validate().is_ok());
        c.gpu.memory_bytes = 0.0;
        let err = c.validate().expect_err("invalid GPU must fail");
        assert!(err.contains("memory_bytes"), "unexpected error: {err}");
        c.gpu = GpuSpec::a800_80gb();
        c.gpus_per_node = 0;
        assert!(c.validate().is_err());
    }
}
