//! Cluster topology: nodes, GPUs and the links between them.
//!
//! The paper's testbed is one (and for Figure 11, two) server(s) with eight
//! A800 GPUs each, fully connected by NVLink within a node and by four
//! 200 Gbps InfiniBand NICs across nodes. [`ClusterSpec`] captures exactly
//! this shape: the GPUs on each node and the two links, one within a node
//! and one across nodes, that the communication cost models in
//! [`crate::comm`] are priced over.

use crate::gpu::{GpuSpec, LinkSpec, GIB};
use loong_simcore::ids::{GpuId, NodeId};

/// Static description of a homogeneous GPU cluster.
///
/// # Examples
///
/// ```
/// use loong_cluster::topology::ClusterSpec;
/// use loong_simcore::ids::{GpuId, NodeId};
///
/// let cluster = ClusterSpec::two_node_a800();
/// assert_eq!(cluster.total_gpus(), 16);
/// assert_eq!(cluster.gpus_on_node(NodeId(1))[0], GpuId(8));
/// ```
#[derive(Debug, Clone, PartialEq)]
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
        let all: Vec<GpuId> = (0..8usize).map(GpuId::from).collect();
        assert_eq!(c.gpus_on_node(NodeId(0)), all);
    }

    #[test]
    fn two_node_splits_gpus() {
        let c = ClusterSpec::two_node_a800();
        assert_eq!(c.total_gpus(), 16);
        assert_eq!(c.gpus_on_node(NodeId(0)).last(), Some(&GpuId(7)));
        assert_eq!(c.gpus_on_node(NodeId(1)).first(), Some(&GpuId(8)));
        assert_eq!(c.gpus_on_node(NodeId(1)).len(), 8);
    }

    #[test]
    fn link_selection_matches_topology() {
        // The testbed's NVLink within a node, InfiniBand across nodes.
        let c = ClusterSpec::two_node_a800();
        assert_eq!(c.intra_node_link, LinkSpec::nvlink_a800());
        assert_eq!(c.inter_node_link, LinkSpec::infiniband_4x200g());
        assert!(c.intra_node_link.bandwidth > c.inter_node_link.bandwidth);
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
        for node in 0..3usize {
            let gpus: Vec<GpuId> = (4 * node..4 * node + 4).map(GpuId::from).collect();
            assert_eq!(c.gpus_on_node(NodeId::from(node)), gpus);
        }
        // The spec keeps the links it was built with.
        assert_eq!(c.intra_node_link, LinkSpec::nvlink_a800());
        assert_eq!(c.inter_node_link, LinkSpec::infiniband_4x200g());
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
