//! Elastic instances.
//!
//! An elastic instance is LoongServe's minimum independent execution unit
//! (paper §4): a full replica of the model weights spread over a fixed
//! number of GPUs by tensor parallelism. Instances never change their GPU
//! assignment at runtime — elasticity comes from regrouping instances into
//! ESP parallel groups, not from repartitioning weights.

use loong_cluster::gpu::LinkSpec;
use loong_cluster::topology::ClusterSpec;
use loong_simcore::ids::{GpuId, InstanceId, NodeId};
use serde::{Deserialize, Serialize};

/// A model replica bound to a fixed set of GPUs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ElasticInstance {
    /// Instance identifier.
    pub id: InstanceId,
    /// GPUs hosting this instance's tensor-parallel shards.
    pub gpus: Vec<GpuId>,
    /// The node hosting the instance (instances never span nodes).
    pub node: NodeId,
}

impl ElasticInstance {
    /// The tensor-parallel degree of the instance.
    pub fn tp(&self) -> usize {
        self.gpus.len()
    }
}

/// The fixed set of elastic instances carved out of a cluster.
///
/// # Examples
///
/// ```
/// use loong_esp::instance::InstanceRegistry;
/// use loong_cluster::topology::ClusterSpec;
///
/// // The paper's single-node configuration: 8 GPUs, TP=2 → 4 instances.
/// let reg = InstanceRegistry::build(&ClusterSpec::single_node_a800(8), 2);
/// assert_eq!(reg.num_instances(), 4);
/// assert_eq!(reg.tp(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceRegistry {
    cluster: ClusterSpec,
    instances: Vec<ElasticInstance>,
    tp: usize,
}

impl InstanceRegistry {
    /// Carves the cluster into instances of `tp` GPUs each, never crossing
    /// node boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `tp` is zero or does not divide the per-node GPU count.
    pub fn build(cluster: &ClusterSpec, tp: usize) -> Self {
        assert!(tp >= 1, "tensor parallel degree must be >= 1");
        assert!(
            cluster.gpus_per_node.is_multiple_of(tp),
            "tp={tp} must divide the {} GPUs per node so instances do not span nodes",
            cluster.gpus_per_node
        );
        let mut instances = Vec::new();
        let mut next_id = 0u64;
        for node_idx in 0..cluster.nodes {
            let node = NodeId(node_idx as u64);
            let gpus = cluster.gpus_on_node(node);
            for chunk in gpus.chunks(tp) {
                instances.push(ElasticInstance {
                    id: InstanceId(next_id),
                    gpus: chunk.to_vec(),
                    node,
                });
                next_id += 1;
            }
        }
        InstanceRegistry {
            cluster: cluster.clone(),
            instances,
            tp,
        }
    }

    /// The underlying cluster description.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The tensor-parallel degree shared by every instance.
    pub fn tp(&self) -> usize {
        self.tp
    }

    /// Number of elastic instances.
    pub fn num_instances(&self) -> usize {
        self.instances.len()
    }

    /// All instance identifiers in index order.
    pub fn all_ids(&self) -> Vec<InstanceId> {
        self.instances.iter().map(|i| i.id).collect()
    }

    /// The instance with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if the identifier is out of range.
    pub fn get(&self, id: InstanceId) -> &ElasticInstance {
        &self.instances[id.index()]
    }

    /// The link between GPUs of the same instance (always intra-node).
    pub fn intra_instance_link(&self) -> LinkSpec {
        self.cluster.intra_node_link
    }

    /// The bottleneck link among a set of instances: NVLink when they share
    /// a node, the inter-node fabric otherwise.
    pub fn link_between(&self, instances: &[InstanceId]) -> LinkSpec {
        if self.same_node(instances) {
            self.cluster.intra_node_link
        } else {
            self.cluster.inter_node_link
        }
    }

    /// Returns true if all the given instances share one node.
    pub fn same_node(&self, instances: &[InstanceId]) -> bool {
        match instances.first() {
            None => true,
            Some(&first) => {
                let node = self.get(first).node;
                instances.iter().all(|&i| self.get(i).node == node)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_tp2_yields_four_instances() {
        let reg = InstanceRegistry::build(&ClusterSpec::single_node_a800(8), 2);
        assert_eq!(reg.num_instances(), 4);
        for inst in reg.all_ids() {
            assert_eq!(reg.get(inst).tp(), 2);
            assert_eq!(reg.get(inst).node, NodeId(0));
        }
        // GPUs are disjoint and cover the cluster.
        let mut gpus: Vec<GpuId> = reg
            .all_ids()
            .iter()
            .flat_map(|&i| reg.get(i).gpus.clone())
            .collect();
        gpus.sort();
        gpus.dedup();
        assert_eq!(gpus.len(), 8);
    }

    #[test]
    fn two_node_instances_do_not_span_nodes() {
        let reg = InstanceRegistry::build(&ClusterSpec::two_node_a800(), 2);
        assert_eq!(reg.num_instances(), 8);
        for id in reg.all_ids() {
            let inst = reg.get(id);
            let nodes: Vec<NodeId> = inst
                .gpus
                .iter()
                .map(|&g| reg.cluster().node_of(g))
                .collect();
            assert!(nodes.iter().all(|&n| n == inst.node));
        }
    }

    #[test]
    fn link_selection_depends_on_node_placement() {
        let reg = InstanceRegistry::build(&ClusterSpec::two_node_a800(), 2);
        // Instances 0..4 are on node 0, 4..8 on node 1.
        let same = reg.link_between(&[InstanceId(0), InstanceId(1)]);
        let cross = reg.link_between(&[InstanceId(0), InstanceId(5)]);
        assert!(same.bandwidth > cross.bandwidth);
        assert!(reg.same_node(&[InstanceId(0), InstanceId(3)]));
        assert!(!reg.same_node(&[InstanceId(3), InstanceId(4)]));
        assert!(reg.same_node(&[]));
    }

    #[test]
    fn tp8_yields_one_instance_per_node() {
        let reg = InstanceRegistry::build(&ClusterSpec::single_node_a800(8), 8);
        assert_eq!(reg.num_instances(), 1);
        assert_eq!(reg.get(InstanceId(0)).tp(), 8);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn non_dividing_tp_panics() {
        let _ = InstanceRegistry::build(&ClusterSpec::single_node_a800(8), 3);
    }
}
