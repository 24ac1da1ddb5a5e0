//! ESP parallel groups.
//!
//! A parallel group is a set of elastic instances that jointly execute one
//! batch with sequence parallelism; the number of instances in the group is
//! the batch's degree of parallelism (DoP). The global manager picks a fresh
//! group for every iteration, which is how groups scale: a prefill group
//! scales *down* by retaining its KV on a subset of its members (§4.1, see
//! [`crate::prefill`]), and a decode group scales *up* by listing more
//! instances and masters (§4.2, see [`crate::decode`]). Neither moves KV.

use crate::instance::InstanceRegistry;
use loong_model::roofline::ParallelConfig;
use loong_simcore::ids::InstanceId;
use serde::{Deserialize, Serialize};

/// A set of elastic instances executing one batch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EspGroup {
    /// Member instances (unique, order defines the SP ring order).
    pub instances: Vec<InstanceId>,
    /// Master instances for distributed decoding (subset of `instances`).
    /// During prefill this is ignored.
    pub masters: Vec<InstanceId>,
}

impl EspGroup {
    /// Creates a group over the given instances with every instance acting
    /// as a master (the common multi-master configuration).
    ///
    /// # Panics
    ///
    /// Panics if `instances` is empty or contains duplicates.
    pub fn new(instances: Vec<InstanceId>) -> Self {
        let masters = instances.clone();
        Self::with_masters(instances, masters)
    }

    /// Creates a group with an explicit master set.
    ///
    /// # Panics
    ///
    /// Panics if `instances` is empty or has duplicates, or `masters` is
    /// empty or not a subset of `instances`.
    pub fn with_masters(instances: Vec<InstanceId>, masters: Vec<InstanceId>) -> Self {
        assert!(
            !instances.is_empty(),
            "a parallel group needs at least one instance"
        );
        assert!(
            instances
                .iter()
                .enumerate()
                .all(|(k, i)| !instances[..k].contains(i)),
            "duplicate instances in group"
        );
        assert!(
            !masters.is_empty(),
            "a parallel group needs at least one master"
        );
        assert!(
            masters.iter().all(|m| instances.contains(m)),
            "masters must be members of the group"
        );
        EspGroup { instances, masters }
    }

    /// The degree of parallelism (number of member instances).
    pub fn dop(&self) -> usize {
        self.instances.len()
    }

    /// Number of master instances.
    pub fn num_masters(&self) -> usize {
        self.masters.len()
    }

    /// The parallel configuration of this group given the registry's
    /// tensor-parallel degree.
    pub fn parallel_config(&self, registry: &InstanceRegistry) -> ParallelConfig {
        ParallelConfig::new(registry.tp(), self.dop())
    }

    /// Returns true if the instance is a member of the group.
    pub fn contains(&self, instance: InstanceId) -> bool {
        self.instances.contains(&instance)
    }

    /// Returns true if the instance is a master of the group.
    pub fn is_master(&self, instance: InstanceId) -> bool {
        self.masters.contains(&instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loong_cluster::topology::ClusterSpec;

    fn group() -> EspGroup {
        EspGroup::new(vec![
            InstanceId(0),
            InstanceId(1),
            InstanceId(2),
            InstanceId(3),
        ])
    }

    #[test]
    fn group_basics() {
        let g = group();
        assert_eq!(g.dop(), 4);
        assert_eq!(g.num_masters(), 4);
        assert!(g.contains(InstanceId(2)));
        assert!(g.is_master(InstanceId(2)));
        let reg = InstanceRegistry::build(&ClusterSpec::single_node_a800(8), 2);
        assert_eq!(g.parallel_config(&reg), ParallelConfig::new(2, 4));
    }

    #[test]
    #[should_panic(expected = "duplicate instances")]
    fn duplicate_members_rejected() {
        let _ = EspGroup::new(vec![InstanceId(0), InstanceId(0)]);
    }

    #[test]
    #[should_panic(expected = "at least one master")]
    fn empty_masters_rejected() {
        let _ = EspGroup::with_masters(vec![InstanceId(0)], vec![]);
    }
}
