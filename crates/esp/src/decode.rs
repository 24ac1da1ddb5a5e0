//! Distributed decoding with single- and multi-master execution.
//!
//! LoongServe extends sequence parallelism to the decode phase (paper §4.2):
//! every instance of a parallel group computes attention over the KV tokens
//! it already holds, while one or more *master* instances drive the dense
//! layers, hold the queries, and store the newly generated KV of the
//! requests assigned to them. Scaling a decode group up therefore needs no
//! KV movement at all — new instances simply become additional masters.

use crate::group::EspGroup;
use crate::instance::InstanceRegistry;
use loong_kvcache::pool::KvError;
use loong_kvcache::unified::UnifiedKvPool;
use loong_model::roofline::{CostModel, IterationCost};
use loong_simcore::ids::{InstanceId, RequestId};
use serde::{Deserialize, Serialize};

/// One request taking part in a decode iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecodeRequest {
    /// The request.
    pub id: RequestId,
    /// Current context length (prompt + generated so far) in tokens.
    pub context_len: u64,
    /// The master instance that drives this request and stores its new KV.
    pub master: InstanceId,
}

/// A fully specified decode iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecodePlan {
    /// The group executing the iteration.
    pub group: EspGroup,
    /// The batch, each request bound to a master instance.
    pub requests: Vec<DecodeRequest>,
}

/// Errors surfaced while building a decode plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecodePlanError {
    /// The batch is empty.
    EmptyBatch,
    /// No master has a free KV slot for a request's next token.
    NoMasterCapacity {
        /// The request that could not be placed.
        request: RequestId,
    },
}

impl std::fmt::Display for DecodePlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodePlanError::EmptyBatch => write!(f, "decode batch is empty"),
            DecodePlanError::NoMasterCapacity { request } => {
                write!(f, "no master instance has a free KV slot for {request}")
            }
        }
    }
}

impl std::error::Error for DecodePlanError {}

impl DecodePlan {
    /// Builds a decode plan by assigning each request to a master.
    ///
    /// Assignment prefers the master that already holds the request's KV
    /// (keeping a request's cache on one instance and the query exchange
    /// volume low) and otherwise follows the paper's rule of keeping the
    /// number of newly generated KV tokens "as uniform as possible" across
    /// masters (§5.4), always respecting per-master free KV slots.
    pub fn build(
        group: EspGroup,
        requests: &[(RequestId, u64)],
        pool: &UnifiedKvPool,
    ) -> Result<Self, DecodePlanError> {
        if requests.is_empty() {
            return Err(DecodePlanError::EmptyBatch);
        }
        // Per master: remaining free slots and requests assigned so far,
        // updated as requests are assigned.
        let mut free: Vec<(InstanceId, u64, u64)> = group
            .masters
            .iter()
            .map(|&m| (m, pool.instance(m).free(), 0))
            .collect();
        // Most free slots first so load balances toward emptier masters.
        free.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut planned = Vec::with_capacity(requests.len());
        for &(id, context_len) in requests {
            // Locality first: the master already holding most of this
            // request's KV keeps it, as long as it has a free slot (the
            // free column lists masters only); the lower id wins a tie.
            let home = pool
                .locations_ref(id)
                .iter()
                .filter(|&&(m, _)| free.iter().any(|&(fm, f, _)| fm == m && f > 0))
                .max_by_key(|&&(m, tokens)| (tokens, u64::MAX - m.raw()))
                .map(|&(m, _)| m);
            // Otherwise pick the master with the fewest assignments among
            // those with a free slot; break ties toward more free slots.
            let choice = home.or_else(|| {
                free.iter()
                    .filter(|&&(_, f, _)| f > 0)
                    .min_by_key(|&&(m, f, assigned)| (assigned, u64::MAX - f, m.raw()))
                    .map(|&(m, _, _)| m)
            });
            let Some(master) = choice else {
                return Err(DecodePlanError::NoMasterCapacity { request: id });
            };
            if let Some(slot) = free.iter_mut().find(|(m, _, _)| *m == master) {
                slot.1 -= 1;
                slot.2 += 1;
            }
            planned.push(DecodeRequest {
                id,
                context_len,
                master,
            });
        }
        Ok(DecodePlan {
            group,
            requests: planned,
        })
    }

    /// The batch size.
    pub fn batch_size(&self) -> usize {
        self.requests.len()
    }

    /// Validates the plan's structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        for r in &self.requests {
            if !self.group.is_master(r.master) {
                return Err(format!(
                    "{}: master {} is not a master of the group",
                    r.id, r.master
                ));
            }
        }
        Ok(())
    }
}

/// The result of executing one decode iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecodeOutcome {
    /// Predicted iteration cost.
    pub cost: IterationCost,
    /// Tokens generated (one per request in the batch).
    pub generated_tokens: u64,
}

/// Executes a decode plan: appends one KV slot per request on its master and
/// returns the iteration cost.
pub fn execute_decode(
    plan: &DecodePlan,
    cost_model: &CostModel,
    registry: &InstanceRegistry,
    pool: &mut UnifiedKvPool,
) -> Result<DecodeOutcome, KvError> {
    plan.validate()
        .expect("decode plans are validated at construction");
    let parallel = plan.group.parallel_config(registry);
    let link = registry.link_between(&plan.group.instances);
    let cost = cost_model.decode_cost(
        plan.requests.iter().map(|r| &r.context_len),
        parallel,
        plan.group.num_masters().min(plan.batch_size()).max(1),
        link,
    );
    for r in &plan.requests {
        pool.append(r.id, r.master, 1)?;
    }
    Ok(DecodeOutcome {
        cost,
        generated_tokens: plan.requests.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use loong_cluster::topology::ClusterSpec;
    use loong_model::config::ModelConfig;

    fn setup() -> (InstanceRegistry, CostModel, UnifiedKvPool) {
        let registry = InstanceRegistry::build(&ClusterSpec::single_node_a800(8), 2);
        let cost_model = CostModel::new(ModelConfig::lwm_1m_text());
        let pool = UnifiedKvPool::new(4, 100_000);
        (registry, cost_model, pool)
    }

    fn group_of(ids: &[u64]) -> EspGroup {
        EspGroup::new(ids.iter().map(|&i| InstanceId(i)).collect())
    }

    #[test]
    fn masters_are_load_balanced() {
        let (_registry, _cm, pool) = setup();
        let group = group_of(&[0, 1]);
        let requests: Vec<(RequestId, u64)> = (0..10).map(|i| (RequestId(i), 1000)).collect();
        let plan = DecodePlan::build(group, &requests, &pool).expect("capacity");
        for m in [InstanceId(0), InstanceId(1)] {
            assert_eq!(plan.requests.iter().filter(|r| r.master == m).count(), 5);
        }
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn full_master_is_skipped() {
        let (_registry, _cm, _) = setup();
        let mut pool = UnifiedKvPool::with_capacities(&[10, 100_000]);
        // Fill instance 0 completely.
        pool.append(RequestId(99), InstanceId(0), 10).expect("room");
        let group = group_of(&[0, 1]);
        let requests: Vec<(RequestId, u64)> = (0..4).map(|i| (RequestId(i), 100)).collect();
        let plan = DecodePlan::build(group, &requests, &pool).expect("instance 1 has room");
        assert!(plan.requests.iter().all(|r| r.master == InstanceId(1)));
    }

    #[test]
    fn home_master_holds_most_of_the_request_with_lower_ids_winning_ties() {
        // Masters 0-4; instance 5 is a member but no master. Instance 0 is
        // full.
        let mut pool = UnifiedKvPool::with_capacities(&[100, 1_000, 1_000, 1_000, 1_000, 1_000]);
        for (id, inst, tokens) in [
            (0, 1, 30),
            (0, 2, 50),
            (1, 3, 40),
            (1, 1, 40),
            (2, 0, 100),
            (2, 3, 10),
            (3, 5, 500),
        ] {
            pool.append(RequestId(id), InstanceId(inst), tokens)
                .expect("room");
        }
        let instances: Vec<InstanceId> = (0..6).map(InstanceId).collect();
        let group = EspGroup::with_masters(instances.clone(), instances[..5].to_vec());
        let requests: Vec<(RequestId, u64)> = (0..4).map(|i| (RequestId(i), 1_000)).collect();
        let plan = DecodePlan::build(group, &requests, &pool).expect("capacity");
        let masters: Vec<u64> = plan.requests.iter().map(|r| r.master.raw()).collect();
        // Request 0: the master holding most of it, not the lowest id.
        // Request 1: a 40/40 tie goes to the lower id. Request 2: its
        // largest holder is full, so the next one takes it. Request 3:
        // only a non-master holds it, so the least-assigned master does.
        assert_eq!(masters, vec![2, 1, 3, 4]);
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn no_capacity_anywhere_is_an_error() {
        let mut pool = UnifiedKvPool::with_capacities(&[2, 2]);
        pool.append(RequestId(99), InstanceId(0), 2).expect("room");
        pool.append(RequestId(98), InstanceId(1), 2).expect("room");
        let group = group_of(&[0, 1]);
        let err = DecodePlan::build(group, &[(RequestId(0), 10)], &pool).unwrap_err();
        assert!(matches!(err, DecodePlanError::NoMasterCapacity { .. }));
    }

    #[test]
    fn empty_batch_is_rejected() {
        let (_registry, _cm, pool) = setup();
        let err = DecodePlan::build(group_of(&[0]), &[], &pool).unwrap_err();
        assert_eq!(err, DecodePlanError::EmptyBatch);
    }

    #[test]
    fn execute_appends_one_token_per_request() {
        let (registry, cm, mut pool) = setup();
        let group = group_of(&[0, 1, 2, 3]);
        let requests: Vec<(RequestId, u64)> = (0..8).map(|i| (RequestId(i), 5_000)).collect();
        let plan = DecodePlan::build(group, &requests, &pool).expect("capacity");
        let before = pool.total_used();
        let outcome = execute_decode(&plan, &cm, &registry, &mut pool).expect("append");
        assert_eq!(outcome.generated_tokens, 8);
        assert_eq!(pool.total_used(), before + 8);
        assert!(outcome.cost.total() > 0.0);
        for i in 0..8 {
            assert_eq!(pool.tokens_of(RequestId(i)), 1);
        }
    }

    #[test]
    fn more_masters_speed_up_large_batches() {
        // The multi-master mechanism should show its Figure 14b advantage
        // end-to-end through the plan/execute path as well.
        let (registry, cm, pool) = setup();
        let requests: Vec<(RequestId, u64)> = (0..512).map(|i| (RequestId(i), 64)).collect();

        let single_master = EspGroup::with_masters(
            vec![InstanceId(0), InstanceId(1), InstanceId(2), InstanceId(3)],
            vec![InstanceId(0)],
        );
        let multi_master = group_of(&[0, 1, 2, 3]);

        let mut pool_a = pool.clone();
        let mut pool_b = pool;
        let plan_a = DecodePlan::build(single_master, &requests, &pool_a).expect("capacity");
        let plan_b = DecodePlan::build(multi_master, &requests, &pool_b).expect("capacity");
        let cost_a = execute_decode(&plan_a, &cm, &registry, &mut pool_a)
            .expect("ok")
            .cost
            .total();
        let cost_b = execute_decode(&plan_b, &cm, &registry, &mut pool_b)
            .expect("ok")
            .cost
            .total();
        assert!(
            cost_a / cost_b > 1.3,
            "multi-master speedup {}",
            cost_a / cost_b
        );
    }

    #[test]
    fn master_validation_catches_foreign_masters() {
        let plan = DecodePlan {
            group: group_of(&[0, 1]),
            requests: vec![DecodeRequest {
                id: RequestId(0),
                context_len: 10,
                master: InstanceId(3),
            }],
        };
        assert!(plan.validate().is_err());
    }

    #[test]
    fn page_sparse_policy_flattens_esp_decode_cost() {
        // Page-sparse decode threads through the multi-master execution
        // path: long-context decode gets cheaper than dense, and the cost
        // saturates in context length beyond the token budget.
        use loong_model::attention::AttentionCostPolicy;
        let (registry, dense_cm, pool) = setup();
        let sparse_cm = CostModel::builder(dense_cm.model.clone())
            .attention(AttentionCostPolicy::page_sparse())
            .build();
        let group = group_of(&[0, 1, 2, 3]);

        let run = |cm: &CostModel, context: u64| {
            let requests: Vec<(RequestId, u64)> = (0..8).map(|i| (RequestId(i), context)).collect();
            let mut pool = pool.clone();
            let plan = DecodePlan::build(group.clone(), &requests, &pool).expect("capacity");
            execute_decode(&plan, cm, &registry, &mut pool)
                .expect("append")
                .cost
                .total()
        };

        let dense_100k = run(&dense_cm, 100_000);
        let sparse_100k = run(&sparse_cm, 100_000);
        let sparse_400k = run(&sparse_cm, 400_000);
        assert!(
            sparse_100k < dense_100k,
            "sparse {sparse_100k} should beat dense {dense_100k}"
        );
        assert!(
            (sparse_400k - sparse_100k).abs() / sparse_100k < 0.01,
            "sparse decode should be flat: {sparse_100k} vs {sparse_400k}"
        );
    }
}
