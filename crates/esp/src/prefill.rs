//! Prefill execution with proactive scale-down.
//!
//! During a sequence-parallel prefill, the key-value tensors of every token
//! circulate through all instances of the group (StripedAttention). The
//! proactive scale-down mechanism (paper §4.1) piggybacks on that ring:
//! instead of writing KV wherever it was computed and migrating it later,
//! each instance of the *post-prefill* (smaller) group selectively retains
//! the tokens assigned to it as they pass by. The prefill therefore finishes
//! with the KV already laid out for the decode phase, at any token-level
//! placement, with no extra communication.

use crate::group::EspGroup;
use crate::instance::InstanceRegistry;
use loong_kvcache::placement::{PlacementPlan, PlacementStrategy};
use loong_kvcache::pool::KvError;
use loong_kvcache::unified::UnifiedKvPool;
use loong_model::roofline::{CostModel, IterationCost};
use loong_simcore::ids::{InstanceId, RequestId};
use serde::{Deserialize, Serialize};

/// One request taking part in a prefill iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefillRequest {
    /// The request.
    pub id: RequestId,
    /// Prompt length in tokens.
    pub input_len: u64,
}

/// A fully specified prefill iteration: which group runs it, which requests
/// it contains, which instances survive the proactive scale-down, and where
/// every request's KV tokens are retained.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrefillPlan {
    /// The group executing the prefill (its DoP is the prefill DoP).
    pub group: EspGroup,
    /// The batch.
    pub requests: Vec<PrefillRequest>,
    /// Instances that remain after the prefill (the decode-phase group).
    /// Equal to `group.instances` when no scale-down is requested.
    pub retain_on: Vec<InstanceId>,
    /// Per-request KV retention placement; every span targets a member of
    /// `retain_on`.
    pub placements: Vec<PlacementPlan>,
}

/// Errors surfaced while building a prefill plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrefillPlanError {
    /// The retained instances do not have enough total free KV slots.
    InsufficientKvCapacity {
        /// Tokens that needed placing.
        requested: u64,
        /// Free slots available on the retained instances.
        available: u64,
    },
    /// The retained set is empty or not a subset of the group.
    InvalidRetention,
    /// The batch is empty.
    EmptyBatch,
}

impl std::fmt::Display for PrefillPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrefillPlanError::InsufficientKvCapacity { requested, available } => write!(
                f,
                "prefill batch needs {requested} KV slots but the retained instances only have {available}"
            ),
            PrefillPlanError::InvalidRetention => write!(f, "retained instances must be a non-empty subset of the group"),
            PrefillPlanError::EmptyBatch => write!(f, "prefill batch is empty"),
        }
    }
}

impl std::error::Error for PrefillPlanError {}

impl PrefillPlan {
    /// Builds a prefill plan, choosing a balanced token-level retention
    /// placement over the free slots of `retain_on`.
    ///
    /// `retain_on` is the scheduler's proactive scale-down decision: pass
    /// the full group membership for "no scale-down".
    pub fn build(
        group: EspGroup,
        requests: Vec<PrefillRequest>,
        retain_on: Vec<InstanceId>,
        pool: &UnifiedKvPool,
    ) -> Result<Self, PrefillPlanError> {
        if requests.is_empty() {
            return Err(PrefillPlanError::EmptyBatch);
        }
        if retain_on.is_empty() || !retain_on.iter().all(|i| group.contains(*i)) {
            return Err(PrefillPlanError::InvalidRetention);
        }
        let mut free = pool.free_slots_on(&retain_on);
        let total_free: u64 = free.iter().map(|(_, f)| f).sum();
        let total_tokens: u64 = requests.iter().map(|r| r.input_len).sum();
        if total_free < total_tokens {
            return Err(PrefillPlanError::InsufficientKvCapacity {
                requested: total_tokens,
                available: total_free,
            });
        }
        // Place requests one by one on the (shrinking) free slots so the
        // combined placement is feasible. Largest requests first keeps the
        // balanced splits well shaped.
        let mut ordered = requests.clone();
        ordered.sort_by(|a, b| b.input_len.cmp(&a.input_len).then(a.id.cmp(&b.id)));
        let mut placements = Vec::with_capacity(ordered.len());
        for req in &ordered {
            let plan = loong_kvcache::placement::plan_placement(
                req.id,
                req.input_len,
                &free,
                PlacementStrategy::Balanced,
            )
            .ok_or(PrefillPlanError::InsufficientKvCapacity {
                requested: total_tokens,
                available: total_free,
            })?;
            for &(inst, tokens) in &plan.spans {
                let slot = free
                    .iter_mut()
                    .find(|(i, _)| *i == inst)
                    .expect("placement only uses candidate instances");
                slot.1 -= tokens;
            }
            placements.push(plan);
        }
        Ok(PrefillPlan {
            group,
            requests,
            retain_on,
            placements,
        })
    }

    /// Total prompt tokens processed by this iteration.
    pub fn total_tokens(&self) -> u64 {
        self.requests.iter().map(|r| r.input_len).sum()
    }

    /// The input lengths of the batch, in request order.
    pub fn input_lens(&self) -> Vec<u64> {
        self.requests.iter().map(|r| r.input_len).collect()
    }

    /// Returns true if the plan scales the group down after the prefill.
    pub fn scales_down(&self) -> bool {
        self.retain_on.len() < self.group.dop()
    }

    /// Validates the plan's structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.placements.len() != self.requests.len() {
            return Err("one placement per request is required".to_string());
        }
        for p in &self.placements {
            p.validate()?;
            if !p.spans.iter().all(|(i, _)| self.retain_on.contains(i)) {
                return Err(format!(
                    "{}: placement targets an instance outside the retained set",
                    p.request
                ));
            }
        }
        let placed: u64 = self.placements.iter().map(|p| p.total_tokens()).sum();
        if placed != self.total_tokens() {
            return Err(format!(
                "placements cover {placed} tokens but the batch has {}",
                self.total_tokens()
            ));
        }
        Ok(())
    }
}

/// The result of executing a prefill iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrefillOutcome {
    /// Predicted iteration cost, including any proactive scale-down
    /// overhead.
    pub cost: IterationCost,
    /// Tokens written into the unified pool by this iteration.
    pub retained_tokens: u64,
}

/// Executes a prefill plan: commits every retention placement to the unified
/// pool and returns the iteration cost.
///
/// On a KV commit failure the pool may hold the placements committed before
/// the failing one; callers treat this as a fatal scheduling bug (plans are
/// validated against the same pool before execution), so no rollback is
/// attempted.
pub fn execute_prefill(
    plan: &PrefillPlan,
    cost_model: &CostModel,
    registry: &InstanceRegistry,
    pool: &mut UnifiedKvPool,
) -> Result<PrefillOutcome, KvError> {
    plan.validate()
        .expect("prefill plans are validated at construction");
    let parallel = plan.group.parallel_config(registry);
    let link = registry.link_between(&plan.group.instances);
    let mut cost = cost_model.prefill_cost(&plan.input_lens(), parallel, link);
    if plan.scales_down() {
        cost.scaling_s = cost_model.proactive_scale_down_overhead(plan.total_tokens(), parallel);
    }
    for placement in &plan.placements {
        pool.commit(placement)?;
    }
    Ok(PrefillOutcome {
        cost,
        retained_tokens: plan.total_tokens(),
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
        let pool = UnifiedKvPool::new(4, 500_000);
        (registry, cost_model, pool)
    }

    fn group_of(ids: &[u64]) -> EspGroup {
        EspGroup::new(ids.iter().map(|&i| InstanceId(i)).collect())
    }

    #[test]
    fn build_and_execute_with_scale_down() {
        let (registry, cost_model, mut pool) = setup();
        let group = group_of(&[0, 1, 2, 3]);
        let requests = vec![
            PrefillRequest {
                id: RequestId(0),
                input_len: 200_000,
            },
            PrefillRequest {
                id: RequestId(1),
                input_len: 50_000,
            },
        ];
        let plan = PrefillPlan::build(group, requests, vec![InstanceId(0), InstanceId(1)], &pool)
            .expect("fits on two instances");
        assert!(plan.scales_down());
        assert!(plan.validate().is_ok());
        let outcome = execute_prefill(&plan, &cost_model, &registry, &mut pool).expect("commit");
        assert_eq!(outcome.retained_tokens, 250_000);
        assert!(outcome.cost.total() > 0.0);
        assert!(
            outcome.cost.scaling_s > 0.0,
            "scale-down overhead should be accounted"
        );
        // The scale-down overhead stays under 2% of the iteration (Figure 14a).
        assert!(outcome.cost.scaling_s / outcome.cost.total() < 0.02);
        // KV landed only on the retained instances.
        assert_eq!(pool.tokens_of(RequestId(0)), 200_000);
        assert_eq!(pool.instance(InstanceId(2)).used(), 0);
        assert_eq!(pool.instance(InstanceId(3)).used(), 0);
    }

    #[test]
    fn no_scale_down_has_zero_scaling_cost() {
        let (registry, cost_model, mut pool) = setup();
        let group = group_of(&[0, 1]);
        let requests = vec![PrefillRequest {
            id: RequestId(7),
            input_len: 10_000,
        }];
        let plan = PrefillPlan::build(group.clone(), requests, group.instances.clone(), &pool)
            .expect("fits");
        assert!(!plan.scales_down());
        let outcome = execute_prefill(&plan, &cost_model, &registry, &mut pool).expect("commit");
        assert_eq!(outcome.cost.scaling_s, 0.0);
    }

    #[test]
    fn capacity_shortfall_is_reported() {
        let (_registry, _cost_model, pool) = setup();
        let group = group_of(&[0, 1, 2, 3]);
        let requests = vec![PrefillRequest {
            id: RequestId(0),
            input_len: 600_000,
        }];
        let err = PrefillPlan::build(group, requests, vec![InstanceId(0)], &pool).unwrap_err();
        assert!(matches!(
            err,
            PrefillPlanError::InsufficientKvCapacity {
                requested: 600_000,
                available: 500_000
            }
        ));
    }

    #[test]
    fn retention_must_be_subset_of_group() {
        let (_registry, _cost_model, pool) = setup();
        let group = group_of(&[0, 1]);
        let requests = vec![PrefillRequest {
            id: RequestId(0),
            input_len: 10,
        }];
        let err = PrefillPlan::build(group, requests, vec![InstanceId(3)], &pool).unwrap_err();
        assert_eq!(err, PrefillPlanError::InvalidRetention);
    }

    #[test]
    fn empty_batch_is_rejected() {
        let (_registry, _cost_model, pool) = setup();
        let group = group_of(&[0]);
        let err = PrefillPlan::build(group, vec![], vec![InstanceId(0)], &pool).unwrap_err();
        assert_eq!(err, PrefillPlanError::EmptyBatch);
    }

    #[test]
    fn multiple_requests_fill_fragmented_pool() {
        // Token-level retention can use free slots that no single instance
        // could provide alone.
        let (registry, cost_model, _) = setup();
        let mut pool = UnifiedKvPool::with_capacities(&[100_000, 200_000, 400_000, 400_000]);
        // Pre-occupy some of instance 3.
        pool.append(RequestId(99), InstanceId(3), 350_000)
            .expect("room");
        let group = group_of(&[0, 1, 2, 3]);
        let requests = vec![PrefillRequest {
            id: RequestId(1),
            input_len: 600_000,
        }];
        let plan = PrefillPlan::build(
            group,
            requests,
            vec![InstanceId(0), InstanceId(1), InstanceId(2), InstanceId(3)],
            &pool,
        )
        .expect("unified pool has room");
        let outcome = execute_prefill(&plan, &cost_model, &registry, &mut pool).expect("commit");
        assert_eq!(outcome.retained_tokens, 600_000);
        assert_eq!(pool.tokens_of(RequestId(1)), 600_000);
        assert!(pool.check_invariants().is_ok());
    }

    #[test]
    fn error_messages_are_informative() {
        let e = PrefillPlanError::InsufficientKvCapacity {
            requested: 10,
            available: 5,
        };
        assert!(format!("{e}").contains("10"));
        assert!(format!("{}", PrefillPlanError::EmptyBatch).contains("empty"));
    }

    #[test]
    fn hierarchical_prefill_policy_cheapens_esp_execution() {
        // The attention policy threads through the ESP execution path via
        // the cost model: a hierarchical-prefill policy must make the same
        // plan cheaper than dense (the SP ring is priced against the
        // policy-reduced local attention) and never more expensive.
        use loong_model::attention::AttentionCostPolicy;
        let (registry, dense_cm, pool) = setup();
        let sparse_cm = CostModel::builder(dense_cm.model.clone())
            .attention(AttentionCostPolicy::hierarchical())
            .build();
        let group = group_of(&[0, 1, 2, 3]);
        let requests = vec![PrefillRequest {
            id: RequestId(0),
            input_len: 400_000,
        }];
        let plan = PrefillPlan::build(group, requests, vec![InstanceId(0)], &pool).expect("fits");
        let mut pool_a = pool.clone();
        let mut pool_b = pool;
        let dense = execute_prefill(&plan, &dense_cm, &registry, &mut pool_a)
            .expect("commit")
            .cost
            .total();
        let sparse = execute_prefill(&plan, &sparse_cm, &registry, &mut pool_b)
            .expect("commit")
            .cost
            .total();
        assert!(sparse < dense, "sparse {sparse} should beat dense {dense}");
    }
}
