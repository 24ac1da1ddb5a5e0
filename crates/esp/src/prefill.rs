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

use crate::instance::InstanceRegistry;
use crate::{group, EspError};
use loong_kvcache::placement::PlacementStrategy;
use loong_kvcache::unified::UnifiedKvPool;
use loong_model::roofline::{CostModel, IterationCost, ParallelConfig};
use loong_simcore::ids::{InstanceId, RequestId};

/// Runs one prefill iteration of `batch` — `(request, prompt tokens)` pairs
/// — on `instances`, retaining its KV on `retain_on` (proactive scale-down
/// when that is a strict subset), and returns the iteration cost, including
/// the scale-down overhead.
///
/// Every check comes before the first placement: an empty batch, a retained
/// set that is empty, repeats an instance or leaves the group, and retained
/// instances short of free slots each return an error with the pool
/// untouched. The requests are then placed largest first (the lower id on
/// a tie), each spread over `retain_on` in proportion to the free slots the
/// previous ones left, which keeps the balanced splits well shaped.
///
/// # Panics
///
/// Panics if `instances` is empty or has duplicates.
pub fn execute_prefill(
    instances: &[InstanceId],
    batch: &[(RequestId, u64)],
    retain_on: &[InstanceId],
    cost_model: &CostModel,
    registry: &InstanceRegistry,
    pool: &mut UnifiedKvPool,
) -> Result<IterationCost, EspError> {
    group::check(instances, instances);
    if batch.is_empty() {
        return Err(EspError::EmptyBatch);
    }
    if retain_on.is_empty()
        || group::repeated(retain_on).is_some()
        || !retain_on.iter().all(|i| instances.contains(i))
    {
        return Err(EspError::InvalidRetention);
    }
    let requested: u64 = batch.iter().map(|&(_, len)| len).sum();
    let available: u64 = retain_on.iter().map(|&i| pool.instance(i).free()).sum();
    if available < requested {
        return Err(EspError::InsufficientKvCapacity {
            requested,
            available,
        });
    }
    let parallel = ParallelConfig::new(registry.tp(), instances.len());
    let lens: Vec<u64> = batch.iter().map(|&(_, len)| len).collect();
    let mut cost = cost_model.prefill_cost(&lens, parallel, registry.link_between(instances));
    if retain_on.len() < instances.len() {
        cost.scaling_s = cost_model.proactive_scale_down_overhead(requested, parallel);
    }
    let mut order: Vec<(RequestId, u64)> = batch.to_vec();
    order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (id, len) in order {
        pool.place(id, len, retain_on, PlacementStrategy::Balanced)?;
    }
    Ok(cost)
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

    fn ids(raw: &[u64]) -> Vec<InstanceId> {
        raw.iter().map(|&i| InstanceId(i)).collect()
    }

    /// Runs a prefill expected to fail and checks the pool is unchanged.
    fn refused(
        instances: &[u64],
        batch: &[(RequestId, u64)],
        retain_on: &[u64],
        pool: &mut UnifiedKvPool,
    ) -> EspError {
        let (registry, cost_model, _) = setup();
        let before = pool.clone();
        let err = execute_prefill(
            &ids(instances),
            batch,
            &ids(retain_on),
            &cost_model,
            &registry,
            pool,
        )
        .unwrap_err();
        assert_eq!(*pool, before, "a refused prefill must not touch the pool");
        err
    }

    #[test]
    fn build_and_execute_with_scale_down() {
        let (registry, cost_model, mut pool) = setup();
        let batch = [(RequestId(0), 200_000), (RequestId(1), 50_000)];
        let cost = execute_prefill(
            &ids(&[0, 1, 2, 3]),
            &batch,
            &ids(&[0, 1]),
            &cost_model,
            &registry,
            &mut pool,
        )
        .expect("fits on two instances");
        assert_eq!(pool.total_used(), 250_000);
        assert!(cost.total() > 0.0);
        assert!(
            cost.scaling_s > 0.0,
            "scale-down overhead should be accounted"
        );
        // The scale-down overhead stays under 2% of the iteration (Figure 14a).
        assert!(cost.scaling_s / cost.total() < 0.02);
        // KV landed only on the retained instances.
        assert_eq!(pool.tokens_of(RequestId(0)), 200_000);
        assert_eq!(pool.instance(InstanceId(2)).used(), 0);
        assert_eq!(pool.instance(InstanceId(3)).used(), 0);
    }

    #[test]
    fn requests_are_placed_largest_first_on_what_the_previous_ones_left() {
        let (registry, cost_model, _) = setup();
        let group = ids(&[0, 1]);
        let prefill = |capacities: &[u64], batch: &[(RequestId, u64)]| {
            let mut pool = UnifiedKvPool::with_capacities(capacities);
            execute_prefill(&group, batch, &group, &cost_model, &registry, &mut pool)
                .expect("fits");
            pool
        };
        // Instance 0 has one free slot and instance 1 two. The 2-token
        // request goes first and rounds onto the emptier instance, which
        // leaves instance 0's slot for the 1-token request; smallest first
        // would split the larger one over both.
        let pool = prefill(&[1, 2], &[(RequestId(1), 1), (RequestId(0), 2)]);
        assert_eq!(pool.locations_ref(RequestId(0)), [(InstanceId(1), 2)]);
        assert_eq!(pool.locations_ref(RequestId(1)), [(InstanceId(0), 1)]);
        // Equal lengths go lower id first, so request 2 takes instance 0.
        let pool = prefill(&[1, 1], &[(RequestId(5), 1), (RequestId(2), 1)]);
        assert_eq!(pool.locations_ref(RequestId(2)), [(InstanceId(0), 1)]);
        assert_eq!(pool.locations_ref(RequestId(5)), [(InstanceId(1), 1)]);
    }

    #[test]
    fn no_scale_down_has_zero_scaling_cost() {
        let (registry, cost_model, mut pool) = setup();
        let group = ids(&[0, 1]);
        let cost = execute_prefill(
            &group,
            &[(RequestId(7), 10_000)],
            &group,
            &cost_model,
            &registry,
            &mut pool,
        )
        .expect("fits");
        assert_eq!(cost.scaling_s, 0.0);
    }

    #[test]
    fn capacity_shortfall_is_reported() {
        let (_, _, mut pool) = setup();
        let err = refused(&[0, 1, 2, 3], &[(RequestId(0), 600_000)], &[0], &mut pool);
        assert_eq!(
            err,
            EspError::InsufficientKvCapacity {
                requested: 600_000,
                available: 500_000
            }
        );
    }

    #[test]
    fn retention_must_be_subset_of_group() {
        let (_, _, mut pool) = setup();
        let batch = [(RequestId(0), 10)];
        for retain_on in [&[3][..], &[], &[0, 0]] {
            let err = refused(&[0, 1], &batch, retain_on, &mut pool);
            assert_eq!(err, EspError::InvalidRetention, "retain_on {retain_on:?}");
        }
    }

    #[test]
    fn empty_batch_is_rejected() {
        let (_, _, mut pool) = setup();
        assert_eq!(refused(&[0], &[], &[0], &mut pool), EspError::EmptyBatch);
    }

    #[test]
    #[should_panic(expected = "duplicate instances")]
    fn malformed_group_panics() {
        let (registry, cost_model, mut pool) = setup();
        let _ = execute_prefill(
            &ids(&[1, 1]),
            &[(RequestId(0), 10)],
            &ids(&[1]),
            &cost_model,
            &registry,
            &mut pool,
        );
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
        let all = ids(&[0, 1, 2, 3]);
        execute_prefill(
            &all,
            &[(RequestId(1), 600_000)],
            &all,
            &cost_model,
            &registry,
            &mut pool,
        )
        .expect("unified pool has room");
        assert_eq!(pool.tokens_of(RequestId(1)), 600_000);
        assert!(pool.check_invariants().is_ok());
    }

    #[test]
    fn error_messages_are_informative() {
        let e = EspError::InsufficientKvCapacity {
            requested: 10,
            available: 5,
        };
        assert!(format!("{e}").contains("10"));
        assert!(format!("{}", EspError::EmptyBatch).contains("empty"));
    }

    #[test]
    fn hierarchical_prefill_policy_cheapens_esp_execution() {
        // The attention policy threads through the ESP execution path via
        // the cost model: a hierarchical-prefill policy must make the same
        // prefill cheaper than dense (the SP ring is priced against the
        // policy-reduced local attention) and never more expensive.
        use loong_model::attention::AttentionCostPolicy;
        let (registry, dense_cm, pool) = setup();
        let sparse_cm = CostModel::builder(dense_cm.model().clone())
            .attention(AttentionCostPolicy::HierarchicalPrefill)
            .build();
        let run = |cm: &CostModel| {
            execute_prefill(
                &ids(&[0, 1, 2, 3]),
                &[(RequestId(0), 400_000)],
                &ids(&[0]),
                cm,
                &registry,
                &mut pool.clone(),
            )
            .expect("fits")
            .total()
        };
        let (dense, sparse) = (run(&dense_cm), run(&sparse_cm));
        assert!(sparse < dense, "sparse {sparse} should beat dense {dense}");
    }
}
