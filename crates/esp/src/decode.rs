//! Distributed decoding with single- and multi-master execution.
//!
//! LoongServe extends sequence parallelism to the decode phase (paper §4.2):
//! every instance of a parallel group computes attention over the KV tokens
//! it already holds, while one or more *master* instances drive the dense
//! layers, hold the queries, and store the newly generated KV of the
//! requests assigned to them. Scaling a decode group up therefore needs no
//! KV movement at all — new instances simply become additional masters.

use crate::instance::InstanceRegistry;
use crate::{group, EspError};
use loong_kvcache::unified::UnifiedKvPool;
use loong_model::roofline::{CostModel, IterationCost, ParallelConfig};
use loong_simcore::ids::{InstanceId, RequestId};

/// Runs one decode iteration of `batch` — `(request, context tokens)` pairs
/// — on `instances`, appending each request's new token on one of
/// `masters`, and returns the iteration cost.
///
/// Every request's master is chosen before the first append, so an empty
/// batch or a request no master has a free slot for returns an error with
/// the pool untouched. The master already holding most of the request's KV
/// keeps it (keeping a request's cache on one instance and the query
/// exchange volume low), the lower id winning a tie; otherwise the request
/// goes to the master with the fewest requests so far, so the newly
/// generated KV tokens stay "as uniform as possible" across masters (§5.4).
/// Either way only masters with a free slot count.
///
/// # Panics
///
/// Panics if `instances` is empty or has duplicates, or `masters` is empty,
/// has duplicates or is not a subset of `instances`.
pub fn execute_decode(
    instances: &[InstanceId],
    masters: &[InstanceId],
    batch: &[(RequestId, u64)],
    cost_model: &CostModel,
    registry: &InstanceRegistry,
    pool: &mut UnifiedKvPool,
) -> Result<IterationCost, EspError> {
    group::check(instances, masters);
    if batch.is_empty() {
        return Err(EspError::EmptyBatch);
    }
    // Per master: free slots and requests assigned so far, updated as
    // requests are assigned.
    let mut column: Vec<(InstanceId, u64, u64)> = masters
        .iter()
        .map(|&m| (m, pool.instance(m).free(), 0))
        .collect();
    let mut chosen = Vec::with_capacity(batch.len());
    for &(id, _) in batch {
        // The column lists masters only, so KV on other members never
        // makes a home.
        let home = pool
            .locations_ref(id)
            .iter()
            .filter(|&&(m, _)| column.iter().any(|&(cm, free, _)| cm == m && free > 0))
            .max_by_key(|&&(m, tokens)| (tokens, u64::MAX - m.raw()))
            .map(|&(m, _)| m);
        // Otherwise the fewest assignments so far, then the most free
        // slots, then the lower id.
        let master = home
            .or_else(|| {
                column
                    .iter()
                    .filter(|&&(_, free, _)| free > 0)
                    .min_by_key(|&&(m, free, assigned)| (assigned, u64::MAX - free, m.raw()))
                    .map(|&(m, _, _)| m)
            })
            .ok_or(EspError::NoMasterCapacity { request: id })?;
        if let Some(slot) = column.iter_mut().find(|(m, _, _)| *m == master) {
            slot.1 -= 1;
            slot.2 += 1;
        }
        chosen.push(master);
    }
    let cost = cost_model.decode_cost(
        batch.iter().map(|(_, context)| context),
        ParallelConfig::new(registry.tp(), instances.len()),
        masters.len().min(batch.len()).max(1),
        registry.link_between(instances),
    );
    for (&(id, _), &master) in batch.iter().zip(&chosen) {
        pool.append(id, master, 1)?;
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
        let pool = UnifiedKvPool::new(4, 100_000);
        (registry, cost_model, pool)
    }

    fn ids(raw: &[u64]) -> Vec<InstanceId> {
        raw.iter().map(|&i| InstanceId(i)).collect()
    }

    fn batch(n: u64, context: u64) -> Vec<(RequestId, u64)> {
        (0..n).map(|i| (RequestId(i), context)).collect()
    }

    /// Decodes `batch` on `instances` with `masters`.
    fn decode(
        instances: &[InstanceId],
        masters: &[InstanceId],
        batch: &[(RequestId, u64)],
        pool: &mut UnifiedKvPool,
    ) -> Result<IterationCost, EspError> {
        let (registry, cost_model, _) = setup();
        execute_decode(instances, masters, batch, &cost_model, &registry, pool)
    }

    /// The instance each request's new token landed on.
    fn landed(before: &UnifiedKvPool, after: &UnifiedKvPool, n: u64) -> Vec<u64> {
        (0..n)
            .map(|r| {
                let id = RequestId(r);
                let gained: Vec<u64> = (0..after.free_slots().len() as u64)
                    .filter(|&i| {
                        after.tokens_on(id, InstanceId(i))
                            == before.tokens_on(id, InstanceId(i)) + 1
                    })
                    .collect();
                assert_eq!(gained.len(), 1, "{id} gained one token on one instance");
                gained[0]
            })
            .collect()
    }

    #[test]
    fn masters_are_load_balanced() {
        let (_, _, mut pool) = setup();
        let group = ids(&[0, 1]);
        decode(&group, &group, &batch(10, 1000), &mut pool).expect("capacity");
        for m in group {
            assert_eq!(pool.instance(m).used(), 5);
        }
    }

    #[test]
    fn full_master_is_skipped() {
        let mut pool = UnifiedKvPool::with_capacities(&[10, 100_000]);
        // Fill instance 0 completely.
        pool.append(RequestId(99), InstanceId(0), 10).expect("room");
        let group = ids(&[0, 1]);
        decode(&group, &group, &batch(4, 100), &mut pool).expect("instance 1 has room");
        assert_eq!(pool.instance(InstanceId(0)).used(), 10);
        assert_eq!(pool.instance(InstanceId(1)).used(), 4);
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
        let before = pool.clone();
        // Six instances: one per GPU of the node.
        let registry = InstanceRegistry::build(&ClusterSpec::single_node_a800(8), 1);
        let (_, cost_model, _) = setup();
        let instances = ids(&[0, 1, 2, 3, 4, 5]);
        execute_decode(
            &instances,
            &instances[..5],
            &batch(4, 1_000),
            &cost_model,
            &registry,
            &mut pool,
        )
        .expect("capacity");
        // Request 0: the master holding most of it, not the lowest id.
        // Request 1: a 40/40 tie goes to the lower id. Request 2: its
        // largest holder is full, so the next one takes it. Request 3:
        // only a non-master holds it, so the least-assigned master does.
        assert_eq!(landed(&before, &pool, 4), vec![2, 1, 3, 4]);
    }

    #[test]
    fn no_capacity_anywhere_is_an_error() {
        // One free slot per master: the first two requests would fit, the
        // third does not, and nothing is appended.
        let mut pool = UnifiedKvPool::with_capacities(&[2, 2]);
        pool.append(RequestId(99), InstanceId(0), 1).expect("room");
        pool.append(RequestId(98), InstanceId(1), 1).expect("room");
        let before = pool.clone();
        let group = ids(&[0, 1]);
        let err = decode(&group, &group, &batch(3, 10), &mut pool).unwrap_err();
        assert_eq!(
            err,
            EspError::NoMasterCapacity {
                request: RequestId(2)
            }
        );
        assert_eq!(pool, before, "a refused decode must not touch the pool");
    }

    #[test]
    fn empty_batch_is_rejected() {
        let (_, _, mut pool) = setup();
        let before = pool.clone();
        let group = ids(&[0]);
        assert_eq!(
            decode(&group, &group, &[], &mut pool).unwrap_err(),
            EspError::EmptyBatch
        );
        assert_eq!(pool, before);
    }

    #[test]
    #[should_panic(expected = "masters must be members")]
    fn foreign_master_panics() {
        let (_, _, mut pool) = setup();
        let _ = decode(&ids(&[0, 1]), &ids(&[3]), &batch(1, 10), &mut pool);
    }

    #[test]
    fn execute_appends_one_token_per_request() {
        let (_, _, mut pool) = setup();
        let group = ids(&[0, 1, 2, 3]);
        let before = pool.total_used();
        let cost = decode(&group, &group, &batch(8, 5_000), &mut pool).expect("append");
        assert_eq!(pool.total_used(), before + 8);
        assert!(cost.total() > 0.0);
        for i in 0..8 {
            assert_eq!(pool.tokens_of(RequestId(i)), 1);
        }
    }

    #[test]
    fn more_masters_speed_up_large_batches() {
        // The multi-master mechanism should show its Figure 14b advantage
        // end-to-end through the execution path as well.
        let (_, _, pool) = setup();
        let requests = batch(512, 64);
        let all = ids(&[0, 1, 2, 3]);
        let cost = |masters: &[InstanceId]| {
            decode(&all, masters, &requests, &mut pool.clone())
                .expect("capacity")
                .total()
        };
        let (single, multi) = (cost(&all[..1]), cost(&all));
        assert!(
            single / multi > 1.3,
            "multi-master speedup {}",
            single / multi
        );
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
        let group = ids(&[0, 1, 2, 3]);

        let run = |cm: &CostModel, context: u64| {
            let requests = batch(8, context);
            execute_decode(&group, &group, &requests, cm, &registry, &mut pool.clone())
                .expect("append")
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
