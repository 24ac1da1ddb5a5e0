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

/// The per-master assignment counts [`execute_decode`] works in. Its owner
/// keeps one across calls, so a steady decode loop allocates nothing here;
/// every call resets it before reading it, so a kept buffer decides exactly
/// like a fresh one.
#[derive(Debug, Clone, Default)]
pub struct DecodeBuffer {
    /// Per master, in `masters` order: requests assigned so far.
    assigned: Vec<(InstanceId, u64)>,
}

/// Runs one decode iteration of `batch` — `(request, context tokens)` pairs,
/// each request once — on `instances`, appending each request's new token
/// on one of `masters`, and returns the iteration cost.
///
/// Each request takes one free slot on one master, so the batch fits
/// exactly when the masters' free slots cover it. An empty batch, or one
/// past those slots, returns an error with the pool untouched, naming the
/// first request no master has room for. The master already holding most
/// of the request's KV keeps it (keeping a request's cache on one instance
/// and the query exchange volume low), the lower id winning a tie;
/// otherwise the request goes to the master with the fewest requests so
/// far, so the newly generated KV tokens stay "as uniform as possible"
/// across masters (§5.4). Either way only masters with a free slot count.
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
    buffer: &mut DecodeBuffer,
) -> Result<IterationCost, EspError> {
    group::check(instances, masters);
    if batch.is_empty() {
        return Err(EspError::EmptyBatch);
    }
    // Every assignment takes one slot, so the request after the masters'
    // last free slot is the first one left without a master.
    let free_slots: u64 = masters.iter().map(|&m| pool.instance(m).free()).sum();
    if let Some(&(request, _)) = usize::try_from(free_slots).ok().and_then(|f| batch.get(f)) {
        return Err(EspError::NoMasterCapacity { request });
    }
    let cost = cost_model.decode_cost(
        batch.iter().map(|(_, context)| context),
        ParallelConfig::new(registry.tp(), instances.len()),
        masters.len().min(batch.len()).max(1),
        registry.link_between(instances),
    );
    let assigned = &mut buffer.assigned;
    assigned.clear();
    assigned.extend(masters.iter().map(|&m| (m, 0)));
    for &(id, _) in batch {
        let free = |m: InstanceId| pool.instance(m).free();
        // Only masters make a home, so KV on other members never does.
        let home = pool
            .locations_ref(id)
            .iter()
            .filter(|&&(m, _)| masters.contains(&m) && free(m) > 0)
            .max_by_key(|&&(m, tokens)| (tokens, u64::MAX - m.raw()))
            .map(|&(m, _)| m);
        // Otherwise the fewest assignments so far, then the most free
        // slots, then the lower id.
        let master = home.unwrap_or_else(|| {
            assigned
                .iter()
                .filter(|&&(m, _)| free(m) > 0)
                .min_by_key(|&&(m, n)| (n, u64::MAX - free(m), m.raw()))
                .map(|&(m, _)| m)
                .expect("the masters' free slots cover the batch")
        });
        if let Some(slot) = assigned.iter_mut().find(|(m, _)| *m == master) {
            slot.1 += 1;
        }
        pool.append(id, master, 1)?;
    }
    Ok(cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loong_cluster::topology::ClusterSpec;
    use loong_model::config::ModelConfig;
    use loong_simcore::rng::SimRng;
    use rand::Rng;

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
        execute_decode(
            instances,
            masters,
            batch,
            &cost_model,
            &registry,
            pool,
            &mut DecodeBuffer::default(),
        )
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
            &mut DecodeBuffer::default(),
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
        let sparse_cm = CostModel::builder(dense_cm.model().clone())
            .attention(AttentionCostPolicy::PageSparseDecode)
            .build();
        let group = ids(&[0, 1, 2, 3]);

        let run = |cm: &CostModel, context: u64| {
            let requests = batch(8, context);
            execute_decode(
                &group,
                &group,
                &requests,
                cm,
                &registry,
                &mut pool.clone(),
                &mut DecodeBuffer::default(),
            )
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

    /// The rule as it read before the capacity check: choose every
    /// request's master against a decremented free-slot column, refusing at
    /// the first request without one, and append only then.
    fn choose_then_append(
        masters: &[InstanceId],
        batch: &[(RequestId, u64)],
        pool: &UnifiedKvPool,
    ) -> Result<UnifiedKvPool, EspError> {
        let mut column: Vec<(InstanceId, u64, u64)> = masters
            .iter()
            .map(|&m| (m, pool.instance(m).free(), 0))
            .collect();
        let mut chosen = Vec::new();
        for &(id, _) in batch {
            let home = pool
                .locations_ref(id)
                .iter()
                .filter(|&&(m, _)| column.iter().any(|&(cm, free, _)| cm == m && free > 0))
                .max_by_key(|&&(m, tokens)| (tokens, u64::MAX - m.raw()))
                .map(|&(m, _)| m);
            let master = home
                .or_else(|| {
                    column
                        .iter()
                        .filter(|&&(_, free, _)| free > 0)
                        .min_by_key(|&&(m, free, assigned)| (assigned, u64::MAX - free, m.raw()))
                        .map(|&(m, _, _)| m)
                })
                .ok_or(EspError::NoMasterCapacity { request: id })?;
            let slot = column.iter_mut().find(|(m, _, _)| *m == master).unwrap();
            slot.1 -= 1;
            slot.2 += 1;
            chosen.push(master);
        }
        let mut after = pool.clone();
        for (&(id, _), &master) in batch.iter().zip(&chosen) {
            after.append(id, master, 1)?;
        }
        Ok(after)
    }

    fn shuffle<T>(rng: &mut SimRng, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, rng.gen_range(0..=i));
        }
    }

    #[test]
    fn a_kept_buffer_decides_like_a_fresh_one() {
        // Eight TP=1 instances with a handful of slots each, so batches
        // often outgrow their masters' free slots.
        let registry = InstanceRegistry::build(&ClusterSpec::single_node_a800(8), 1);
        let (_, cost_model, _) = setup();
        let mut rng = SimRng::seed(0xdec0de);
        let mut kept = DecodeBuffer::default();
        let (mut decoded, mut refused) = (0, 0);
        for case in 0..3_000 {
            let capacities: Vec<u64> = (0..8).map(|_| rng.gen_range(0..12)).collect();
            let mut pool = UnifiedKvPool::with_capacities(&capacities);
            for r in 0..12 {
                for _ in 0..rng.gen_range(0..=3) {
                    let i = InstanceId(rng.gen_range(0..8));
                    let free = pool.instance(i).free();
                    if free > 0 {
                        pool.append(RequestId(r), i, rng.gen_range(1..=free))
                            .expect("room");
                    }
                }
            }
            let mut instances: Vec<InstanceId> = (0..8)
                .map(InstanceId)
                .filter(|_| rng.gen_bool(0.6))
                .collect();
            if instances.is_empty() {
                instances.push(InstanceId(rng.gen_range(0..8)));
            }
            shuffle(&mut rng, &mut instances);
            let mut masters: Vec<InstanceId> = instances
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.7))
                .collect();
            if masters.is_empty() {
                masters.push(instances[0]);
            }
            // Distinct requests, some holding no KV at all.
            let mut ids: Vec<u64> = (0..16).collect();
            shuffle(&mut rng, &mut ids);
            let batch: Vec<(RequestId, u64)> = ids[..rng.gen_range(0..=10)]
                .iter()
                .map(|&r| (RequestId(r), rng.gen_range(1..100_000)))
                .collect();

            let run = |pool: &mut UnifiedKvPool, buffer: &mut DecodeBuffer| {
                execute_decode(
                    &instances,
                    &masters,
                    &batch,
                    &cost_model,
                    &registry,
                    pool,
                    buffer,
                )
            };
            let (mut fresh_pool, mut kept_pool) = (pool.clone(), pool.clone());
            let fresh = run(&mut fresh_pool, &mut DecodeBuffer::default());
            let reused = run(&mut kept_pool, &mut kept);
            let at = format!("case {case}: {instances:?}, masters {masters:?}, batch {batch:?}");
            assert_eq!(reused, fresh, "{at}");
            assert_eq!(kept_pool, fresh_pool, "{at}: landing instances");
            match (reused, choose_then_append(&masters, &batch, &pool)) {
                (Ok(_), Ok(expected)) => {
                    assert_eq!(kept_pool, expected, "{at}: landing instances");
                    decoded += 1;
                }
                (Err(EspError::NoMasterCapacity { request }), Err(expected)) => {
                    assert_eq!(EspError::NoMasterCapacity { request }, expected, "{at}");
                    assert_eq!(kept_pool, pool, "{at}: a refused batch touches nothing");
                    refused += 1;
                }
                (Err(EspError::EmptyBatch), _) => {
                    assert!(batch.is_empty(), "{at}");
                    assert_eq!(kept_pool, pool, "{at}");
                }
                (got, expected) => panic!("{at}: {got:?}, expected {expected:?}"),
            }
        }
        assert!(
            decoded > 500 && refused > 500,
            "{decoded} decoded, {refused} refused"
        );
    }
}
