//! Step 2 of the global manager: elastic instance allocation (paper §5.2).
//!
//! Given the admitted prefill requests `R_p` and an initial instance set
//! `E_p`, this step decides whether dedicating *more* elastic instances to
//! the compute-intensive prefill phase pays off. An idle instance that still
//! hosts decode-phase KV can be claimed by first migrating that KV to other
//! active instances; the manager repeatedly considers the instance with the
//! fewest used KV slots (`e_min`) and claims it while the latency gain for
//! the prefill batch (Eq. 3) exceeds the migration cost (Eq. 4).

use super::predict_prefill;
use crate::types::SchedulerView;
use loong_simcore::ids::{InstanceId, RequestId};

/// The allocation step's output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocationDecision {
    /// The final instance set for the prefill phase.
    pub instances: Vec<InstanceId>,
    /// KV drains to perform before the prefill starts: each entry moves all
    /// KV of `request` off the claimed instance onto `targets`.
    pub drains: Vec<DrainDirective>,
}

/// A directive to move one request's KV off a claimed instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainDirective {
    /// The request whose KV must move.
    pub request: RequestId,
    /// The instance being vacated.
    pub from: InstanceId,
    /// Candidate destination instances (those with the most unused slots).
    pub targets: Vec<InstanceId>,
}

/// Runs the allocation step.
///
/// `admitted_lens` are the input lengths of the admitted requests;
/// `initial_instances` is `E_p` from the dispatch step.
pub fn allocate(
    view: &SchedulerView<'_>,
    admitted_lens: &[u64],
    initial_instances: &[InstanceId],
) -> AllocationDecision {
    let mut instances: Vec<InstanceId> = initial_instances.to_vec();
    let mut drains: Vec<DrainDirective> = Vec::new();
    if admitted_lens.is_empty() {
        return AllocationDecision { instances, drains };
    }

    // Candidates: idle instances not already allocated, sorted by used KV
    // slots ascending (e_min first).
    loop {
        let mut candidates: Vec<(InstanceId, u64)> = view
            .idle_instances
            .iter()
            .copied()
            .filter(|i| !instances.contains(i))
            .map(|i| (i, view.pool.instance(i).used()))
            .collect();
        if candidates.is_empty() {
            break;
        }
        candidates.sort_by_key(|&(i, used)| (used, i.raw()));
        let (e_min, used_tokens) = candidates[0];

        // Migration targets: instances with the most unused KV slots that are
        // not part of the prefill allocation (so the drained KV does not eat
        // into the prefill's budget). Busy instances are valid targets — the
        // transfer overlaps with their computation on a separate stream.
        let mut targets: Vec<(InstanceId, u64)> = view
            .registry
            .all_ids()
            .into_iter()
            .filter(|i| *i != e_min && !instances.contains(i))
            .map(|i| (i, view.pool.instance(i).free()))
            .collect();
        targets.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let target_capacity: u64 = targets.iter().map(|(_, f)| f).sum();
        if used_tokens > 0 && target_capacity < used_tokens {
            // The resident KV cannot be absorbed elsewhere; stop growing.
            break;
        }

        // Gain (Eq. 3): reduction in summed normalised input latency.
        let before = predict_prefill(view, admitted_lens, instances.len());
        let after = predict_prefill(view, admitted_lens, instances.len() + 1);
        let gain: f64 = admitted_lens
            .iter()
            .map(|&len| (before - after).max(0.0) / len.max(1) as f64)
            .sum();

        // Cost (Eq. 4): migration volume over the average link bandwidth,
        // normalised the same way.
        let volume_bytes = used_tokens as f64 * view.cost_model.kv_bytes_per_token();
        let link = view.registry.link_between(&{
            let mut v = vec![e_min];
            v.extend(targets.iter().map(|(i, _)| *i));
            v
        });
        let migration_time = if used_tokens == 0 {
            0.0
        } else {
            volume_bytes / link.bandwidth
        };
        let cost: f64 = admitted_lens
            .iter()
            .map(|&len| migration_time / len.max(1) as f64)
            .sum();

        if gain <= cost {
            break;
        }

        // Claim e_min: emit drains for every resident request, in request-id
        // order.
        let target_ids: Vec<InstanceId> = targets.iter().map(|(i, _)| *i).collect();
        for request in view.pool.residents_of(e_min) {
            drains.push(DrainDirective {
                request,
                from: e_min,
                targets: target_ids.clone(),
            });
        }
        instances.push(e_min);
    }

    AllocationDecision { instances, drains }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::PendingRequest;
    use loong_cluster::topology::ClusterSpec;
    use loong_esp::instance::InstanceRegistry;
    use loong_kvcache::unified::UnifiedKvPool;
    use loong_model::config::ModelConfig;
    use loong_model::roofline::CostModel;
    use loong_model::sib::ScalingInfoBase;
    use loong_simcore::time::SimTime;

    struct Fixture {
        registry: InstanceRegistry,
        cost_model: CostModel,
        sib: ScalingInfoBase,
        pool: UnifiedKvPool,
        pending: Vec<PendingRequest>,
    }

    fn fixture() -> Fixture {
        Fixture {
            registry: InstanceRegistry::build(&ClusterSpec::single_node_a800(8), 2),
            cost_model: CostModel::new(ModelConfig::lwm_1m_text()),
            sib: ScalingInfoBase::new(),
            pool: UnifiedKvPool::new(4, 500_000),
            pending: vec![],
        }
    }

    fn view<'a>(f: &'a Fixture, idle: &'a [InstanceId]) -> SchedulerView<'a> {
        SchedulerView {
            now: SimTime::ZERO,
            pending: &f.pending,
            decoding: &[],
            swapped: &[],
            idle_instances: idle,
            pool: &f.pool,
            registry: &f.registry,
            cost_model: &f.cost_model,
            sib: &f.sib,
            avg_decode_latency_s: 0.0,
        }
    }

    #[test]
    fn empty_batch_keeps_initial_allocation() {
        let f = fixture();
        let idle = f.registry.all_ids();
        let v = view(&f, &idle);
        let a = allocate(&v, &[], &[InstanceId(0)]);
        assert_eq!(a.instances, vec![InstanceId(0)]);
        assert!(a.drains.is_empty());
    }

    #[test]
    fn grows_onto_empty_idle_instances_for_long_prefill() {
        // A 200K-token prefill benefits hugely from more instances and the
        // candidate instances hold no KV, so claiming them is free.
        let f = fixture();
        let idle = f.registry.all_ids();
        let v = view(&f, &idle);
        let a = allocate(&v, &[200_000], &[InstanceId(0)]);
        assert_eq!(a.instances.len(), 4, "should claim all idle instances");
        assert!(a.drains.is_empty());
    }

    #[test]
    fn does_not_claim_instances_with_heavy_kv_for_short_prefill() {
        // The candidate instance hosts a lot of KV; a short prefill's gain
        // cannot outweigh the migration cost.
        let mut f = fixture();
        f.pool
            .append(RequestId(50), InstanceId(1), 400_000)
            .expect("room");
        f.pool
            .append(RequestId(51), InstanceId(2), 400_000)
            .expect("room");
        f.pool
            .append(RequestId(52), InstanceId(3), 400_000)
            .expect("room");
        let idle = f.registry.all_ids();
        let v = view(&f, &idle);
        let a = allocate(&v, &[2_000], &[InstanceId(0)]);
        assert_eq!(a.instances, vec![InstanceId(0)]);
        assert!(a.drains.is_empty());
    }

    #[test]
    fn claims_lightly_loaded_instance_with_drain_for_long_prefill() {
        // Instance 1 holds a small amount of decode KV; a very long prefill
        // gains more from the extra instance than the tiny migration costs.
        let mut f = fixture();
        f.pool
            .append(RequestId(50), InstanceId(1), 1_000)
            .expect("room");
        let idle = vec![InstanceId(0), InstanceId(1)];
        let v = view(&f, &idle);
        let a = allocate(&v, &[400_000], &[InstanceId(0)]);
        assert!(
            a.instances.contains(&InstanceId(1)),
            "should claim the lightly loaded instance"
        );
        assert_eq!(a.drains.len(), 1);
        assert_eq!(a.drains[0].request, RequestId(50));
        assert_eq!(a.drains[0].from, InstanceId(1));
        assert!(!a.drains[0].targets.is_empty());
    }

    #[test]
    fn drains_of_a_claimed_instance_follow_request_ids() {
        // The claimed instance's residents were appended out of id order;
        // request 49 lives on the prefill's own instance and stays.
        let mut f = fixture();
        for (id, inst) in [(53, 1), (50, 1), (49, 0), (54, 1), (51, 1), (52, 1)] {
            f.pool
                .append(RequestId(id), InstanceId(inst), 200)
                .expect("room");
        }
        let idle = vec![InstanceId(0), InstanceId(1)];
        let v = view(&f, &idle);
        let a = allocate(&v, &[400_000], &[InstanceId(0)]);
        assert_eq!(a.instances, vec![InstanceId(0), InstanceId(1)]);
        let drained: Vec<u64> = a.drains.iter().map(|d| d.request.raw()).collect();
        assert_eq!(drained, vec![50, 51, 52, 53, 54]);
        assert!(a.drains.iter().all(|d| d.from == InstanceId(1)));
    }
}
