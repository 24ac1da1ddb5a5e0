//! Step 3 of the global manager: batching by dynamic programming (paper §5.3).
//!
//! Requests with similar lengths behave similarly and should be batched
//! together, and batches with more tokens deserve more instances. The
//! manager sorts the admitted requests by length (descending) and the
//! allocated instances by free KV slots (ascending), then solves
//!
//! ```text
//! f[i][k] = min over j<i, l<k, D(j..i) <= V(l..k) of  f[j][l] + T(R[j..i], E[l..k])
//! ```
//!
//! where `T` is the summed input latency of the batch `R[j..i]` running on
//! instances `E[l..k]`. Back-tracking the split points yields the batch /
//! parallel-group assignment. The paper notes the split points are monotone
//! (a quadrangle-inequality argument), allowing an `O((n+m)^2)` variant,
//! which the manager runs. Under this cost model the bound can miss the
//! optimum the exhaustive DP finds (DESIGN.md); the tests hold the
//! exhaustive DP never costlier than the monotone one.

use super::predict_prefill;
use crate::types::SchedulerView;
use loong_simcore::ids::{InstanceId, RequestId};

/// One prefill batch produced by the DP: a set of requests bound to a
/// dedicated set of instances (its parallel group).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefillBatchAssignment {
    /// Requests in the batch.
    pub requests: Vec<RequestId>,
    /// Instances forming the batch's parallel group.
    pub instances: Vec<InstanceId>,
}

/// Computes the batching plan for `admitted` requests over `instances`.
///
/// Requests that cannot be covered (because the instances' free KV slots are
/// insufficient even for a singleton batch) are left out; the dispatch step
/// normally prevents this, but the DP degrades gracefully.
pub fn batch_requests(
    view: &SchedulerView<'_>,
    admitted: &[(RequestId, u64)],
    instances: &[InstanceId],
) -> Vec<PrefillBatchAssignment> {
    plan(view, admitted, instances, true)
}

/// The same DP without the monotone split-point optimisation; exposed for
/// differential testing and micro-benchmarks.
pub fn batch_requests_naive(
    view: &SchedulerView<'_>,
    admitted: &[(RequestId, u64)],
    instances: &[InstanceId],
) -> Vec<PrefillBatchAssignment> {
    plan(view, admitted, instances, false)
}

fn plan(
    view: &SchedulerView<'_>,
    admitted: &[(RequestId, u64)],
    instances: &[InstanceId],
    optimized: bool,
) -> Vec<PrefillBatchAssignment> {
    if admitted.is_empty() || instances.is_empty() {
        return Vec::new();
    }
    // Sort requests by input length descending (longest first), instances by
    // free KV slots ascending so long batches land on slot-rich suffixes.
    let mut reqs: Vec<(RequestId, u64)> = admitted.to_vec();
    reqs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut insts: Vec<(InstanceId, u64)> = instances
        .iter()
        .map(|&i| (i, view.pool.instance(i).free()))
        .collect();
    insts.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));

    let n = reqs.len();
    let m = insts.len();
    // The sorted lengths: the batch `R[j..i]` is priced as `lens[j..i]`.
    let lens: Vec<u64> = reqs.iter().map(|r| r.1).collect();

    // Prefix sums of request tokens and instance free slots.
    let mut req_prefix = vec![0u64; n + 1];
    for i in 0..n {
        req_prefix[i + 1] = req_prefix[i] + reqs[i].1;
    }
    let mut slot_prefix = vec![0u64; m + 1];
    for k in 0..m {
        slot_prefix[k + 1] = slot_prefix[k] + insts[k].1;
    }

    let inf = f64::INFINITY;
    // f[i][k]: minimal summed input latency covering the first i requests
    // with the first k instances.
    let mut f = vec![vec![inf; m + 1]; n + 1];
    let mut split_req = vec![vec![0usize; m + 1]; n + 1];
    let mut split_inst = vec![vec![0usize; m + 1]; n + 1];
    for cell in f[0].iter_mut() {
        *cell = 0.0;
    }

    for i in 1..=n {
        for k in 1..=m {
            // Candidate ranges for the previous split point. With the
            // monotone optimisation, bound them by the neighbouring split
            // points already computed (Eq. 6 of the paper).
            let (j_lo, j_hi) = if optimized && k > 1 && f[i][k - 1].is_finite() {
                (split_req[i][k - 1], i)
            } else {
                (0, i)
            };
            let (l_lo, l_hi) = if optimized && i > 1 && f[i - 1][k].is_finite() {
                (split_inst[i - 1][k], k)
            } else {
                (0, k)
            };
            for j in j_lo..j_hi.min(i) {
                for l in l_lo..l_hi.min(k) {
                    if !f[j][l].is_finite() {
                        continue;
                    }
                    let tokens = req_prefix[i] - req_prefix[j];
                    let slots = slot_prefix[k] - slot_prefix[l];
                    if tokens > slots {
                        continue;
                    }
                    let t = batch_latency(view, &lens[j..i], k - l);
                    let candidate = f[j][l] + t;
                    if candidate < f[i][k] {
                        f[i][k] = candidate;
                        split_req[i][k] = j;
                        split_inst[i][k] = l;
                    }
                }
            }
        }
    }

    // Choose the best number of instances actually used.
    let mut best_k = 0;
    let mut best = inf;
    for (k, &cost) in f[n].iter().enumerate().skip(1) {
        if cost < best {
            best = cost;
            best_k = k;
        }
    }
    if !best.is_finite() {
        // Not even the full instance set can hold all requests; fall back to
        // one batch with as many requests as fit.
        return fallback_single_batch(&reqs, &insts);
    }

    // Back-track the split points.
    let mut batches = Vec::new();
    let mut i = n;
    let mut k = best_k;
    while i > 0 {
        let j = split_req[i][k];
        let l = split_inst[i][k];
        batches.push(PrefillBatchAssignment {
            requests: reqs[j..i].iter().map(|r| r.0).collect(),
            instances: insts[l..k].iter().map(|x| x.0).collect(),
        });
        i = j;
        k = l;
    }
    batches.reverse();
    batches
}

/// Summed input latency of one batch: every request in the batch finishes at
/// the same time, so the sum is `|batch| * T_iter`.
fn batch_latency(view: &SchedulerView<'_>, lens: &[u64], num_instances: usize) -> f64 {
    predict_prefill(view, lens, num_instances) * lens.len() as f64
}

/// Fallback when the DP finds no feasible cover: greedily pack requests into
/// one batch over all instances until the slots run out.
fn fallback_single_batch(
    reqs: &[(RequestId, u64)],
    insts: &[(InstanceId, u64)],
) -> Vec<PrefillBatchAssignment> {
    let total_slots: u64 = insts.iter().map(|(_, s)| s).sum();
    let mut used = 0u64;
    let mut requests = Vec::new();
    for &(id, len) in reqs {
        if used + len <= total_slots {
            used += len;
            requests.push(id);
        }
    }
    if requests.is_empty() {
        return Vec::new();
    }
    vec![PrefillBatchAssignment {
        requests,
        instances: insts.iter().map(|(i, _)| *i).collect(),
    }]
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
    use loong_simcore::rng::SimRng;
    use loong_simcore::time::SimTime;
    use rand::Rng;

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

    fn view<'a>(f: &'a Fixture) -> SchedulerView<'a> {
        SchedulerView {
            now: SimTime::ZERO,
            pending: &f.pending,
            decoding: &[],
            swapped: &[],
            idle_instances: &[],
            pool: &f.pool,
            registry: &f.registry,
            cost_model: &f.cost_model,
            sib: &f.sib,
            avg_decode_latency_s: 0.0,
        }
    }

    fn ids(batches: &[PrefillBatchAssignment]) -> Vec<RequestId> {
        let mut v: Vec<RequestId> = batches.iter().flat_map(|b| b.requests.clone()).collect();
        v.sort();
        v
    }

    #[test]
    fn covers_every_request_exactly_once() {
        let f = fixture();
        let v = view(&f);
        let admitted: Vec<(RequestId, u64)> = vec![
            (RequestId(0), 150_000),
            (RequestId(1), 3_000),
            (RequestId(2), 2_000),
            (RequestId(3), 80_000),
        ];
        let instances = f.registry.all_ids();
        let batches = batch_requests(&v, &admitted, &instances);
        assert!(!batches.is_empty());
        assert_eq!(
            ids(&batches),
            vec![RequestId(0), RequestId(1), RequestId(2), RequestId(3)]
        );
        // Instance sets are disjoint.
        let mut all_insts: Vec<InstanceId> =
            batches.iter().flat_map(|b| b.instances.clone()).collect();
        let before = all_insts.len();
        all_insts.sort();
        all_insts.dedup();
        assert_eq!(before, all_insts.len(), "instance sets must be disjoint");
    }

    #[test]
    fn long_and_short_requests_split_into_different_groups() {
        // One 300K request plus a pile of 1K requests: the DP should not put
        // them in the same batch with the same DoP.
        let f = fixture();
        let v = view(&f);
        let mut admitted: Vec<(RequestId, u64)> = vec![(RequestId(0), 300_000)];
        admitted.extend((1..9).map(|i| (RequestId(i), 1_000)));
        let instances = f.registry.all_ids();
        let batches = batch_requests(&v, &admitted, &instances);
        assert!(
            batches.len() >= 2,
            "expected a split, got {} batch(es)",
            batches.len()
        );
        // The batch containing the long request should have more instances
        // than the batch of short requests.
        let long_batch = batches
            .iter()
            .find(|b| b.requests.contains(&RequestId(0)))
            .expect("present");
        let short_batch = batches
            .iter()
            .find(|b| !b.requests.contains(&RequestId(0)))
            .expect("present");
        assert!(long_batch.instances.len() >= short_batch.instances.len());
    }

    #[test]
    fn optimized_and_naive_dp_cover_the_same_requests() {
        let f = fixture();
        let v = view(&f);
        let admitted: Vec<(RequestId, u64)> = vec![
            (RequestId(0), 200_000),
            (RequestId(1), 120_000),
            (RequestId(2), 40_000),
            (RequestId(3), 9_000),
            (RequestId(4), 1_000),
            (RequestId(5), 500),
        ];
        let instances = f.registry.all_ids();
        let a = batch_requests(&v, &admitted, &instances);
        let b = batch_requests_naive(&v, &admitted, &instances);
        // Both cover every request; whether they cost the same is
        // `exhaustive_dp_is_never_costlier_than_the_monotone_one`.
        assert_eq!(ids(&a), ids(&b));
    }

    /// The summed input latency of a plan: its objective, accumulated
    /// batch by batch in plan order as the DP accumulates it.
    fn plan_cost(
        view: &SchedulerView<'_>,
        admitted: &[(RequestId, u64)],
        plan: &[PrefillBatchAssignment],
    ) -> f64 {
        plan.iter().fold(0.0, |cost, batch| {
            let lens: Vec<u64> = batch
                .requests
                .iter()
                .map(|id| admitted.iter().find(|(r, _)| r == id).expect("admitted").1)
                .collect();
            cost + batch_latency(view, &lens, batch.instances.len())
        })
    }

    #[test]
    fn exhaustive_dp_is_never_costlier_than_the_monotone_one() {
        // The monotone split-point bound can miss the optimum (DESIGN.md,
        // "Batching DP"); the exhaustive DP must never do worse than it.
        let mut rng = SimRng::seed(0x53_dd);
        let mut f = fixture();
        let instances = f.registry.all_ids();
        for set in 0..300 {
            let capacities: Vec<u64> = (0..4).map(|_| rng.gen_range(50_000..=600_000)).collect();
            f.pool = UnifiedKvPool::with_capacities(&capacities);
            let admitted: Vec<(RequestId, u64)> = (0..rng.gen_range(1..=8u64))
                .map(|id| (RequestId(id), rng.gen_range(500..=300_000)))
                .collect();
            let v = view(&f);
            let exhaustive = plan_cost(
                &v,
                &admitted,
                &batch_requests_naive(&v, &admitted, &instances),
            );
            let monotone = plan_cost(&v, &admitted, &batch_requests(&v, &admitted, &instances));
            assert!(
                exhaustive <= monotone,
                "set {set}: exhaustive {exhaustive} > monotone {monotone} for {admitted:?} \
                 on {capacities:?}"
            );
        }
    }

    #[test]
    fn respects_kv_capacity_constraint() {
        let mut f = fixture();
        f.pool = UnifiedKvPool::with_capacities(&[10_000, 10_000, 10_000, 500_000]);
        let v = view(&f);
        // A 400K request only fits on the slot-rich instance(s).
        let admitted = vec![(RequestId(0), 400_000)];
        let instances = f.registry.all_ids();
        let batches = batch_requests(&v, &admitted, &instances);
        assert_eq!(batches.len(), 1);
        assert!(batches[0].instances.contains(&InstanceId(3)));
    }

    #[test]
    fn empty_inputs_produce_empty_plan() {
        let f = fixture();
        let v = view(&f);
        assert!(batch_requests(&v, &[], &f.registry.all_ids()).is_empty());
        assert!(batch_requests(&v, &[(RequestId(0), 10)], &[]).is_empty());
    }

    #[test]
    fn infeasible_cover_falls_back_to_partial_batch() {
        let mut f = fixture();
        f.pool = UnifiedKvPool::with_capacities(&[1_000, 1_000, 1_000, 1_000]);
        let v = view(&f);
        let admitted = vec![(RequestId(0), 3_000), (RequestId(1), 50_000)];
        let instances = f.registry.all_ids();
        let batches = batch_requests(&v, &admitted, &instances);
        // The 50K request cannot fit anywhere; the 3K one still gets served.
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].requests, vec![RequestId(0)]);
    }
}
