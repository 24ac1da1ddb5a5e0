//! Step 1 of the global manager: dispatching (paper §5.1).
//!
//! The dispatcher chooses which pending requests start their prefill phase
//! this iteration. It scans the pending queue in FCFS order under two
//! constraints:
//!
//! * **GPU memory** — a request is only admitted if the candidate instances
//!   have enough unused KV slots for its prompt *and* its declared maximum
//!   output, so the request will not have to be evicted and recomputed
//!   later.
//! * **GPU computing** — admission stops at the "tipping point" where the
//!   prefill batch becomes compute-bound; beyond it, adding requests only
//!   lengthens the iteration without improving efficiency.
//!
//! When admitting more requests would require borrowing KV slots from
//! instances that currently host ready decode batches (thereby delaying
//! them), the dispatcher weighs the gain for the new requests (Eq. 2)
//! against the cost inflicted on the delayed decode requests (Eq. 1) and
//! only borrows when the gain wins.

use super::predict_prefill;
use crate::pressure::admission_reserve;
use crate::types::{PendingRequest, SchedulerView};
use loong_model::roofline::ParallelConfig;
use loong_simcore::ids::{InstanceId, RequestId};

/// The dispatcher's output: which requests enter the prefill phase and which
/// instances they may use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchDecision<'v> {
    /// Requests admitted to the prefill phase, in admission order: those
    /// admitted onto purely idle instances in FCFS order, then each
    /// borrowed hosting set's in FCFS order.
    pub admitted: Vec<&'v PendingRequest>,
    /// Instances the prefill phase may use (`E_p`): purely idle instances
    /// plus any decode-hosting instances whose borrowing passed the
    /// gain/cost test.
    pub candidate_instances: Vec<InstanceId>,
}

/// Runs the dispatching step reserving `output_reserve_factor` of each
/// request's declared output bound (plus at least one slot; see
/// [`admission_reserve`]). At 1.0 — the manager without pressure handling —
/// no admitted request can ever be evicted; factors below 1.0 admit
/// optimistically, and decode growth can then exhaust the pool, which is
/// exactly the regime the memory-pressure policies handle.
/// `admission_budget` caps the total slots this round may commit (pressure
/// watermark headroom); `u64::MAX` means uncapped.
pub fn dispatch<'v>(
    view: &SchedulerView<'v>,
    output_reserve_factor: f64,
    admission_budget: u64,
) -> DispatchDecision<'v> {
    // Partition the idle instances into "freely usable" and
    // "decode-hosting". An instance whose resident decode work is light —
    // short contexts that a prefill iteration delays by at most a few tens
    // of milliseconds — counts as freely usable; only instances carrying a
    // substantial decode working set are protected behind the Eq. 1/2
    // gain-versus-cost test, because preempting them (in memory or in time)
    // is what actually hurts.
    let mut purely_idle: Vec<InstanceId> = Vec::new();
    let mut decode_hosting: Vec<InstanceId> = Vec::new();
    for &inst in view.idle_instances {
        let (mut resident_tokens, mut residents) = (0u64, 0usize);
        for d in view.decoding {
            if view.pool.tokens_on(d.id, inst) > 0 {
                resident_tokens += d.context_len;
                residents += 1;
            }
        }
        let heavy = resident_tokens > view.pool.instance(inst).capacity() / 10 || residents > 64;
        if heavy {
            decode_hosting.push(inst);
        } else {
            purely_idle.push(inst);
        }
    }

    let mut candidate_instances = purely_idle;
    let mut admitted: Vec<&'v PendingRequest> = Vec::new();
    // Running sum of the admitted input lengths.
    let mut admitted_tokens = 0u64;

    if view.pending.is_empty() {
        return DispatchDecision {
            admitted,
            candidate_instances,
        };
    }

    // Reclaimable retained prefixes count as free for admission: the
    // engine evicts them before committing the prefill placement (and the
    // pending view's suffix lengths already price any prefix the request
    // itself will adopt). Zero extra slots when the prefix tier is off.
    let mut free_slots = (view.free_slots_on(&candidate_instances)
        + view.reclaimable_slots_on(&candidate_instances))
    .min(admission_budget);
    let mut budget_left = admission_budget;
    // The prefill tipping point: fresh prompts attend over no prior prefix,
    // so it is the roofline's context-0 closed form (any attention policy's
    // term vanishes there; sparsity shows up in the per-batch cost
    // predictions instead). It is a lower bound on useful batch size, so at
    // least one request always gets through.
    let parallel = ParallelConfig::new(view.registry.tp(), candidate_instances.len().max(1));
    let saturation = view.cost_model.prefill_saturation_tokens(parallel).max(1);
    let mut remaining: Vec<&'v PendingRequest> = view.pending.iter().collect();
    let reserve_of = |req: &PendingRequest| {
        admission_reserve(req.input_len, req.max_output_len, output_reserve_factor)
    };

    // First pass: admit onto purely idle instances.
    remaining.retain(|&req| {
        if admitted_tokens >= saturation {
            return true;
        }
        let reserve = reserve_of(req);
        if reserve <= free_slots && !candidate_instances.is_empty() {
            free_slots -= reserve;
            budget_left -= reserve;
            admitted.push(req);
            admitted_tokens += req.input_len;
            false
        } else {
            true
        }
    });

    // Second pass: consider borrowing decode-hosting instances for the
    // requests that did not fit, one hosting set at a time (Eq. 1 vs Eq. 2).
    if !remaining.is_empty() && !decode_hosting.is_empty() {
        // Group the hosting instances by the decode requests resident on
        // them so a borrow delays a well-defined set of decodes.
        let mut groups = group_hosting_instances(view, &decode_hosting);
        // Borrow the least-loaded hosting sets first.
        groups.sort_by_key(|g| g.resident_tokens);
        for group in groups {
            if remaining.is_empty() || admitted_tokens >= saturation {
                break;
            }
            let extra_free: u64 =
                view.free_slots_on(&group.instances) + view.reclaimable_slots_on(&group.instances);
            // Which of the remaining requests could be admitted using this
            // group's spare slots (on top of any slots still free), within
            // what is left of the admission budget?
            let mut extra_budget = (free_slots + extra_free).min(budget_left);
            let mut extra_requests: Vec<&'v PendingRequest> = Vec::new();
            let mut extra_tokens = 0u64;
            for &req in &remaining {
                if admitted_tokens + extra_tokens >= saturation {
                    break;
                }
                let reserve = reserve_of(req);
                if reserve <= extra_budget {
                    extra_budget -= reserve;
                    extra_tokens += req.input_len;
                    extra_requests.push(req);
                }
            }
            if extra_requests.is_empty() {
                continue;
            }

            // Cost (Eq. 1): the prefill iteration time of the enlarged batch
            // divided by each delayed request's generated output length.
            let all_lens: Vec<u64> = admitted
                .iter()
                .chain(&extra_requests)
                .map(|r| r.input_len)
                .collect();
            let enlarged_instances = candidate_instances.len() + group.instances.len();
            let iter_time = predict_prefill(view, &all_lens, enlarged_instances.max(1));
            let cost: f64 = group
                .residents
                .iter()
                .map(|&rid| {
                    let generated = view
                        .decoding
                        .iter()
                        .find(|d| d.id == rid)
                        .map(|d| d.generated.max(1))
                        .unwrap_or(1);
                    iter_time / generated as f64
                })
                .sum();

            // Gain (Eq. 2): how much waiting the extra requests avoid,
            // normalised by their input lengths. Before any request has
            // finished, `AvgLat_d` is unknown; fall back to an optimistic
            // estimate (twice the elapsed decode time of the running batch
            // plus a floor) so the cold-start phase does not starve prefills.
            let min_exec: f64 = group
                .residents
                .iter()
                .filter_map(|&rid| view.decoding.iter().find(|d| d.id == rid))
                .map(|d| d.decode_time_s)
                .fold(f64::INFINITY, f64::min);
            let min_exec = if min_exec.is_finite() { min_exec } else { 0.0 };
            let avg_decode_latency = if view.avg_decode_latency_s > 0.0 {
                view.avg_decode_latency_s
            } else {
                let mean_elapsed = if view.decoding.is_empty() {
                    0.0
                } else {
                    view.decoding.iter().map(|d| d.decode_time_s).sum::<f64>()
                        / view.decoding.len() as f64
                };
                2.0 * mean_elapsed + 0.5
            };
            let gain: f64 = extra_requests
                .iter()
                .map(|r| (avg_decode_latency - min_exec).max(0.0) / r.input_len.max(1) as f64)
                .sum();

            if gain > cost {
                // Borrow this hosting set.
                free_slots += extra_free;
                for &req in &extra_requests {
                    let reserve = reserve_of(req);
                    free_slots = free_slots.saturating_sub(reserve);
                    budget_left = budget_left.saturating_sub(reserve);
                    admitted.push(req);
                    admitted_tokens += req.input_len;
                }
                remaining.retain(|r| !extra_requests.iter().any(|e| e.id == r.id));
                candidate_instances.extend(group.instances.iter().copied());
            }
        }
    }

    DispatchDecision {
        admitted,
        candidate_instances,
    }
}

/// A set of idle instances hosting the KV of a common set of ready decode
/// requests.
struct HostingGroup {
    instances: Vec<InstanceId>,
    residents: Vec<RequestId>,
    resident_tokens: u64,
}

/// Groups decode-hosting idle instances into connected components: two
/// instances belong to the same group if some ready decode request has KV on
/// both.
fn group_hosting_instances(view: &SchedulerView<'_>, hosting: &[InstanceId]) -> Vec<HostingGroup> {
    let mut groups: Vec<HostingGroup> = Vec::new();
    let mut assigned: Vec<InstanceId> = Vec::new();
    for &start in hosting {
        if assigned.contains(&start) {
            continue;
        }
        // Flood fill over the "shares a request" relation.
        let mut instances = vec![start];
        let mut residents: Vec<RequestId> = Vec::new();
        let mut changed = true;
        while changed {
            changed = false;
            for d in view.decoding {
                let kv = view.pool.locations_ref(d.id);
                if kv.iter().any(|(i, _)| instances.contains(i)) {
                    if !residents.contains(&d.id) {
                        residents.push(d.id);
                        changed = true;
                    }
                    for &(i, _) in kv {
                        if hosting.contains(&i) && !instances.contains(&i) {
                            instances.push(i);
                            changed = true;
                        }
                    }
                }
            }
        }
        let resident_tokens = residents
            .iter()
            .filter_map(|&rid| view.decoding.iter().find(|d| d.id == rid))
            .map(|d| d.context_len)
            .sum();
        assigned.extend(instances.iter().copied());
        groups.push(HostingGroup {
            instances,
            residents,
            resident_tokens,
        });
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DecodingRequest;
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
    }

    fn fixture() -> Fixture {
        Fixture {
            registry: InstanceRegistry::build(&ClusterSpec::single_node_a800(8), 2),
            cost_model: CostModel::new(ModelConfig::lwm_1m_text()),
            sib: ScalingInfoBase::new(),
            pool: UnifiedKvPool::new(4, 500_000),
        }
    }

    fn pending(id: u64, len: u64) -> PendingRequest {
        PendingRequest {
            id: RequestId(id),
            input_len: len,
            prefilled_len: 0,
            max_output_len: 256,
        }
    }

    fn view<'a>(
        f: &'a Fixture,
        pending: &'a [PendingRequest],
        decoding: &'a [DecodingRequest],
        idle: &'a [InstanceId],
    ) -> SchedulerView<'a> {
        SchedulerView {
            now: SimTime::ZERO,
            pending,
            decoding,
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
    fn admits_fcfs_until_memory_or_saturation() {
        let f = fixture();
        let idle: Vec<InstanceId> = f.registry.all_ids();
        let reqs: Vec<PendingRequest> = (0..4).map(|i| pending(i, 100_000)).collect();
        let v = view(&f, &reqs, &[], &idle);
        let d = dispatch(&v, 1.0, u64::MAX);
        assert!(!d.admitted.is_empty());
        // FCFS: the first pending request is always admitted first.
        assert_eq!(d.admitted[0].id, RequestId(0));
        assert_eq!(d.candidate_instances.len(), 4);
    }

    #[test]
    fn respects_memory_limit() {
        let mut f = fixture();
        f.pool = UnifiedKvPool::new(4, 50_000);
        let idle: Vec<InstanceId> = f.registry.all_ids();
        // 300K tokens cannot fit in 200K total slots.
        let reqs = vec![pending(0, 300_000)];
        let v = view(&f, &reqs, &[], &idle);
        let d = dispatch(&v, 1.0, u64::MAX);
        assert!(d.admitted.is_empty());
    }

    #[test]
    fn stops_at_saturation_point() {
        let f = fixture();
        let idle: Vec<InstanceId> = f.registry.all_ids();
        // Many small requests: total far exceeds the tipping point, so only
        // a prefix is admitted even though memory would allow all of them.
        let reqs: Vec<PendingRequest> = (0..512).map(|i| pending(i, 1_000)).collect();
        let v = view(&f, &reqs, &[], &idle);
        let d = dispatch(&v, 1.0, u64::MAX);
        assert!(!d.admitted.is_empty());
        assert!(
            d.admitted.len() < 512,
            "admitted {} of 512",
            d.admitted.len()
        );

        // A head request of exactly the roofline's tipping point fills the
        // batch, so the next request waits however short it is; one token
        // shorter, the next request joins it.
        let tipping = f
            .cost_model
            .prefill_saturation_tokens(ParallelConfig::new(2, 4));
        for (head, admitted) in [(tipping, 1), (tipping - 1, 2)] {
            let reqs = vec![pending(0, head), pending(1, 100)];
            let d = dispatch(&view(&f, &reqs, &[], &idle), 1.0, u64::MAX);
            assert_eq!(d.admitted.len(), admitted, "head of {head} tokens");
        }
    }

    #[test]
    fn no_pending_means_no_admission() {
        let f = fixture();
        let idle: Vec<InstanceId> = f.registry.all_ids();
        let v = view(&f, &[], &[], &idle);
        let d = dispatch(&v, 1.0, u64::MAX);
        assert!(d.admitted.is_empty());
    }

    #[test]
    fn borrowing_requires_gain_to_exceed_cost() {
        let mut f = fixture();
        // All instances host a substantial decode working set; a long
        // prefill wants to borrow them.
        for i in 0..4 {
            f.pool
                .append(RequestId(100 + i), InstanceId(i), 100_000)
                .expect("room");
        }
        let idle: Vec<InstanceId> = f.registry.all_ids();
        let decoding: Vec<DecodingRequest> = (0..4)
            .map(|i| DecodingRequest {
                id: RequestId(100 + i),
                context_len: 100_000,
                generated: 50,
                decode_time_s: 1.0,
            })
            .collect();
        let reqs = vec![pending(0, 200_000)];

        // With a low average decode latency (gain ~ 0) the borrow is refused.
        let mut v = view(&f, &reqs, &decoding, &idle);
        v.avg_decode_latency_s = 0.0;
        let d = dispatch(&v, 1.0, u64::MAX);
        assert!(d.admitted.is_empty());
        assert!(d.candidate_instances.is_empty());

        // With a huge average decode latency (requests are waiting a very
        // long time), the gain dominates and the borrow is accepted.
        let mut v = view(&f, &reqs, &decoding, &idle);
        v.avg_decode_latency_s = 1e7;
        let d = dispatch(&v, 1.0, u64::MAX);
        assert_eq!(d.admitted, [&reqs[0]]);
        assert!(!d.candidate_instances.is_empty());
    }
}
