//! Independent-instance baselines (vLLM-style and replicated serving).
//!
//! These baselines model the "one static engine per instance" designs the
//! paper compares against:
//!
//! * **vLLM (TP=8)** — the whole node is one tensor-parallel engine with
//!   continuous batching and prefill-prioritised scheduling; with several
//!   nodes, each node is an independent engine.
//! * **Replicated (TP=2) × 4** — four small engines, each holding a full
//!   model replica, with requests routed to the least-loaded replica
//!   (the "parallelism with replication" ablation of Figure 12).
//!
//! Both share the same policy: every instance serves its own requests with a
//! strict locality constraint (a request's whole KV lives on one instance),
//! prefill takes priority over decode, and requests that cannot fit on any
//! single instance are rejected — the fragmentation weakness §2.4
//! highlights.

use crate::pressure::{admission_reserve, pressure_actions_with_rescue, PressureConfig};
use crate::types::{Action, PendingRequest, Scheduler, SchedulerView};
use loong_model::roofline::ParallelConfig;
use loong_simcore::ids::{InstanceId, RequestId};
use std::collections::{BTreeMap, HashMap};

/// A scheduler treating every elastic instance as an independent serving
/// engine with static parallelism.
#[derive(Debug, Clone)]
pub struct IndependentInstancesScheduler {
    name: String,
    /// Pending requests already routed to an instance (sticky routing, so a
    /// request is not bounced between replicas while it waits).
    routing: HashMap<RequestId, InstanceId>,
    /// Memory-pressure handling. `None` (the default) keeps the
    /// conservative full-output reservation and never emits pressure
    /// actions — the golden-pinned behaviour.
    pressure: Option<PressureConfig>,
}

impl IndependentInstancesScheduler {
    /// Creates the policy with a report label such as `"vLLM (TP=8)"`.
    pub fn new(name: impl Into<String>) -> Self {
        IndependentInstancesScheduler {
            name: name.into(),
            routing: HashMap::new(),
            pressure: None,
        }
    }

    /// The vLLM-style baseline label used in the paper's figures.
    pub fn vllm() -> Self {
        Self::new("vLLM (TP=8)")
    }

    /// The replicated-instances ablation label used in Figure 12.
    pub fn replicated() -> Self {
        Self::new("LoongServe w/o ESP (TP=2) x 4")
    }

    /// Enables memory-pressure handling: optimistic admission per the
    /// config's reserve factor, watermark-driven victim eviction, and (for
    /// the swap policy) re-admission from the host tier.
    ///
    /// # Panics
    ///
    /// Panics if the config fails validation.
    pub fn with_pressure(mut self, config: PressureConfig) -> Self {
        config.validate().expect("valid pressure config");
        self.pressure = Some(config);
        self
    }

    /// KV slots reserved for a pending request at admission: the full
    /// declared output without pressure handling, the configured optimistic
    /// reservation with it.
    fn reserved(&self, req: &PendingRequest) -> u64 {
        match &self.pressure {
            None => req.input_len + req.max_output_len,
            Some(cfg) => {
                admission_reserve(req.input_len, req.max_output_len, cfg.output_reserve_factor)
            }
        }
    }

    /// Routes a pending request to an instance: stick with a previous
    /// routing decision, otherwise pick the instance with the most free KV
    /// slots.
    ///
    /// Under pressure handling, routing is recomputed every round instead:
    /// a sticky assignment made while a replica was emptiest can pin a
    /// request to a replica that pressure later filled, starving it while
    /// other replicas drain completely. (With pressure off the sticky path
    /// is unchanged — the golden-pinned behaviour.)
    fn route(&mut self, view: &SchedulerView<'_>, req: &PendingRequest) -> Option<InstanceId> {
        if self.pressure.is_none() {
            if let Some(&inst) = self.routing.get(&req.id) {
                return Some(inst);
            }
        }
        let needed = self.reserved(req);
        let mut best: Option<(InstanceId, u64)> = None;
        for &(inst, free) in &view.pool.free_slots() {
            // Reclaimable retained prefixes count as free (the engine
            // evicts them at prefill commit); zero extra when the tier is
            // off.
            let free = free + view.pool.prefix_retained_on(inst);
            if free >= needed && best.map(|(_, b)| free > b).unwrap_or(true) {
                best = Some((inst, free));
            }
        }
        let inst = best.map(|(i, _)| i)?;
        if self.pressure.is_none() {
            self.routing.insert(req.id, inst);
        }
        Some(inst)
    }
}

impl Scheduler for IndependentInstancesScheduler {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn schedule(&mut self, view: &SchedulerView<'_>) -> Vec<Action> {
        let mut actions = Vec::new();
        let tp = view.registry.tp();
        let saturation = view
            .cost_model
            .prefill_saturation_tokens(ParallelConfig::new(tp, 1));

        // Reject requests that no single instance could ever hold.
        let max_single = view
            .registry
            .all_ids()
            .iter()
            .map(|&i| view.pool.instance(i).capacity())
            .max()
            .unwrap_or(0);
        for p in view.pending {
            if p.input_len + p.max_output_len > max_single {
                actions.push(Action::Reject {
                    request: p.id,
                    reason: format!(
                        "request needs {} KV slots but a single instance only has {max_single} (locality constraint)",
                        p.input_len + p.max_output_len
                    ),
                });
            }
        }

        // Memory-pressure handling (when enabled): evict victims above the
        // high watermark, re-admit swapped requests below the low one, and
        // pause new admissions while pressured. With the tier disabled this
        // whole block is skipped and scheduling is bit-for-bit the
        // golden-pinned baseline.
        let mut admit = true;
        let mut budget_left = u64::MAX;
        if let Some(cfg) = self.pressure {
            let mut pa = pressure_actions_with_rescue(view, &cfg);
            // Strict locality: a restored KV cache must land whole on one
            // instance (these baselines decode each request on the single
            // instance holding its KV), so rewrite the generic multi-target
            // swap-ins to the emptiest instance with room — or defer the
            // re-admission if no single instance fits yet. The oversize
            // reject above bounds a request's demand by one instance's
            // capacity, so a deferred swap-in always fits eventually.
            pa.retain_mut(|a| {
                let Action::SwapIn { request, targets } = a else {
                    return true;
                };
                let tokens = view.pool.swapped_tokens_of(*request);
                let mut best: Option<(InstanceId, u64)> = None;
                for &(inst, free) in &view.pool.free_slots() {
                    // Keep high-watermark headroom on the chosen replica
                    // (an empty replica always qualifies) so the restored
                    // request does not immediately re-create the pressure
                    // that evicted it. Reclaimable retained prefixes count
                    // as free / not-used throughout.
                    let pool_i = view.pool.instance(inst);
                    let reclaimable = view.pool.prefix_retained_on(inst);
                    let free = free + reclaimable;
                    let used = pool_i.used() - reclaimable;
                    let head = (cfg.high_watermark * pool_i.capacity() as f64).floor() as u64;
                    let fits = free >= tokens && (used + tokens <= head || used == 0);
                    if fits && best.map(|(_, b)| free > b).unwrap_or(true) {
                        best = Some((inst, free));
                    }
                }
                match best {
                    Some((inst, _)) => {
                        *targets = vec![inst];
                        true
                    }
                    None => false,
                }
            });
            actions.extend(pa);
            admit = !cfg.admission_paused(view);
            budget_left = cfg.admission_budget(view);
        }

        // Route pending requests and gather per-instance prefill batches.
        let mut prefill_per_instance: BTreeMap<InstanceId, Vec<RequestId>> = BTreeMap::new();
        let mut budget_per_instance: HashMap<InstanceId, u64> = HashMap::new();
        let mut tokens_per_instance: HashMap<InstanceId, u64> = HashMap::new();
        for req in view.pending {
            if !admit {
                break;
            }
            let needed = self.reserved(req);
            let Some(inst) = self.route(view, req) else {
                continue;
            };
            if !view.idle_instances.contains(&inst) {
                continue;
            }
            // Under pressure, per-instance admission stops at the low
            // watermark: the [low, high] band is decode-growth headroom
            // here exactly as it is pool-globally, so a re-admitted
            // eviction victim cannot refill its replica to 100% and
            // recreate the stall it was evicted to clear.
            let budget = budget_per_instance.entry(inst).or_insert_with(|| {
                let pool_i = view.pool.instance(inst);
                let reclaimable = view.pool.prefix_retained_on(inst);
                match &self.pressure {
                    None => pool_i.free() + reclaimable,
                    Some(cfg) => {
                        let target = (cfg.low_watermark * pool_i.capacity() as f64).floor() as u64;
                        target.saturating_sub(pool_i.used() - reclaimable)
                    }
                }
            });
            let tokens = tokens_per_instance.entry(inst).or_insert(0);
            // A completely empty instance admits its first request of the
            // round on physical capacity alone: the watermark budget would
            // otherwise starve any request larger than the low-watermark
            // band forever, even with the whole replica drained. A sole
            // resident always fits to completion (the oversize reject
            // bounds input + max_output by one instance's capacity).
            let reclaimable = view.pool.prefix_retained_on(inst);
            let empty_bypass = *tokens == 0 && view.pool.instance(inst).used() - reclaimable == 0;
            let affordable = (needed <= *budget && needed <= budget_left)
                || (empty_bypass && needed <= view.pool.instance(inst).free() + reclaimable);
            if *tokens >= saturation || !affordable {
                continue;
            }
            *budget = budget.saturating_sub(needed);
            budget_left = budget_left.saturating_sub(needed);
            *tokens += req.input_len;
            prefill_per_instance.entry(inst).or_default().push(req.id);
        }

        let mut used: Vec<InstanceId> = Vec::new();
        for (inst, requests) in prefill_per_instance {
            used.push(inst);
            actions.push(Action::Prefill {
                instances: vec![inst],
                requests,
                retain_on: vec![inst],
            });
        }

        // Decode on the remaining idle instances (prefill has priority).
        let mut decode_per_instance: BTreeMap<InstanceId, Vec<RequestId>> = BTreeMap::new();
        for d in view.decoding {
            let Some(&(inst, _)) = view.pool.locations_ref(d.id).first() else {
                continue;
            };
            if used.contains(&inst) || !view.idle_instances.contains(&inst) {
                continue;
            }
            decode_per_instance.entry(inst).or_default().push(d.id);
        }
        for (inst, mut requests) in decode_per_instance {
            // Under optimistic admission an instance can hold fewer free
            // slots than ready residents; decode the FCFS-oldest subset
            // that fits, rather than emitting a batch whose plan fails
            // wholesale and advances nobody. (Pressure off keeps the full
            // batch: conservative reservation guarantees the slots.)
            if self.pressure.is_some() {
                let free =
                    (view.pool.instance(inst).free() + view.pool.prefix_retained_on(inst)) as usize;
                if free == 0 {
                    continue;
                }
                requests.truncate(free);
            }
            actions.push(Action::Decode {
                instances: vec![inst],
                masters: vec![inst],
                requests,
            });
        }
        actions
    }
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
        pending: Vec<PendingRequest>,
        decoding: Vec<DecodingRequest>,
        idle: Vec<InstanceId>,
    }

    fn fixture(tp: usize) -> Fixture {
        let registry = InstanceRegistry::build(&ClusterSpec::single_node_a800(8), tp);
        let idle = registry.all_ids();
        let n = registry.num_instances();
        Fixture {
            registry,
            cost_model: CostModel::new(ModelConfig::lwm_1m_text()),
            sib: ScalingInfoBase::new(),
            pool: UnifiedKvPool::new(n, 400_000),
            pending: vec![],
            decoding: vec![],
            idle,
        }
    }

    fn view<'a>(f: &'a Fixture) -> SchedulerView<'a> {
        SchedulerView {
            now: SimTime::ZERO,
            pending: &f.pending,
            decoding: &f.decoding,
            swapped: &[],
            idle_instances: &f.idle,
            pool: &f.pool,
            registry: &f.registry,
            cost_model: &f.cost_model,
            sib: &f.sib,
            avg_decode_latency_s: 0.0,
        }
    }

    fn pending(id: u64, len: u64) -> PendingRequest {
        PendingRequest {
            id: RequestId(id),
            input_len: len,
            prefilled_len: 0,
            max_output_len: 128,
        }
    }

    #[test]
    fn vllm_uses_single_instance_prefill() {
        let mut f = fixture(8);
        f.pending = vec![pending(0, 1_000), pending(1, 500)];
        let mut s = IndependentInstancesScheduler::vllm();
        let actions = s.schedule(&view(&f));
        let prefills: Vec<&Action> = actions
            .iter()
            .filter(|a| matches!(a, Action::Prefill { .. }))
            .collect();
        assert_eq!(prefills.len(), 1);
        if let Action::Prefill {
            instances,
            requests,
            retain_on,
        } = prefills[0]
        {
            assert_eq!(instances.len(), 1);
            assert_eq!(retain_on, instances);
            assert_eq!(requests.len(), 2);
        }
    }

    #[test]
    fn replicated_routes_to_least_loaded() {
        let mut f = fixture(2);
        // Load instance 0 heavily so new requests prefer other replicas.
        f.pool
            .append(RequestId(99), InstanceId(0), 350_000)
            .expect("room");
        f.pending = vec![pending(0, 10_000)];
        let mut s = IndependentInstancesScheduler::replicated();
        let actions = s.schedule(&view(&f));
        let prefill_instance = actions
            .iter()
            .find_map(|a| match a {
                Action::Prefill { instances, .. } => Some(instances[0]),
                _ => None,
            })
            .expect("prefill scheduled");
        assert_ne!(prefill_instance, InstanceId(0));
    }

    #[test]
    fn oversized_request_rejected_under_locality() {
        let mut f = fixture(2);
        // 600K tokens exceeds a single 400K-slot instance even though the
        // cluster total (1.6M) would suffice — the Figure 4 pathology.
        f.pending = vec![pending(0, 600_000)];
        let mut s = IndependentInstancesScheduler::replicated();
        let actions = s.schedule(&view(&f));
        assert!(actions.iter().any(|a| matches!(a, Action::Reject { .. })));
        assert!(!actions.iter().any(|a| matches!(a, Action::Prefill { .. })));
    }

    #[test]
    fn decode_runs_when_no_prefill_pending() {
        let mut f = fixture(8);
        f.pool
            .append(RequestId(0), InstanceId(0), 500)
            .expect("room");
        f.decoding = vec![DecodingRequest {
            id: RequestId(0),
            context_len: 500,
            generated: 3,
            decode_time_s: 0.0,
        }];
        let mut s = IndependentInstancesScheduler::vllm();
        let actions = s.schedule(&view(&f));
        assert!(actions.iter().any(|a| matches!(a, Action::Decode { .. })));
    }

    #[test]
    fn swap_in_is_rewritten_to_a_single_replica_or_deferred() {
        use crate::pressure::PressureConfig;
        // Two replicas with 600 and 500 free slots; a 900-token swapped
        // request must NOT be split across them (strict locality): the
        // swap-in is deferred until one replica can hold it whole.
        let mut f = fixture(2);
        // Registry has four TP=2 instances; give the last two zero slots so
        // only two replicas matter for placement.
        f.pool = UnifiedKvPool::with_capacities(&[1_000, 1_000, 0, 0]);
        f.pool.enable_host_tier(10_000);
        f.pool
            .append(RequestId(0), InstanceId(0), 900)
            .expect("room");
        f.pool.swap_out(RequestId(0)).expect("host room");
        f.pool
            .append(RequestId(1), InstanceId(0), 400)
            .expect("room");
        f.pool
            .append(RequestId(2), InstanceId(1), 500)
            .expect("room");
        f.idle = vec![InstanceId(0), InstanceId(1)];
        let swapped = [RequestId(0)];
        let mut v = view(&f);
        v.swapped = &swapped;
        let mut s = IndependentInstancesScheduler::replicated()
            .with_pressure(PressureConfig::swap_to_host());
        let actions = s.schedule(&v);
        assert!(
            !actions.iter().any(|a| matches!(a, Action::SwapIn { .. })),
            "no single replica fits 900 tokens: the swap-in must be deferred"
        );

        // Free instance 1 entirely: the swap-in now targets exactly it.
        f.pool.release(RequestId(2));
        let mut v = view(&f);
        v.swapped = &swapped;
        let actions = s.schedule(&v);
        let targets = actions
            .iter()
            .find_map(|a| match a {
                Action::SwapIn { request, targets } if *request == RequestId(0) => Some(targets),
                _ => None,
            })
            .expect("swap-in emitted");
        assert_eq!(
            targets,
            &vec![InstanceId(1)],
            "whole request on one replica"
        );
    }

    #[test]
    fn prefill_preempts_decode_on_same_instance() {
        let mut f = fixture(8);
        f.pool
            .append(RequestId(0), InstanceId(0), 500)
            .expect("room");
        f.decoding = vec![DecodingRequest {
            id: RequestId(0),
            context_len: 500,
            generated: 3,
            decode_time_s: 0.0,
        }];
        f.pending = vec![pending(1, 50_000)];
        let mut s = IndependentInstancesScheduler::vllm();
        let actions = s.schedule(&view(&f));
        assert!(actions.iter().any(|a| matches!(a, Action::Prefill { .. })));
        assert!(
            !actions.iter().any(|a| matches!(a, Action::Decode { .. })),
            "decode should be delayed behind the prefill (the interference the paper measures)"
        );
    }
}
