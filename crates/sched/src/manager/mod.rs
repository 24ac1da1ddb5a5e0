//! The LoongServe global manager (paper §5).
//!
//! The manager decomposes each scheduling decision into four polynomial-time
//! steps — [`dispatch`]ing, elastic instance [`allocate`]ion, DP
//! [`batching`], and elastic [`scaling`] plan generation — and combines
//! their outputs into the action list the serving engine executes.

pub mod allocate;
pub mod batching;
pub mod dispatch;
pub mod scaling;

use crate::pressure::{admission_reserve, pressure_actions, PressureConfig};
use crate::types::{
    Action, PendingRequest, ScalingEvent, ScalingEventKind, Scheduler, SchedulerView,
};
use loong_model::roofline::ParallelConfig;
use loong_simcore::ids::{InstanceId, RequestId};
use serde::{Deserialize, Serialize};

/// Tunables of the LoongServe global manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoongServeConfig {
    /// Whether decode groups may scale up (disabled for the Figure 13a
    /// ablation).
    pub enable_scale_up: bool,
}

impl Default for LoongServeConfig {
    fn default() -> Self {
        LoongServeConfig {
            enable_scale_up: true,
        }
    }
}

/// The LoongServe scheduling policy.
#[derive(Debug, Clone)]
pub struct LoongServeScheduler {
    config: LoongServeConfig,
    events: Vec<ScalingEvent>,
    /// Memory-pressure handling. `None` (the default) keeps the
    /// conservative full-output reservation in dispatching and never emits
    /// pressure actions — the golden-pinned behaviour.
    pressure: Option<PressureConfig>,
}

impl LoongServeScheduler {
    /// Creates a manager with the default configuration.
    pub fn new() -> Self {
        Self::with_config(LoongServeConfig::default())
    }

    /// Creates a manager with an explicit configuration.
    pub fn with_config(config: LoongServeConfig) -> Self {
        LoongServeScheduler {
            config,
            events: Vec::new(),
            pressure: None,
        }
    }

    /// Enables memory-pressure handling: the dispatcher reserves only the
    /// configured fraction of each declared output bound (optimistic
    /// admission), victims are evicted per the config's policy above the
    /// high watermark, and swapped requests re-admit below the low one.
    ///
    /// # Panics
    ///
    /// Panics if the config fails validation.
    pub fn with_pressure(mut self, pressure: PressureConfig) -> Self {
        pressure.validate().expect("valid pressure config");
        self.pressure = Some(pressure);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> LoongServeConfig {
        self.config
    }

    fn find_pending<'a>(view: &'a SchedulerView<'_>, id: RequestId) -> Option<&'a PendingRequest> {
        view.pending.iter().find(|p| p.id == id)
    }
}

impl Default for LoongServeScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for LoongServeScheduler {
    fn name(&self) -> String {
        "LoongServe".to_string()
    }

    fn schedule(&mut self, view: &SchedulerView<'_>) -> Vec<Action> {
        let mut actions: Vec<Action> = Vec::new();

        // Reject requests that can never be served even by the whole pool.
        for p in view.pending {
            if p.input_len + p.max_output_len > view.pool.total_capacity() {
                actions.push(Action::Reject {
                    request: p.id,
                    reason: format!(
                        "request needs {} KV slots but the cluster only has {}",
                        p.input_len + p.max_output_len,
                        view.pool.total_capacity()
                    ),
                });
            }
        }

        // Memory-pressure handling (when enabled): evict victims above the
        // high watermark, re-admit swapped requests below the low one, and
        // pause dispatching while pressured. With the tier disabled this
        // block is skipped and scheduling is bit-for-bit the golden-pinned
        // manager.
        let mut reserve_factor = 1.0;
        let mut admission_budget = u64::MAX;
        let mut admit = true;
        if let Some(cfg) = self.pressure {
            actions.extend(pressure_actions(view, &cfg));
            reserve_factor = cfg.output_reserve_factor;
            admission_budget = cfg.admission_budget(view);
            admit = !cfg.admission_paused(view);
            // An empty pool admits at least the FCFS head on physical
            // capacity alone: the watermark budget would otherwise starve
            // any request larger than the low-watermark band forever.
            // "Empty" means no *active* KV — reclaimable retained prefixes
            // do not block the bypass.
            if view.pool.active_used() == 0 {
                if let Some(head) = view.pending.first() {
                    admission_budget = admission_budget.max(admission_reserve(
                        head.input_len,
                        head.max_output_len,
                        reserve_factor,
                    ));
                }
            }
        }

        // Step 1: dispatching.
        let dispatch_decision = if admit {
            dispatch::dispatch(view, reserve_factor, admission_budget)
        } else {
            dispatch::DispatchDecision {
                admitted: Vec::new(),
                candidate_instances: Vec::new(),
                delayed_decodes: Vec::new(),
            }
        };
        let admitted_info: Vec<(RequestId, u64, u64)> = dispatch_decision
            .admitted
            .iter()
            .filter_map(|&id| {
                Self::find_pending(view, id).map(|p| (id, p.input_len, p.max_output_len))
            })
            .collect();
        let admitted_lens: Vec<u64> = admitted_info.iter().map(|&(_, len, _)| len).collect();

        // Step 2: elastic instance allocation.
        let allocation =
            allocate::allocate(view, &admitted_lens, &dispatch_decision.candidate_instances);
        let mut prefill_claimed: Vec<InstanceId> = Vec::new();
        let mut migration_touched: Vec<InstanceId> = Vec::new();
        for drain in &allocation.drains {
            // The drained request keeps whatever KV it already has elsewhere
            // and the evicted span lands on the drain targets.
            let mut final_targets: Vec<InstanceId> = view
                .pool
                .locations_ref(drain.request)
                .iter()
                .map(|&(i, _)| i)
                .filter(|&i| i != drain.from)
                .collect();
            for &t in &drain.targets {
                if !final_targets.contains(&t) {
                    final_targets.push(t);
                }
            }
            migration_touched.push(drain.from);
            migration_touched.extend(final_targets.iter().copied());
            actions.push(Action::Migrate {
                request: drain.request,
                targets: final_targets,
            });
        }

        // Step 3: batching.
        let admitted_pairs: Vec<(RequestId, u64)> = admitted_info
            .iter()
            .map(|&(id, len, _)| (id, len))
            .collect();
        let batches = batching::batch_requests(view, &admitted_pairs, &allocation.instances);

        // Step 4a: proactive scale-down plans for each prefill batch.
        for batch in &batches {
            let tokens: u64 = batch
                .requests
                .iter()
                .filter_map(|&id| {
                    admitted_pairs
                        .iter()
                        .find(|(r, _)| *r == id)
                        .map(|&(_, l)| l)
                })
                .sum();
            let expected_output: u64 = batch
                .requests
                .iter()
                .filter_map(|&id| {
                    admitted_info
                        .iter()
                        .find(|(r, _, _)| *r == id)
                        .map(|&(_, _, m)| m)
                })
                .sum();
            let retain_on =
                scaling::plan_scale_down(view, &batch.instances, tokens, expected_output);
            if retain_on.len() < batch.instances.len() {
                self.events.push(ScalingEvent {
                    at: view.now,
                    kind: ScalingEventKind::ProactiveScaleDown,
                    delta_instances: retain_on.len() as i64 - batch.instances.len() as i64,
                });
            }
            prefill_claimed.extend(batch.instances.iter().copied());
            actions.push(Action::Prefill {
                instances: batch.instances.clone(),
                requests: batch.requests.clone(),
                retain_on,
            });
        }

        // Step 4b: decode group formation on whatever is left.
        let available: Vec<InstanceId> = view
            .idle_instances
            .iter()
            .copied()
            .filter(|i| !prefill_claimed.contains(i) && !migration_touched.contains(i))
            .collect();
        let (decode_plans, _blocked) =
            scaling::plan_decode_groups(view, &available, self.config.enable_scale_up);
        for plan in decode_plans {
            if plan.scaled_up_by > 0 {
                self.events.push(ScalingEvent {
                    at: view.now,
                    kind: ScalingEventKind::ScaleUp,
                    delta_instances: plan.scaled_up_by as i64,
                });
            }
            actions.push(Action::Decode {
                instances: plan.instances,
                masters: plan.masters,
                requests: plan.requests,
            });
        }

        actions
    }

    fn scaling_events(&self) -> &[ScalingEvent] {
        &self.events
    }
}

/// Predicted prefill iteration time of a batch with input lengths `lens` on
/// the first `instances` instances (at least one): the SIB's fitted
/// analytical model for that parallel configuration, falling back to the
/// roofline model when the configuration was never profiled. All three
/// planning steps price prefill through this one helper.
fn predict_prefill(view: &SchedulerView<'_>, lens: &[u64], instances: usize) -> f64 {
    let n = instances.max(1);
    let parallel = ParallelConfig::new(view.registry.tp(), n);
    let ids: Vec<InstanceId> = view.registry.all_ids().into_iter().take(n).collect();
    let link = view.registry.link_between(&ids);
    view.sib.predict_prefill(lens, parallel, || {
        view.cost_model.prefill_cost(lens, parallel, link).total()
    })
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

    fn fixture() -> Fixture {
        let registry = InstanceRegistry::build(&ClusterSpec::single_node_a800(8), 2);
        let idle = registry.all_ids();
        Fixture {
            registry,
            cost_model: CostModel::new(ModelConfig::lwm_1m_text()),
            sib: ScalingInfoBase::new(),
            pool: UnifiedKvPool::new(4, 500_000),
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
            busy_instances: &[],
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
            arrival: SimTime::ZERO,
            input_len: len,
            prefilled_len: 0,
            max_output_len: 256,
        }
    }

    #[test]
    fn long_prefill_uses_many_instances_and_scales_down() {
        let mut f = fixture();
        f.pending = vec![pending(0, 300_000)];
        let mut sched = LoongServeScheduler::new();
        let actions = sched.schedule(&view(&f));
        let prefill = actions
            .iter()
            .find_map(|a| match a {
                Action::Prefill {
                    instances,
                    requests,
                    retain_on,
                } => Some((instances, requests, retain_on)),
                _ => None,
            })
            .expect("a prefill action");
        assert_eq!(prefill.1, &vec![RequestId(0)]);
        assert!(
            prefill.0.len() >= 2,
            "long prefill should use several instances"
        );
        assert!(
            prefill.2.len() < prefill.0.len(),
            "should proactively scale down"
        );
        assert!(sched
            .scaling_events()
            .iter()
            .any(|e| e.kind == ScalingEventKind::ProactiveScaleDown));
    }

    #[test]
    fn decode_batches_formed_for_ready_requests() {
        let mut f = fixture();
        for i in 0..4u64 {
            f.pool
                .append(RequestId(i), InstanceId(i % 2), 1_000)
                .expect("room");
            f.decoding.push(DecodingRequest {
                id: RequestId(i),
                context_len: 1_000,
                generated: 1,
                decode_time_s: 0.0,
                kv_instances: vec![InstanceId(i % 2)],
            });
        }
        let mut sched = LoongServeScheduler::new();
        let actions = sched.schedule(&view(&f));
        let decode_requests: Vec<RequestId> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Decode { requests, .. } => Some(requests.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(decode_requests.len(), 4, "all ready decodes scheduled");
    }

    #[test]
    fn prefill_and_decode_do_not_share_instances() {
        let mut f = fixture();
        f.pending = vec![pending(10, 150_000)];
        for i in 0..2u64 {
            f.pool
                .append(RequestId(i), InstanceId(i), 2_000)
                .expect("room");
            f.decoding.push(DecodingRequest {
                id: RequestId(i),
                context_len: 2_000,
                generated: 4,
                decode_time_s: 0.1,
                kv_instances: vec![InstanceId(i)],
            });
        }
        let mut sched = LoongServeScheduler::new();
        let actions = sched.schedule(&view(&f));
        let mut prefill_instances: Vec<InstanceId> = Vec::new();
        let mut decode_instances: Vec<InstanceId> = Vec::new();
        for a in &actions {
            match a {
                Action::Prefill { instances, .. } => {
                    prefill_instances.extend(instances.iter().copied())
                }
                Action::Decode { instances, .. } => {
                    decode_instances.extend(instances.iter().copied())
                }
                _ => {}
            }
        }
        for i in &prefill_instances {
            assert!(!decode_instances.contains(i), "instance {i} double-booked");
        }
    }

    #[test]
    fn oversized_request_is_rejected() {
        let mut f = fixture();
        f.pending = vec![pending(0, 3_000_000)];
        let mut sched = LoongServeScheduler::new();
        let actions = sched.schedule(&view(&f));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Reject { request, .. } if *request == RequestId(0))));
    }

    #[test]
    fn disabled_scale_up_never_records_scale_up_events() {
        let mut f = fixture();
        // Nearly full instance hosting a decode request would normally
        // trigger a scale-up.
        f.pool = UnifiedKvPool::with_capacities(&[1_010, 500_000, 500_000, 500_000]);
        f.pool
            .append(RequestId(0), InstanceId(0), 1_000)
            .expect("room");
        f.decoding = vec![DecodingRequest {
            id: RequestId(0),
            context_len: 1_000,
            generated: 1,
            decode_time_s: 0.0,
            kv_instances: vec![InstanceId(0)],
        }];
        let mut without = LoongServeScheduler::with_config(LoongServeConfig {
            enable_scale_up: false,
        });
        let _ = without.schedule(&view(&f));
        assert!(without
            .scaling_events()
            .iter()
            .all(|e| e.kind != ScalingEventKind::ScaleUp));

        let mut with = LoongServeScheduler::new();
        let _ = with.schedule(&view(&f));
        assert!(with
            .scaling_events()
            .iter()
            .any(|e| e.kind == ScalingEventKind::ScaleUp));
    }

    #[test]
    fn idle_system_produces_no_actions() {
        let f = fixture();
        let mut sched = LoongServeScheduler::new();
        assert!(sched.schedule(&view(&f)).is_empty());
        assert_eq!(sched.name(), "LoongServe");
    }
}
