//! Static hybrid parallelism baseline (TP×SP fixed, no elasticity).
//!
//! The "LoongServe w/o ESP (TP=2, SP=4)" ablation of Figure 12: sequence
//! parallelism is available, but the degree of parallelism is fixed at
//! launch — every batch, prefill or decode, runs on *all* instances as one
//! parallel group. This isolates the contribution of elasticity from the
//! contribution of sequence parallelism itself.

use crate::types::{Action, Scheduler, SchedulerView};
use loong_model::roofline::ParallelConfig;
use loong_simcore::ids::RequestId;

/// Scheduler that always uses the full instance set as a single static
/// sequence-parallel group.
#[derive(Debug, Clone, Default)]
pub struct StaticHybridScheduler;

impl StaticHybridScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        StaticHybridScheduler
    }
}

impl Scheduler for StaticHybridScheduler {
    fn name(&self) -> String {
        "LoongServe w/o ESP (static TP x SP)".to_string()
    }

    fn schedule(&mut self, view: &SchedulerView<'_>) -> Vec<Action> {
        let mut actions = Vec::new();
        let all = view.registry.all_ids();

        // The whole cluster is one group, so nothing can be scheduled unless
        // every instance is idle.
        if view.idle_instances.len() != all.len() {
            return actions;
        }

        // Rejection only when even the unified pool cannot hold the request.
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

        let saturation = view
            .cost_model
            .prefill_saturation_tokens(ParallelConfig::new(view.registry.tp(), all.len()));

        // Prefill takes priority; the group keeps its full DoP afterwards
        // (no proactive scale-down in this ablation).
        let mut free: u64 = view.free_slots_on(&all);
        let mut tokens = 0u64;
        let mut batch: Vec<RequestId> = Vec::new();
        for p in view.pending {
            let needed = p.input_len + p.max_output_len;
            if needed > view.pool.total_capacity() {
                continue;
            }
            if tokens >= saturation || needed > free {
                continue;
            }
            free -= needed;
            tokens += p.input_len;
            batch.push(p.id);
        }
        if !batch.is_empty() {
            actions.push(Action::Prefill {
                instances: all.clone(),
                requests: batch,
                retain_on: all,
            });
            return actions;
        }

        // Otherwise decode every ready request as one full-width group.
        let requests: Vec<RequestId> = view.decoding.iter().map(|d| d.id).collect();
        if !requests.is_empty() {
            actions.push(Action::Decode {
                instances: all.clone(),
                masters: all,
                requests,
            });
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{DecodingRequest, PendingRequest};
    use loong_cluster::topology::ClusterSpec;
    use loong_esp::instance::InstanceRegistry;
    use loong_kvcache::unified::UnifiedKvPool;
    use loong_model::config::ModelConfig;
    use loong_model::roofline::CostModel;
    use loong_model::sib::ScalingInfoBase;
    use loong_simcore::ids::InstanceId;
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
            pool: &f.pool,
            registry: &f.registry,
            cost_model: &f.cost_model,
            sib: &f.sib,
            avg_decode_latency_s: 0.0,
        }
    }

    #[test]
    fn prefill_uses_all_instances_and_keeps_them() {
        let mut f = fixture();
        f.pending = vec![PendingRequest {
            id: RequestId(0),
            input_len: 100_000,
            prefilled_len: 0,
            max_output_len: 128,
        }];
        let mut s = StaticHybridScheduler::new();
        let actions = s.schedule(&view(&f));
        match &actions[0] {
            Action::Prefill {
                instances,
                retain_on,
                ..
            } => {
                assert_eq!(instances.len(), 4);
                assert_eq!(
                    retain_on.len(),
                    4,
                    "no proactive scale-down in the static ablation"
                );
            }
            other => panic!("expected prefill, got {other:?}"),
        }
    }

    #[test]
    fn decode_uses_all_instances_when_no_prefill() {
        let mut f = fixture();
        f.pool
            .append(RequestId(1), InstanceId(0), 100)
            .expect("room");
        f.decoding = vec![DecodingRequest {
            id: RequestId(1),
            context_len: 100,
            generated: 2,
            decode_time_s: 0.0,
        }];
        let mut s = StaticHybridScheduler::new();
        let actions = s.schedule(&view(&f));
        match &actions[0] {
            Action::Decode { instances, .. } => assert_eq!(instances.len(), 4),
            other => panic!("expected decode, got {other:?}"),
        }
    }

    #[test]
    fn waits_when_any_instance_is_busy() {
        let mut f = fixture();
        f.idle = vec![InstanceId(0), InstanceId(1)];
        f.pending = vec![PendingRequest {
            id: RequestId(0),
            input_len: 1_000,
            prefilled_len: 0,
            max_output_len: 128,
        }];
        let mut s = StaticHybridScheduler::new();
        assert!(s.schedule(&view(&f)).is_empty());
    }

    #[test]
    fn interference_prefill_blocks_decode() {
        let mut f = fixture();
        f.pool
            .append(RequestId(1), InstanceId(0), 100)
            .expect("room");
        f.decoding = vec![DecodingRequest {
            id: RequestId(1),
            context_len: 100,
            generated: 2,
            decode_time_s: 0.0,
        }];
        f.pending = vec![PendingRequest {
            id: RequestId(0),
            input_len: 200_000,
            prefilled_len: 0,
            max_output_len: 128,
        }];
        let mut s = StaticHybridScheduler::new();
        let actions = s.schedule(&view(&f));
        assert_eq!(actions.len(), 1);
        assert!(matches!(actions[0], Action::Prefill { .. }));
    }
}
