//! Prefill–decode disaggregation baseline (DistServe-style).
//!
//! DistServe dedicates one group of GPUs to the prefill phase and another to
//! the decode phase, migrating each request's KV cache between them at the
//! phase boundary. This removes prefill/decode interference but, as the
//! paper's evaluation shows (§7.2), each phase can only use half the GPUs,
//! every request pays a KV migration, and the longest admissible request is
//! bounded by the memory of a single half — which is why DistServe runs out
//! of memory on LV-Eval and Mixed.

use crate::types::{Action, Scheduler, SchedulerView};
use loong_model::roofline::ParallelConfig;
use loong_simcore::ids::{InstanceId, RequestId};

/// The disaggregated scheduler. With the paper's configuration (TP=4 per
/// instance on an 8-GPU node) there is exactly one prefill instance and one
/// decode instance per node.
#[derive(Debug, Clone)]
pub struct DistServeScheduler {
    prefill_instances: Vec<InstanceId>,
    decode_instances: Vec<InstanceId>,
}

impl DistServeScheduler {
    /// Splits the registry's instances evenly: the first half serves
    /// prefills, the second half serves decodes.
    ///
    /// # Panics
    ///
    /// Panics if there are fewer than two instances.
    pub fn from_instances(all: &[InstanceId]) -> Self {
        assert!(
            all.len() >= 2,
            "disaggregation needs at least two instances"
        );
        let mid = all.len() / 2;
        DistServeScheduler {
            prefill_instances: all[..mid].to_vec(),
            decode_instances: all[mid..].to_vec(),
        }
    }

    /// The instances dedicated to the prefill phase.
    pub fn prefill_instances(&self) -> &[InstanceId] {
        &self.prefill_instances
    }

    /// The instances dedicated to the decode phase.
    pub fn decode_instances(&self) -> &[InstanceId] {
        &self.decode_instances
    }
}

impl Scheduler for DistServeScheduler {
    fn name(&self) -> String {
        "DistServe (Prefill-Decoding Disaggregation)".to_string()
    }

    fn schedule(&mut self, view: &SchedulerView<'_>) -> Vec<Action> {
        let mut actions = Vec::new();
        let tp = view.registry.tp();
        let saturation = view
            .cost_model
            .prefill_saturation_tokens(ParallelConfig::new(tp, 1));

        // A request must fit in one prefill instance *and* one decode
        // instance; otherwise it can never be served (the OOM the paper
        // reports on LV-Eval/Mixed).
        let prefill_cap = self
            .prefill_instances
            .iter()
            .map(|&i| view.pool.instance(i).capacity())
            .max()
            .unwrap_or(0);
        let decode_cap = self
            .decode_instances
            .iter()
            .map(|&i| view.pool.instance(i).capacity())
            .max()
            .unwrap_or(0);
        let admissible_cap = prefill_cap.min(decode_cap);
        for p in view.pending {
            if p.input_len + p.max_output_len > admissible_cap {
                actions.push(Action::Reject {
                    request: p.id,
                    reason: format!(
                        "request needs {} KV slots but each disaggregated half only has {admissible_cap}",
                        p.input_len + p.max_output_len
                    ),
                });
            }
        }

        // Prefill side: each idle prefill instance takes the oldest pending
        // requests that fit.
        for &inst in &self.prefill_instances {
            if !view.idle_instances.contains(&inst) {
                continue;
            }
            let mut free = view.pool.instance(inst).free();
            let mut tokens = 0u64;
            let mut batch: Vec<RequestId> = Vec::new();
            for p in view.pending {
                let needed = p.input_len + p.max_output_len;
                if needed > admissible_cap {
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
                    instances: vec![inst],
                    requests: batch,
                    retain_on: vec![inst],
                });
            }
        }

        // Phase transition: any decode-phase request whose KV still sits on
        // a prefill instance must be migrated to the decode side before it
        // can continue (reactive migration, charged on the interconnect).
        let mut migrating: Vec<RequestId> = Vec::new();
        for d in view.decoding {
            let on_prefill_side = view
                .pool
                .locations_ref(d.id)
                .iter()
                .any(|(i, _)| self.prefill_instances.contains(i));
            if !on_prefill_side {
                continue;
            }
            // Pick the decode instance with the most free slots that can hold
            // the whole request (locality constraint within the decode side).
            let target = self
                .decode_instances
                .iter()
                .copied()
                .filter(|&i| view.pool.instance(i).free() >= d.context_len)
                .max_by_key(|&i| view.pool.instance(i).free());
            if let Some(target) = target {
                migrating.push(d.id);
                actions.push(Action::Migrate {
                    request: d.id,
                    targets: vec![target],
                });
            }
            // If no decode instance currently has room the request simply
            // waits on the prefill side, occupying its memory — the
            // head-of-line blocking disaggregation suffers under load.
        }

        // Decode side: run every ready decode whose KV is fully on an idle
        // decode instance.
        for &inst in &self.decode_instances {
            if !view.idle_instances.contains(&inst) {
                continue;
            }
            let requests: Vec<RequestId> = view
                .decoding
                .iter()
                .filter(|d| !migrating.contains(&d.id))
                .filter(|d| matches!(view.pool.locations_ref(d.id), [(i, _)] if *i == inst))
                .map(|d| d.id)
                .collect();
            if !requests.is_empty() {
                actions.push(Action::Decode {
                    instances: vec![inst],
                    masters: vec![inst],
                    requests,
                });
            }
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
        // TP=4 on an 8-GPU node: instance 0 = prefill, instance 1 = decode.
        let registry = InstanceRegistry::build(&ClusterSpec::single_node_a800(8), 4);
        let idle = registry.all_ids();
        Fixture {
            registry,
            cost_model: CostModel::new(ModelConfig::lwm_1m_text()),
            sib: ScalingInfoBase::new(),
            pool: UnifiedKvPool::new(2, 500_000),
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

    fn scheduler(f: &Fixture) -> DistServeScheduler {
        DistServeScheduler::from_instances(&f.registry.all_ids())
    }

    #[test]
    fn prefill_lands_on_prefill_side_only() {
        let mut f = fixture();
        f.pending = vec![PendingRequest {
            id: RequestId(0),
            input_len: 50_000,
            prefilled_len: 0,
            max_output_len: 128,
        }];
        let mut s = scheduler(&f);
        let actions = s.schedule(&view(&f));
        let prefill_inst = actions
            .iter()
            .find_map(|a| match a {
                Action::Prefill { instances, .. } => Some(instances[0]),
                _ => None,
            })
            .expect("prefill scheduled");
        assert!(s.prefill_instances().contains(&prefill_inst));
    }

    #[test]
    fn phase_transition_triggers_migration() {
        let mut f = fixture();
        // Request 0 finished its prefill on the prefill instance.
        f.pool
            .append(RequestId(0), InstanceId(0), 40_000)
            .expect("room");
        f.decoding = vec![DecodingRequest {
            id: RequestId(0),
            context_len: 40_000,
            generated: 1,
            decode_time_s: 0.0,
        }];
        let mut s = scheduler(&f);
        let actions = s.schedule(&view(&f));
        let migrate = actions
            .iter()
            .find(|a| matches!(a, Action::Migrate { .. }))
            .expect("migration");
        if let Action::Migrate { request, targets } = migrate {
            assert_eq!(*request, RequestId(0));
            assert_eq!(targets, &vec![InstanceId(1)]);
        }
        // The request is not decoded in the same round it migrates.
        assert!(!actions.iter().any(|a| matches!(a, Action::Decode { .. })));
    }

    #[test]
    fn decode_runs_on_decode_side_after_migration() {
        let mut f = fixture();
        f.pool
            .append(RequestId(0), InstanceId(1), 40_000)
            .expect("room");
        f.decoding = vec![DecodingRequest {
            id: RequestId(0),
            context_len: 40_000,
            generated: 2,
            decode_time_s: 0.1,
        }];
        let mut s = scheduler(&f);
        let actions = s.schedule(&view(&f));
        let decode = actions
            .iter()
            .find(|a| matches!(a, Action::Decode { .. }))
            .expect("decode");
        if let Action::Decode { instances, .. } = decode {
            assert_eq!(instances, &vec![InstanceId(1)]);
        }
    }

    #[test]
    fn request_larger_than_half_is_rejected() {
        let mut f = fixture();
        f.pending = vec![PendingRequest {
            id: RequestId(0),
            input_len: 600_000,
            prefilled_len: 0,
            max_output_len: 128,
        }];
        let mut s = scheduler(&f);
        let actions = s.schedule(&view(&f));
        assert!(actions.iter().any(|a| matches!(a, Action::Reject { .. })));
    }

    #[test]
    fn split_assigns_both_sides() {
        let f = fixture();
        let s = scheduler(&f);
        assert_eq!(s.prefill_instances(), &[InstanceId(0)]);
        assert_eq!(s.decode_instances(), &[InstanceId(1)]);
    }
}
