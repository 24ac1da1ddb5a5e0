//! Chunked-prefill baselines (DeepSpeed-MII Dynamic SplitFuse / LightLLM
//! SplitFuse / SARATHI).
//!
//! These systems bound the interference of long prompts on decoding by
//! splitting each prompt into fixed-size chunks and fusing one chunk with the
//! decode tokens of the running requests in every iteration. The chunk size
//! is chosen from the workload's prefill-to-decode ("P:D") token ratio, as
//! SARATHI prescribes and as the paper does for its LightLLM baseline
//! (§7.1). The weakness the paper measures: chunking makes the prefill phase
//! itself much less efficient for very long prompts, and interference
//! remains when the P:D ratio is high.

use crate::types::{Action, Scheduler, SchedulerView};
use loong_simcore::ids::{InstanceId, RequestId};
use std::collections::HashMap;

/// Chunked-prefill scheduler over a single static tensor-parallel engine per
/// instance.
#[derive(Debug, Clone)]
pub struct SplitFuseScheduler {
    name: String,
    /// Number of prompt tokens fused into each iteration.
    chunk_tokens: u64,
    /// Sticky routing of requests to instances.
    routing: HashMap<RequestId, InstanceId>,
}

impl SplitFuseScheduler {
    /// Default chunk size used when no workload-specific tuning is supplied
    /// (DeepSpeed-MII's default is 2 Ki tokens).
    pub const DEFAULT_CHUNK_TOKENS: u64 = 2048;

    /// Creates the scheduler with an explicit chunk size.
    pub fn new(name: impl Into<String>, chunk_tokens: u64) -> Self {
        assert!(chunk_tokens > 0, "chunk size must be positive");
        SplitFuseScheduler {
            name: name.into(),
            chunk_tokens,
            routing: HashMap::new(),
        }
    }

    /// The DeepSpeed-MII (Dynamic SplitFuse) label with the default chunk.
    pub fn deepspeed_mii() -> Self {
        Self::new(
            "DeepSpeed-MII (Dynamic SplitFuse)",
            Self::DEFAULT_CHUNK_TOKENS,
        )
    }

    /// The LightLLM w/ SplitFuse label with a chunk size derived from the
    /// workload's ideal P:D ratio.
    pub fn lightllm_for_workload(mean_input_len: f64, mean_output_len: f64) -> Self {
        Self::new(
            "LightLLM w/ SplitFuse",
            Self::ideal_chunk_tokens(mean_input_len, mean_output_len),
        )
    }

    /// SARATHI's ideal chunk size for a workload: the chunk that spreads a
    /// mean-length prompt over the mean number of decode iterations, i.e.
    /// `mean_input / mean_output`, clamped to a practical range.
    pub fn ideal_chunk_tokens(mean_input_len: f64, mean_output_len: f64) -> u64 {
        assert!(
            mean_input_len > 0.0 && mean_output_len > 0.0,
            "means must be positive"
        );
        let ratio = mean_input_len / mean_output_len;
        (ratio.round() as u64).clamp(256, 65_536)
    }

    /// The configured chunk size in tokens.
    pub fn chunk_tokens(&self) -> u64 {
        self.chunk_tokens
    }
}

impl Scheduler for SplitFuseScheduler {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn schedule(&mut self, view: &SchedulerView<'_>) -> Vec<Action> {
        let mut actions = Vec::new();

        // Locality constraint identical to the other single-engine systems.
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
                        "request needs {} KV slots but a single instance only has {max_single}",
                        p.input_len + p.max_output_len
                    ),
                });
            }
        }

        let mut used: Vec<InstanceId> = Vec::new();

        // One fused iteration per idle instance: the oldest pending request's
        // next chunk plus every ready decode resident there.
        for &inst in view.idle_instances {
            let free = view.pool.instance(inst).free();
            let decode_here: Vec<RequestId> = view
                .decoding
                .iter()
                .filter(|d| {
                    view.pool
                        .locations_ref(d.id)
                        .first()
                        .is_some_and(|&(i, _)| i == inst)
                })
                .map(|d| d.id)
                .collect();

            // Pick the oldest pending request routed (or routable) to this
            // instance. Partially prefilled requests stay on their instance.
            let candidate = view.pending.iter().find(|p| {
                if p.input_len + p.max_output_len > max_single {
                    return false;
                }
                match self.routing.get(&p.id) {
                    Some(&routed) => routed == inst,
                    None => free >= p.input_len + p.max_output_len,
                }
            });

            match candidate {
                Some(p) if free >= p.remaining_prefill().min(self.chunk_tokens) => {
                    self.routing.insert(p.id, inst);
                    let chunk = p.remaining_prefill().min(self.chunk_tokens);
                    used.push(inst);
                    actions.push(Action::ChunkedPrefill {
                        instances: vec![inst],
                        prefill_request: p.id,
                        chunk_tokens: chunk,
                        decode_requests: decode_here,
                    });
                }
                _ => {
                    if !decode_here.is_empty() {
                        used.push(inst);
                        actions.push(Action::Decode {
                            instances: vec![inst],
                            masters: vec![inst],
                            requests: decode_here,
                        });
                    }
                }
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
        let registry = InstanceRegistry::build(&ClusterSpec::single_node_a800(8), 8);
        let idle = registry.all_ids();
        Fixture {
            registry,
            cost_model: CostModel::new(ModelConfig::lwm_1m_text()),
            sib: ScalingInfoBase::new(),
            pool: UnifiedKvPool::new(1, 1_000_000),
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
    fn fuses_chunk_with_resident_decodes() {
        let mut f = fixture();
        f.pool
            .append(RequestId(5), InstanceId(0), 400)
            .expect("room");
        f.decoding = vec![DecodingRequest {
            id: RequestId(5),
            context_len: 400,
            generated: 2,
            decode_time_s: 0.0,
        }];
        f.pending = vec![PendingRequest {
            id: RequestId(0),
            input_len: 10_000,
            prefilled_len: 3_000,
            max_output_len: 128,
        }];
        let mut s = SplitFuseScheduler::deepspeed_mii();
        let actions = s.schedule(&view(&f));
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            Action::ChunkedPrefill {
                prefill_request,
                chunk_tokens,
                decode_requests,
                ..
            } => {
                assert_eq!(*prefill_request, RequestId(0));
                assert_eq!(*chunk_tokens, SplitFuseScheduler::DEFAULT_CHUNK_TOKENS);
                assert_eq!(decode_requests, &vec![RequestId(5)]);
            }
            other => panic!("expected a chunked prefill, got {other:?}"),
        }
    }

    #[test]
    fn final_chunk_is_truncated() {
        let mut f = fixture();
        f.pending = vec![PendingRequest {
            id: RequestId(0),
            input_len: 10_000,
            prefilled_len: 9_500,
            max_output_len: 128,
        }];
        let mut s = SplitFuseScheduler::deepspeed_mii();
        let actions = s.schedule(&view(&f));
        match &actions[0] {
            Action::ChunkedPrefill { chunk_tokens, .. } => assert_eq!(*chunk_tokens, 500),
            other => panic!("expected a chunked prefill, got {other:?}"),
        }
    }

    #[test]
    fn pure_decode_when_no_pending() {
        let mut f = fixture();
        f.pool
            .append(RequestId(5), InstanceId(0), 400)
            .expect("room");
        f.decoding = vec![DecodingRequest {
            id: RequestId(5),
            context_len: 400,
            generated: 2,
            decode_time_s: 0.0,
        }];
        let mut s = SplitFuseScheduler::lightllm_for_workload(8_000.0, 200.0);
        let actions = s.schedule(&view(&f));
        assert!(matches!(actions[0], Action::Decode { .. }));
    }

    #[test]
    fn ideal_chunk_follows_pd_ratio() {
        assert_eq!(SplitFuseScheduler::ideal_chunk_tokens(8_000.0, 200.0), 256);
        assert_eq!(
            SplitFuseScheduler::ideal_chunk_tokens(100_000.0, 100.0),
            1000
        );
        // Clamped at both ends.
        assert_eq!(SplitFuseScheduler::ideal_chunk_tokens(100.0, 1_000.0), 256);
        assert_eq!(SplitFuseScheduler::ideal_chunk_tokens(1e9, 1.0), 65_536);
    }

    #[test]
    fn oversized_requests_rejected() {
        let mut f = fixture();
        f.pending = vec![PendingRequest {
            id: RequestId(0),
            input_len: 2_000_000,
            prefilled_len: 0,
            max_output_len: 128,
        }];
        let mut s = SplitFuseScheduler::deepspeed_mii();
        let actions = s.schedule(&view(&f));
        assert!(actions.iter().any(|a| matches!(a, Action::Reject { .. })));
        assert!(!actions
            .iter()
            .any(|a| matches!(a, Action::ChunkedPrefill { .. })));
    }
}
