//! Roofline iteration-time model.
//!
//! This module is the simulated substitute for running real CUDA kernels: it
//! predicts how long one serving iteration takes for a given batch, model,
//! GPU and parallelism configuration. The prediction combines
//!
//! * a **compute roofline** — FLOPs divided by sustained FLOP/s, floored by
//!   the time needed to stream weights and KV cache from HBM,
//! * **tensor-parallel communication** — two ring all-reduces of the layer
//!   activations per transformer layer,
//! * **sequence-parallel communication** — the StripedAttention KV ring
//!   during prefill and the query/partial-output exchange during
//!   distributed decoding, both partially overlapped with attention
//!   computation, and
//! * a constant **per-layer launch overhead**.
//!
//! The shapes this produces — prefill scaling nearly linearly with more
//! GPUs while decode barely improves (Figure 2), sequence parallelism
//! matching or beating tensor parallelism for long sequences (Figure 3),
//! and multi-master decode winning only at large batch sizes (Figure 14b) —
//! are the inputs every scheduling policy in the workspace reasons about.

use crate::attention::AttentionCostPolicy;
use crate::builder::CostModelBuilder;
use crate::config::ModelConfig;
use loong_cluster::comm::CommModel;
use loong_cluster::gpu::{GpuSpec, LinkSpec};

/// Degree-of-parallelism configuration of one ESP parallel group.
///
/// `tp` GPUs form one elastic instance (tensor parallelism); `sp` elastic
/// instances form the group (sequence parallelism). The paper's single-node
/// LoongServe configuration is `tp = 2, sp <= 4`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParallelConfig {
    /// Tensor-parallel degree inside each elastic instance.
    pub tp: usize,
    /// Number of elastic instances cooperating on the batch (the DoP).
    pub sp: usize,
}

impl ParallelConfig {
    /// Creates a configuration with `tp`-way tensor and `sp`-way sequence
    /// parallelism.
    ///
    /// # Panics
    ///
    /// Panics if either degree is zero.
    pub fn new(tp: usize, sp: usize) -> Self {
        assert!(
            tp >= 1 && sp >= 1,
            "parallel degrees must be >= 1 (tp={tp}, sp={sp})"
        );
        ParallelConfig { tp, sp }
    }

    /// Total number of GPUs used by the group.
    pub fn total_gpus(&self) -> usize {
        self.tp * self.sp
    }

    /// A short label such as `SP4TP2`, matching the paper's figure legends.
    pub fn label(&self) -> String {
        format!("SP{}TP{}", self.sp, self.tp)
    }
}

/// Breakdown of one iteration's predicted latency, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IterationCost {
    /// Compute time (GEMMs + attention), already floored by HBM streaming.
    pub compute_s: f64,
    /// Tensor-parallel all-reduce time.
    pub tp_comm_s: f64,
    /// Sequence-parallel communication time remaining after overlap with
    /// attention computation.
    pub sp_comm_s: f64,
    /// Kernel-launch and synchronisation overhead.
    pub overhead_s: f64,
    /// Extra time spent on elastic-scaling actions folded into this
    /// iteration (e.g. proactive KV retention writes); zero for plain
    /// iterations.
    pub scaling_s: f64,
}

impl IterationCost {
    /// Total predicted iteration latency.
    pub fn total(&self) -> f64 {
        self.compute_s + self.tp_comm_s + self.sp_comm_s + self.overhead_s + self.scaling_s
    }
}

/// Fraction of sequence-parallel communication that overlaps with attention
/// computation (StripedAttention / multi-master decode overlap); 1.0 would
/// be perfect overlap.
const SP_OVERLAP_FRACTION: f64 = 0.90;

/// Constant per-iteration scheduling overhead in seconds (Python/Ray RPC
/// and batching overhead in the real system).
const PER_ITERATION_OVERHEAD_S: f64 = 2e-3;

/// The roofline cost model: model architecture + GPU + intra-instance link
/// + attention-cost policy.
///
/// The model and GPU terms every pricing call reads (weight bytes, linear
/// FLOPs and KV bytes per token, effective FLOP/s and bandwidth) are
/// derived once, when the model is built. The parts they derive from are
/// read-only, so nothing can make them stale.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    model: ModelConfig,
    gpu: GpuSpec,
    intra_instance_link: LinkSpec,
    attention: AttentionCostPolicy,
    /// `model.weight_bytes()`, unsharded.
    weight_bytes: f64,
    /// `model.linear_flops_per_token()`.
    linear_flops_per_token: f64,
    /// `model.kv_bytes_per_token()`.
    kv_bytes_per_token: f64,
    /// `gpu.effective_flops()`.
    effective_flops: f64,
    /// `gpu.effective_bandwidth()`.
    effective_bandwidth: f64,
}

impl CostModel {
    /// Creates a cost model with the paper's testbed defaults (A800 GPUs,
    /// NVLink within instances, dense attention).
    pub fn new(model: ModelConfig) -> Self {
        CostModelBuilder::new(model).build()
    }

    /// Starts a [`CostModelBuilder`] for the given model — the way to
    /// assemble a cost model with a non-default GPU or attention policy.
    pub fn builder(model: ModelConfig) -> CostModelBuilder {
        CostModelBuilder::new(model)
    }

    /// Assembles the model from its parts and derives the terms every
    /// pricing call reads.
    pub(crate) fn from_parts(
        model: ModelConfig,
        gpu: GpuSpec,
        intra_instance_link: LinkSpec,
        attention: AttentionCostPolicy,
    ) -> Self {
        CostModel {
            weight_bytes: model.weight_bytes(),
            linear_flops_per_token: model.linear_flops_per_token(),
            kv_bytes_per_token: model.kv_bytes_per_token(),
            effective_flops: gpu.effective_flops(),
            effective_bandwidth: gpu.effective_bandwidth(),
            model,
            gpu,
            intra_instance_link,
            attention,
        }
    }

    /// Transformer architecture being served.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// GPU device model.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// Link between GPUs of the same elastic instance (always intra-node in
    /// LoongServe: instances never span nodes).
    pub fn intra_instance_link(&self) -> LinkSpec {
        self.intra_instance_link
    }

    /// Attention-cost policy pricing every attention FLOP and KV-read term
    /// (dense, page-sparse decode, or hierarchical prefill).
    pub fn attention(&self) -> AttentionCostPolicy {
        self.attention
    }

    /// Key-value cache bytes per token across the whole model:
    /// [`ModelConfig::kv_bytes_per_token`], derived once.
    pub fn kv_bytes_per_token(&self) -> f64 {
        self.kv_bytes_per_token
    }

    /// [`ModelConfig::weight_bytes_per_gpu`] over the weight bytes derived
    /// at build.
    fn weight_bytes_per_gpu(&self, tp: usize) -> f64 {
        assert!(tp >= 1, "tensor parallel degree must be >= 1");
        self.weight_bytes / tp as f64
    }

    /// Extra attention time a prefill of `suffix` tokens pays for attending
    /// over `context` previously computed (prefix-cached) tokens, beyond the
    /// suffix-only attention [`Self::prefill_cost`] already charges:
    /// `attn(suffix, context + suffix) - attn(suffix, suffix)`, on the
    /// group's GPUs. Zero when either argument is zero, so cache-off paths
    /// pay nothing. The serving engine adds this to suffix prefills after
    /// prefix adoption, mirroring how [`Self::chunked_prefill_cost`] spans
    /// the chunk's attention over the processed prefix.
    pub fn cached_context_attention_s(
        &self,
        suffix: u64,
        context: u64,
        parallel: ParallelConfig,
    ) -> f64 {
        if suffix == 0 || context == 0 {
            return 0.0;
        }
        let m = &self.model;
        let gpus = parallel.total_gpus() as f64;
        let suffix = suffix as f64;
        let extra = self
            .attention
            .prefill_attention_flops(m, suffix, context as f64 + suffix)
            - self.attention.prefill_attention_flops(m, suffix, suffix);
        extra.max(0.0) / gpus / self.effective_flops
    }

    /// Predicted cost of a **prefill** iteration.
    ///
    /// `input_lens` are the prompt lengths of the requests in the batch;
    /// `parallel` is the group configuration; `sp_link` is the bottleneck
    /// link between instances of the group (NVLink on one node, InfiniBand
    /// across nodes).
    pub fn prefill_cost(
        &self,
        input_lens: &[u64],
        parallel: ParallelConfig,
        sp_link: LinkSpec,
    ) -> IterationCost {
        if input_lens.is_empty() {
            return IterationCost::default();
        }
        let m = &self.model;
        let gpus = parallel.total_gpus() as f64;
        let total_tokens: f64 = input_lens.iter().map(|&l| l as f64).sum();

        // Compute: dense projections/FFN are linear in tokens; attention is
        // quadratic per request.
        let linear_flops = self.linear_flops_per_token * total_tokens;
        let attn_flops: f64 = input_lens
            .iter()
            .map(|&l| {
                self.attention
                    .prefill_attention_flops(m, l as f64, l as f64)
            })
            .sum();
        let linear_time = linear_flops / gpus / self.effective_flops;
        let attn_time = attn_flops / gpus / self.effective_flops;
        // Weights must be streamed from HBM at least once per iteration.
        let weight_stream_time = self.weight_bytes_per_gpu(parallel.tp) / self.effective_bandwidth;
        let compute_s = linear_time.max(weight_stream_time) + attn_time;

        // Tensor-parallel all-reduces: two per layer over the activations of
        // the tokens resident on one instance.
        let tokens_per_instance = total_tokens / parallel.sp as f64;
        let act_bytes = tokens_per_instance * m.hidden_size as f64 * m.dtype_bytes as f64;
        let tp_comm = CommModel::new(self.intra_instance_link);
        let tp_comm_s = m.num_layers as f64 * 2.0 * tp_comm.ring_allreduce(act_bytes, parallel.tp);

        // Sequence-parallel ring (StripedAttention): sp-1 steps per layer,
        // each moving one instance's KV shard for that layer. GPUs of the
        // same instance send their KV-head shards in parallel, so the bytes
        // per link are divided by tp.
        let sp_comm_raw = if parallel.sp > 1 {
            let kv_layer_bytes_per_instance =
                2.0 * (m.num_kv_heads * m.head_dim() * m.dtype_bytes) as f64 * tokens_per_instance
                    / parallel.tp as f64;
            let sp_comm = CommModel::new(sp_link);
            m.num_layers as f64
                * (parallel.sp - 1) as f64
                * sp_comm.ring_sendrecv_step(kv_layer_bytes_per_instance)
        } else {
            0.0
        };
        // The ring overlaps with the attention computation of the chunk that
        // is already resident.
        let sp_comm_s = (sp_comm_raw - attn_time * SP_OVERLAP_FRACTION)
            .max(sp_comm_raw * (1.0 - SP_OVERLAP_FRACTION))
            .max(0.0);

        let overhead_s =
            PER_ITERATION_OVERHEAD_S + m.num_layers as f64 * self.gpu.per_layer_overhead_s;

        IterationCost {
            compute_s,
            tp_comm_s,
            sp_comm_s,
            overhead_s,
            scaling_s: 0.0,
        }
    }

    /// Predicted extra cost of **proactive scale-down** folded into a prefill
    /// iteration: the destination instances write the retained KV tensors
    /// into their local pools as the ring passes by. The bytes were already
    /// in flight, so the only new work is the HBM write at the destination.
    pub fn proactive_scale_down_overhead(
        &self,
        retained_tokens: u64,
        parallel: ParallelConfig,
    ) -> f64 {
        let bytes = retained_tokens as f64 * self.kv_bytes_per_token / parallel.tp as f64;
        bytes / self.effective_bandwidth
    }

    /// Predicted cost of a **decode** iteration.
    ///
    /// `context_lens` are the current sequence lengths (prompt + generated)
    /// of the requests in the batch, in batch order; each request produces
    /// one new token. Any iterator of them prices the same, so a caller
    /// need not collect them. The group has `parallel.sp` instances of
    /// which `masters` drive FFN computation and store the newly generated
    /// KV (`1 <= masters <= sp`).
    pub fn decode_cost<'a>(
        &self,
        context_lens: impl IntoIterator<Item = &'a u64>,
        parallel: ParallelConfig,
        masters: usize,
        sp_link: LinkSpec,
    ) -> IterationCost {
        assert!(
            masters >= 1 && masters <= parallel.sp,
            "masters must be in 1..=sp"
        );
        let m = &self.model;
        // One pass over the batch. Per request: the tokens' worth of KV
        // cache the policy actually streams per step (dense reads the full
        // context, page-sparse decode caps each request at its token
        // budget) and the attention FLOPs over it.
        let (mut requests, mut kv_read_tokens, mut attn_flops) = (0usize, 0.0f64, 0.0f64);
        for &l in context_lens {
            requests += 1;
            kv_read_tokens += self.attention.decode_kv_read_tokens(l as f64);
            attn_flops += self.attention.decode_attention_flops(m, l as f64);
        }
        if requests == 0 {
            return IterationCost::default();
        }
        let batch = requests as f64;

        // Dense computation: each master handles batch/masters requests on
        // its tp GPUs; all masters run concurrently, so the critical path is
        // one master's share.
        let tokens_per_master = batch / masters as f64;
        let linear_flops = self.linear_flops_per_token * tokens_per_master;
        let linear_time = linear_flops / parallel.tp as f64 / self.effective_flops;
        // Decode is usually bound by streaming the weight shard from HBM.
        let weight_stream_time = self.weight_bytes_per_gpu(parallel.tp) / self.effective_bandwidth;
        let dense_time = linear_time.max(weight_stream_time);

        // Attention: every instance scans the KV cache stored locally. The
        // cache is spread over all sp instances (token-granularity pool), so
        // each instance streams roughly total/sp of it.
        let attn_flops_time =
            attn_flops / (parallel.sp * parallel.tp) as f64 / self.effective_flops;
        let kv_bytes_per_gpu =
            kv_read_tokens * self.kv_bytes_per_token / parallel.sp as f64 / parallel.tp as f64;
        let kv_stream_time = kv_bytes_per_gpu / self.effective_bandwidth;
        let attn_time = attn_flops_time.max(kv_stream_time);

        let compute_s = dense_time + attn_time;

        // Tensor-parallel all-reduces of the (tiny) decode activations.
        let act_bytes = tokens_per_master * m.hidden_size as f64 * m.dtype_bytes as f64;
        let tp_comm = CommModel::new(self.intra_instance_link);
        let tp_comm_s = m.num_layers as f64 * 2.0 * tp_comm.ring_allreduce(act_bytes, parallel.tp);

        // Sequence-parallel decode: each master broadcasts its query tensors
        // to the other instances and gathers partial attention outputs back
        // (two transfers per layer). Masters operate concurrently; the
        // per-layer critical path is one master exchanging with sp-1 peers.
        let sp_comm_raw = if parallel.sp > 1 {
            let q_bytes = tokens_per_master * m.hidden_size as f64 * m.dtype_bytes as f64;
            let sp_comm = CommModel::new(sp_link);
            m.num_layers as f64 * 2.0 * sp_comm.master_exchange(q_bytes, parallel.sp)
        } else {
            0.0
        };
        // The exchange overlaps with the local attention over mastered
        // requests, but the latency component never fully hides.
        let sp_comm_s = (sp_comm_raw - attn_time * SP_OVERLAP_FRACTION)
            .max(sp_comm_raw * (1.0 - SP_OVERLAP_FRACTION))
            .max(0.0);

        // Multi-instance decode pays an extra synchronisation per layer.
        let sync_overhead = if parallel.sp > 1 {
            m.num_layers as f64 * self.gpu.per_layer_overhead_s * 0.5
        } else {
            0.0
        };
        let overhead_s = PER_ITERATION_OVERHEAD_S
            + m.num_layers as f64 * self.gpu.per_layer_overhead_s
            + sync_overhead;

        IterationCost {
            compute_s,
            tp_comm_s,
            sp_comm_s,
            overhead_s,
            scaling_s: 0.0,
        }
    }

    /// Predicted cost of a **chunked-prefill** iteration (SARATHI /
    /// SplitFuse-style baselines): `chunk_tokens` new prompt tokens of one
    /// request (which has already processed `processed_tokens` of its
    /// prompt) are fused with one decode step for the requests in
    /// `decode_context_lens`.
    ///
    /// The chunk's attention must read the KV of everything processed so
    /// far, which is what makes chunking progressively less efficient for
    /// very long prompts — the effect the paper measures against SplitFuse.
    pub fn chunked_prefill_cost(
        &self,
        chunk_tokens: u64,
        processed_tokens: u64,
        decode_context_lens: &[u64],
        parallel: ParallelConfig,
        sp_link: LinkSpec,
    ) -> IterationCost {
        if chunk_tokens == 0 {
            return self.decode_cost(decode_context_lens, parallel, parallel.sp, sp_link);
        }
        let m = &self.model;
        let gpus = parallel.total_gpus() as f64;
        let chunk = chunk_tokens as f64;
        let context = (processed_tokens + chunk_tokens) as f64;
        let decode_batch = decode_context_lens.len() as f64;

        // Dense work: the chunk plus one token per fused decode request.
        let linear_flops = self.linear_flops_per_token * (chunk + decode_batch);
        let linear_time = linear_flops / gpus / self.effective_flops;
        let weight_stream_time = self.weight_bytes_per_gpu(parallel.tp) / self.effective_bandwidth;

        // Attention: the chunk attends to the whole processed prefix; fused
        // decode requests each attend to their full context.
        let chunk_attn = self.attention.prefill_attention_flops(m, chunk, context);
        let decode_attn: f64 = decode_context_lens
            .iter()
            .map(|&l| self.attention.decode_attention_flops(m, l as f64))
            .sum();
        let attn_flops_time = (chunk_attn + decode_attn) / gpus / self.effective_flops;
        // The prefix KV and the decode KV must be streamed from HBM — both
        // read sets capped by the policy.
        let kv_bytes_per_gpu = (self.attention.chunk_kv_read_tokens(chunk, context)
            + decode_context_lens
                .iter()
                .map(|&l| self.attention.decode_kv_read_tokens(l as f64))
                .sum::<f64>())
            * self.kv_bytes_per_token
            / gpus;
        let kv_stream_time = kv_bytes_per_gpu / self.effective_bandwidth;
        let attn_time = attn_flops_time.max(kv_stream_time);

        let compute_s = linear_time.max(weight_stream_time) + attn_time;

        // Tensor-parallel all-reduces over the fused batch activations.
        let act_bytes = (chunk + decode_batch) / parallel.sp as f64
            * m.hidden_size as f64
            * m.dtype_bytes as f64;
        let tp_comm = CommModel::new(self.intra_instance_link);
        let tp_comm_s = m.num_layers as f64 * 2.0 * tp_comm.ring_allreduce(act_bytes, parallel.tp);

        // Sequence-parallel ring for the chunk (only when sp > 1).
        let sp_comm_s = if parallel.sp > 1 {
            let kv_layer_bytes = 2.0
                * (m.num_kv_heads * m.head_dim() * m.dtype_bytes) as f64
                * (chunk / parallel.sp as f64)
                / parallel.tp as f64;
            let sp_comm = CommModel::new(sp_link);
            let raw = m.num_layers as f64
                * (parallel.sp - 1) as f64
                * sp_comm.ring_sendrecv_step(kv_layer_bytes);
            (raw - attn_time * SP_OVERLAP_FRACTION)
                .max(raw * (1.0 - SP_OVERLAP_FRACTION))
                .max(0.0)
        } else {
            0.0
        };

        let overhead_s =
            PER_ITERATION_OVERHEAD_S + m.num_layers as f64 * self.gpu.per_layer_overhead_s;

        IterationCost {
            compute_s,
            tp_comm_s,
            sp_comm_s,
            overhead_s,
            scaling_s: 0.0,
        }
    }

    /// The batch size at which the decode phase transitions from
    /// memory-bound (weight streaming) to compute-bound (FFN GEMMs) on a
    /// `tp`-GPU instance. The global manager uses this threshold to decide
    /// when scaling up the decode group pays off (paper §5.4).
    ///
    /// Context-free form: each request's marginal cost is its FFN GEMM work
    /// alone. Equivalent to
    /// [`Self::decode_compute_bound_batch_size_at_context`] at context 0.
    pub fn decode_compute_bound_batch_size(&self, tp: usize) -> usize {
        self.decode_compute_bound_batch_size_at_context(tp, 0)
            .expect("zero-context decode is always compute-bound eventually")
    }

    /// Policy-aware form of [`Self::decode_compute_bound_batch_size`]: the
    /// batch size at which decode turns compute-bound when every request
    /// carries `context_len` cached tokens. Each added request then also
    /// streams its policy-capped KV read set, so long contexts raise the
    /// threshold — and under dense attention a large enough context makes
    /// decode *never* compute-bound (`None`), while page-sparse decode caps
    /// the KV term at the token budget and keeps the threshold finite.
    pub fn decode_compute_bound_batch_size_at_context(
        &self,
        tp: usize,
        context_len: u64,
    ) -> Option<usize> {
        let weight_time = self.weight_bytes_per_gpu(tp) / self.effective_bandwidth;
        let flops_per_token_per_gpu = self.linear_flops_per_token / tp as f64;
        let time_per_token = flops_per_token_per_gpu / self.effective_flops;
        let kv_time_per_request = self.attention.decode_kv_read_tokens(context_len as f64)
            * self.kv_bytes_per_token
            / tp as f64
            / self.effective_bandwidth;
        if time_per_token <= kv_time_per_request {
            return None;
        }
        Some(
            (weight_time / (time_per_token - kv_time_per_request))
                .ceil()
                .max(1.0) as usize,
        )
    }

    /// The number of prefill tokens per iteration beyond which a group of
    /// the given configuration is compute-bound: adding more requests only
    /// lengthens the iteration without improving GPU efficiency. The
    /// dispatching step stops admitting prefill work at this point
    /// (paper §5.1).
    ///
    /// Two effects set the point: the GEMM roofline (weights must be
    /// streamed once regardless of batch size) and the fixed per-iteration
    /// overhead, which must be amortised over enough compute to stay
    /// negligible.
    ///
    /// Context-free form: equivalent to
    /// [`Self::prefill_saturation_tokens_at_context`] at context 0.
    pub fn prefill_saturation_tokens(&self, parallel: ParallelConfig) -> u64 {
        self.prefill_saturation_tokens_at_context(parallel, 0)
    }

    /// Policy-aware form of [`Self::prefill_saturation_tokens`]: the
    /// saturation point when each admitted token additionally attends over
    /// `processed_context` already-processed tokens (chunked prefills,
    /// prefix-cache suffixes). The marginal attention cost comes from the
    /// policy, so hierarchical prefill saturates later than dense over long
    /// prefixes (each token's attention is capped at the budget).
    pub fn prefill_saturation_tokens_at_context(
        &self,
        parallel: ParallelConfig,
        processed_context: u64,
    ) -> u64 {
        let weight_time = self.weight_bytes_per_gpu(parallel.tp) / self.effective_bandwidth;
        let gpus = parallel.total_gpus() as f64;
        let flops_per_token_per_gpu = self.linear_flops_per_token / gpus;
        // Marginal attention FLOPs of one more token over the prefix, as
        // priced by the policy; exactly zero at context 0.
        let attn_extra = (self.attention.prefill_attention_flops(
            &self.model,
            1.0,
            processed_context as f64 + 1.0,
        ) - self
            .attention
            .prefill_attention_flops(&self.model, 1.0, 1.0))
        .max(0.0);
        let attn_per_token_per_gpu = attn_extra / gpus;
        let time_per_token =
            (flops_per_token_per_gpu + attn_per_token_per_gpu) / self.effective_flops;
        let roofline_tokens = (weight_time / time_per_token).ceil().max(1.0);
        let fixed_overhead =
            PER_ITERATION_OVERHEAD_S + self.model.num_layers as f64 * self.gpu.per_layer_overhead_s;
        let amortize_tokens = (10.0 * fixed_overhead / time_per_token).ceil();
        roofline_tokens.max(amortize_tokens) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::PageSparseDecode;

    fn model() -> CostModel {
        CostModel::new(ModelConfig::lwm_1m_text())
    }

    fn model_with(policy: AttentionCostPolicy) -> CostModel {
        CostModel::builder(ModelConfig::lwm_1m_text())
            .attention(policy)
            .build()
    }

    fn nvlink() -> LinkSpec {
        LinkSpec::nvlink_a800()
    }

    #[test]
    fn long_prefill_is_much_slower_than_short() {
        // Figure 2 / §2.4: 100K tokens is ~100x slower than 1K tokens on the
        // same 8 GPUs.
        let cm = model();
        let p = ParallelConfig::new(8, 1);
        let t_1k = cm.prefill_cost(&[1_000], p, nvlink()).total();
        let t_100k = cm.prefill_cost(&[100_000], p, nvlink()).total();
        let ratio = t_100k / t_1k;
        assert!(
            ratio > 50.0 && ratio < 500.0,
            "ratio {ratio} not in the ~100x regime"
        );
    }

    #[test]
    fn prefill_scales_with_more_gpus() {
        // Long prefill should speed up substantially when going from 2 to 8
        // GPUs (Figure 2 top).
        let cm = model();
        let t2 = cm
            .prefill_cost(&[100_000], ParallelConfig::new(2, 1), nvlink())
            .total();
        let t8 = cm
            .prefill_cost(&[100_000], ParallelConfig::new(8, 1), nvlink())
            .total();
        let speedup = t2 / t8;
        assert!(
            speedup > 2.5,
            "speedup {speedup} too small for compute-bound prefill"
        );
    }

    #[test]
    fn decode_scales_poorly() {
        // Figure 2 bottom: a single short decode barely benefits from more
        // GPUs because it is bound by weight streaming and layer overheads.
        let cm = model();
        let t2 = cm
            .decode_cost(&[100], ParallelConfig::new(2, 1), 1, nvlink())
            .total();
        let t8 = cm
            .decode_cost(&[100], ParallelConfig::new(8, 1), 1, nvlink())
            .total();
        let speedup = t2 / t8;
        assert!(speedup < 2.5, "decode speedup {speedup} implausibly large");
    }

    #[test]
    fn sp_beats_tp_for_long_prefill() {
        // Figure 3: for very long sequences, SP4TP2 matches or beats SP1TP8
        // because the KV ring moves fewer bytes than the activation
        // all-reduces.
        let cm = model();
        let tp8 = cm
            .prefill_cost(&[500_000], ParallelConfig::new(8, 1), nvlink())
            .total();
        let sp4 = cm
            .prefill_cost(&[500_000], ParallelConfig::new(2, 4), nvlink())
            .total();
        assert!(
            sp4 <= tp8 * 1.05,
            "SP4TP2 ({sp4}) should not lose to TP8 ({tp8})"
        );
    }

    #[test]
    fn sp_not_catastrophic_for_short_prefill() {
        // Short-sequence batches should not be dramatically hurt by SP.
        let cm = model();
        let lens = vec![1_000u64; 16];
        let tp8 = cm
            .prefill_cost(&lens, ParallelConfig::new(8, 1), nvlink())
            .total();
        let sp4 = cm
            .prefill_cost(&lens, ParallelConfig::new(2, 4), nvlink())
            .total();
        assert!(
            sp4 < tp8 * 2.0,
            "SP4TP2 ({sp4}) should stay within 2x of TP8 ({tp8})"
        );
    }

    #[test]
    fn multi_master_helps_large_batches() {
        // Figure 14b: at large batch sizes, 4 masters roughly halve the
        // iteration latency versus 1 master; at batch 1 the difference is a
        // small overhead.
        let cm = model();
        let p = ParallelConfig::new(2, 4);
        let big: Vec<u64> = vec![64; 1024];
        let t1 = cm.decode_cost(&big, p, 1, nvlink()).total();
        let t4 = cm.decode_cost(&big, p, 4, nvlink()).total();
        assert!(t1 / t4 > 1.5, "multi-master speedup {} too small", t1 / t4);

        let small: Vec<u64> = vec![200_000];
        let s1 = cm.decode_cost(&small, p, 1, nvlink()).total();
        let s4 = cm.decode_cost(&small, p, 4, nvlink()).total();
        assert!(
            s4 < s1 * 1.15,
            "multi-master should cost <15% extra at batch 1"
        );
    }

    #[test]
    fn proactive_scale_down_overhead_is_tiny() {
        // Figure 14a: retaining KV during the prefill ring costs <2% extra.
        let cm = model();
        let p = ParallelConfig::new(2, 4);
        let lens = [200_000u64];
        let base = cm.prefill_cost(&lens, p, nvlink()).total();
        let extra = cm.proactive_scale_down_overhead(200_000, p);
        assert!(
            extra / base < 0.02,
            "scale-down overhead {} too large",
            extra / base
        );
    }

    #[test]
    fn reactive_migration_is_much_slower_than_a_decode_step() {
        // §4.1: migrating a long request's KV takes far longer than one
        // decode iteration.
        let cm = model();
        let p = ParallelConfig::new(2, 4);
        let migrate = nvlink().transfer_time(500_000.0 * cm.kv_bytes_per_token());
        let decode = cm.decode_cost(&[500_000], p, 1, nvlink()).total();
        assert!(
            migrate > 3.0 * decode,
            "migration {migrate} vs decode {decode}"
        );
    }

    #[test]
    fn thresholds_are_sensible() {
        let cm = model();
        let bs = cm.decode_compute_bound_batch_size(2);
        assert!(bs > 32 && bs < 4096, "decode compute-bound threshold {bs}");
        let toks = cm.prefill_saturation_tokens(ParallelConfig::new(2, 4));
        assert!(
            toks > 100 && toks < 100_000,
            "prefill saturation tokens {toks}"
        );
    }

    #[test]
    fn chunked_prefill_total_work_exceeds_monolithic() {
        // Processing a 100K prompt in 2K chunks repeatedly re-reads the
        // growing KV prefix, so the summed chunk time exceeds one monolithic
        // prefill — the inefficiency the paper attributes to SplitFuse.
        let cm = model();
        let p = ParallelConfig::new(8, 1);
        let total = 100_000u64;
        let chunk = 2_000u64;
        let monolithic = cm.prefill_cost(&[total], p, nvlink()).total();
        let mut chunked = 0.0;
        let mut processed = 0;
        while processed < total {
            chunked += cm
                .chunked_prefill_cost(chunk, processed, &[], p, nvlink())
                .total();
            processed += chunk;
        }
        assert!(
            chunked > monolithic,
            "chunked {chunked} vs monolithic {monolithic}"
        );
    }

    #[test]
    fn chunked_prefill_with_zero_chunk_is_a_decode() {
        let cm = model();
        let p = ParallelConfig::new(8, 1);
        let as_chunk = cm.chunked_prefill_cost(0, 0, &[5_000], p, nvlink()).total();
        let as_decode = cm.decode_cost(&[5_000], p, 1, nvlink()).total();
        assert!((as_chunk - as_decode).abs() < 1e-12);
    }

    #[test]
    fn fused_decode_tokens_add_cost() {
        let cm = model();
        let p = ParallelConfig::new(8, 1);
        let without = cm
            .chunked_prefill_cost(2_000, 10_000, &[], p, nvlink())
            .total();
        let with = cm
            .chunked_prefill_cost(2_000, 10_000, &[20_000; 16], p, nvlink())
            .total();
        assert!(with > without);
    }

    #[test]
    fn empty_batches_cost_nothing() {
        let cm = model();
        let p = ParallelConfig::new(2, 4);
        assert_eq!(cm.prefill_cost(&[], p, nvlink()).total(), 0.0);
        assert_eq!(cm.decode_cost(&[], p, 1, nvlink()).total(), 0.0);
    }

    #[test]
    fn cost_breakdown_sums_to_total() {
        let cm = model();
        let c = cm.prefill_cost(&[50_000, 1_000], ParallelConfig::new(2, 4), nvlink());
        let sum = c.compute_s + c.tp_comm_s + c.sp_comm_s + c.overhead_s + c.scaling_s;
        assert!((sum - c.total()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "masters must be in")]
    fn too_many_masters_panics() {
        let cm = model();
        let _ = cm.decode_cost(&[100], ParallelConfig::new(2, 2), 3, nvlink());
    }

    #[test]
    fn parallel_config_label() {
        assert_eq!(ParallelConfig::new(2, 4).label(), "SP4TP2");
        assert_eq!(ParallelConfig::new(8, 1).total_gpus(), 8);
    }

    #[test]
    fn sparse_decode_flattens_long_context_cost() {
        // The headline LServe effect: with page-sparse decode, decode cost
        // saturates at the token budget instead of growing linearly.
        let dense = model();
        let sparse = model_with(AttentionCostPolicy::page_sparse());
        let p = ParallelConfig::new(2, 4);
        let d100k = dense.decode_cost(&[100_000], p, 1, nvlink()).total();
        let s100k = sparse.decode_cost(&[100_000], p, 1, nvlink()).total();
        let s800k = sparse.decode_cost(&[800_000], p, 1, nvlink()).total();
        assert!(s100k < d100k, "sparse {s100k} should beat dense {d100k}");
        // Flat beyond the budget: 8x the context, ~same cost.
        assert!(
            (s800k - s100k).abs() / s100k < 0.01,
            "sparse decode not flat: {s100k} vs {s800k}"
        );
    }

    #[test]
    fn hierarchical_prefill_cheapens_long_prompts() {
        let dense = model();
        let sparse = model_with(AttentionCostPolicy::hierarchical());
        let p = ParallelConfig::new(8, 1);
        let d = dense.prefill_cost(&[500_000], p, nvlink()).total();
        let s = sparse.prefill_cost(&[500_000], p, nvlink()).total();
        assert!(s < d / 2.0, "hierarchical {s} vs dense {d}");
        // Short prompts are unchanged (under the budget the policy is dense).
        let d_short = dense.prefill_cost(&[2_000], p, nvlink()).total();
        let s_short = sparse.prefill_cost(&[2_000], p, nvlink()).total();
        assert_eq!(d_short, s_short);
    }

    #[test]
    fn sparse_policies_never_exceed_dense_iteration_cost() {
        let dense = model();
        let p = ParallelConfig::new(2, 4);
        for policy in AttentionCostPolicy::ablation_set() {
            let cm = model_with(policy);
            for lens in [vec![1_000u64; 8], vec![200_000], vec![64; 256]] {
                assert!(
                    cm.prefill_cost(&lens, p, nvlink()).total()
                        <= dense.prefill_cost(&lens, p, nvlink()).total() + 1e-12
                );
                assert!(
                    cm.decode_cost(&lens, p, 2, nvlink()).total()
                        <= dense.decode_cost(&lens, p, 2, nvlink()).total() + 1e-12
                );
                assert!(
                    cm.chunked_prefill_cost(2_000, 100_000, &lens, p, nvlink())
                        .total()
                        <= dense
                            .chunked_prefill_cost(2_000, 100_000, &lens, p, nvlink())
                            .total()
                            + 1e-12
                );
            }
        }
    }

    #[test]
    fn context_aware_thresholds_delegate_at_zero() {
        let cm = model();
        assert_eq!(
            cm.decode_compute_bound_batch_size(2),
            cm.decode_compute_bound_batch_size_at_context(2, 0).unwrap()
        );
        let p = ParallelConfig::new(2, 4);
        assert_eq!(
            cm.prefill_saturation_tokens(p),
            cm.prefill_saturation_tokens_at_context(p, 0)
        );
    }

    #[test]
    fn dense_long_context_decode_never_compute_bound() {
        // At 1M-token contexts the dense KV stream per added request exceeds
        // the marginal GEMM time: decode stays memory-bound at any batch
        // size, so the threshold is None.
        let cm = model();
        assert_eq!(
            cm.decode_compute_bound_batch_size_at_context(2, 1_000_000),
            None
        );
        // Short contexts raise the threshold but keep it finite.
        let at0 = cm.decode_compute_bound_batch_size_at_context(2, 0).unwrap();
        let at200 = cm
            .decode_compute_bound_batch_size_at_context(2, 200)
            .unwrap();
        assert!(at200 > at0, "KV streaming should raise the threshold");
        // Page-sparse decode caps the KV read at the token budget, so its
        // threshold is *flat* in context beyond the budget (for LWM's MHA
        // KV the capped read still exceeds the marginal GEMM time at TP2,
        // so both sides are None — the point is they are equal).
        let sparse = model_with(AttentionCostPolicy::page_sparse());
        let budget = PageSparseDecode::lserve().token_budget() as u64;
        assert_eq!(
            sparse.decode_compute_bound_batch_size_at_context(2, budget),
            sparse.decode_compute_bound_batch_size_at_context(2, 1_000_000)
        );
    }

    #[test]
    fn saturation_tokens_shrink_with_processed_context() {
        // The more prefix each token attends over, the sooner an iteration
        // saturates; hierarchical prefill caps the effect at its budget.
        let cm = model();
        let p = ParallelConfig::new(2, 4);
        let at0 = cm.prefill_saturation_tokens_at_context(p, 0);
        let at500k = cm.prefill_saturation_tokens_at_context(p, 500_000);
        assert!(
            at500k < at0,
            "dense saturation should shrink: {at500k} vs {at0}"
        );
        let sparse = model_with(AttentionCostPolicy::hierarchical());
        let sparse500k = sparse.prefill_saturation_tokens_at_context(p, 500_000);
        assert!(
            sparse500k >= at500k,
            "hierarchical ({sparse500k}) should saturate no sooner than dense ({at500k})"
        );
    }
}
