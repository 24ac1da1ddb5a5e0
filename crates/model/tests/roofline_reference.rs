//! Today's roofline formulas, kept as a test-only reference that reads
//! [`ModelConfig`] and [`GpuSpec`] at every call. [`CostModel`] derives the
//! same model and GPU terms once, when it is built; every pricing method
//! and threshold must stay bit-equal to this reference on every model
//! preset, GPU, attention policy, tensor-parallel degree and shape.

use loong_cluster::comm::CommModel;
use loong_cluster::gpu::{GpuSpec, LinkSpec};
use loong_model::attention::AttentionCostPolicy;
use loong_model::config::ModelConfig;
use loong_model::roofline::{CostModel, IterationCost, ParallelConfig};
use loong_simcore::rng::SimRng;
use rand::Rng;

/// The roofline's share of sequence-parallel communication hidden behind
/// attention.
const SP_OVERLAP_FRACTION: f64 = 0.90;

/// The roofline's constant per-iteration overhead in seconds.
const PER_ITERATION_OVERHEAD_S: f64 = 2e-3;

/// The cost model's parts, priced the way the formulas read them.
struct Reference {
    model: ModelConfig,
    gpu: GpuSpec,
    intra_instance_link: LinkSpec,
    attention: AttentionCostPolicy,
}

impl Reference {
    fn cached_context_attention_s(
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
        extra.max(0.0) / gpus / self.gpu.effective_flops()
    }

    fn prefill_cost(
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
        let linear_flops = m.linear_flops_per_token() * total_tokens;
        let attn_flops: f64 = input_lens
            .iter()
            .map(|&l| {
                self.attention
                    .prefill_attention_flops(m, l as f64, l as f64)
            })
            .sum();
        let linear_time = linear_flops / gpus / self.gpu.effective_flops();
        let attn_time = attn_flops / gpus / self.gpu.effective_flops();
        // Weights must be streamed from HBM at least once per iteration.
        let weight_stream_time =
            m.weight_bytes_per_gpu(parallel.tp) / self.gpu.effective_bandwidth();
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

    fn proactive_scale_down_overhead(&self, retained_tokens: u64, parallel: ParallelConfig) -> f64 {
        let bytes = retained_tokens as f64 * self.model.kv_bytes_per_token() / parallel.tp as f64;
        bytes / self.gpu.effective_bandwidth()
    }

    fn decode_cost<'a>(
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
        let linear_flops = m.linear_flops_per_token() * tokens_per_master;
        let linear_time = linear_flops / parallel.tp as f64 / self.gpu.effective_flops();
        // Decode is usually bound by streaming the weight shard from HBM.
        let weight_stream_time =
            m.weight_bytes_per_gpu(parallel.tp) / self.gpu.effective_bandwidth();
        let dense_time = linear_time.max(weight_stream_time);

        // Attention: every instance scans the KV cache stored locally. The
        // cache is spread over all sp instances (token-granularity pool), so
        // each instance streams roughly total/sp of it.
        let attn_flops_time =
            attn_flops / (parallel.sp * parallel.tp) as f64 / self.gpu.effective_flops();
        let kv_bytes_per_gpu =
            kv_read_tokens * m.kv_bytes_per_token() / parallel.sp as f64 / parallel.tp as f64;
        let kv_stream_time = kv_bytes_per_gpu / self.gpu.effective_bandwidth();
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

    fn chunked_prefill_cost(
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
        let linear_flops = m.linear_flops_per_token() * (chunk + decode_batch);
        let linear_time = linear_flops / gpus / self.gpu.effective_flops();
        let weight_stream_time =
            m.weight_bytes_per_gpu(parallel.tp) / self.gpu.effective_bandwidth();

        // Attention: the chunk attends to the whole processed prefix; fused
        // decode requests each attend to their full context.
        let chunk_attn = self.attention.prefill_attention_flops(m, chunk, context);
        let decode_attn: f64 = decode_context_lens
            .iter()
            .map(|&l| self.attention.decode_attention_flops(m, l as f64))
            .sum();
        let attn_flops_time = (chunk_attn + decode_attn) / gpus / self.gpu.effective_flops();
        // The prefix KV and the decode KV must be streamed from HBM — both
        // read sets capped by the policy.
        let kv_bytes_per_gpu = (self.attention.chunk_kv_read_tokens(chunk, context)
            + decode_context_lens
                .iter()
                .map(|&l| self.attention.decode_kv_read_tokens(l as f64))
                .sum::<f64>())
            * m.kv_bytes_per_token()
            / gpus;
        let kv_stream_time = kv_bytes_per_gpu / self.gpu.effective_bandwidth();
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

    fn decode_compute_bound_batch_size(&self, tp: usize) -> usize {
        self.decode_compute_bound_batch_size_at_context(tp, 0)
            .expect("zero-context decode is always compute-bound eventually")
    }

    fn decode_compute_bound_batch_size_at_context(
        &self,
        tp: usize,
        context_len: u64,
    ) -> Option<usize> {
        let weight_time = self.model.weight_bytes_per_gpu(tp) / self.gpu.effective_bandwidth();
        let flops_per_token_per_gpu = self.model.linear_flops_per_token() / tp as f64;
        let time_per_token = flops_per_token_per_gpu / self.gpu.effective_flops();
        let kv_time_per_request = self.attention.decode_kv_read_tokens(context_len as f64)
            * self.model.kv_bytes_per_token()
            / tp as f64
            / self.gpu.effective_bandwidth();
        if time_per_token <= kv_time_per_request {
            return None;
        }
        Some(
            (weight_time / (time_per_token - kv_time_per_request))
                .ceil()
                .max(1.0) as usize,
        )
    }

    fn prefill_saturation_tokens(&self, parallel: ParallelConfig) -> u64 {
        self.prefill_saturation_tokens_at_context(parallel, 0)
    }

    fn prefill_saturation_tokens_at_context(
        &self,
        parallel: ParallelConfig,
        processed_context: u64,
    ) -> u64 {
        let weight_time =
            self.model.weight_bytes_per_gpu(parallel.tp) / self.gpu.effective_bandwidth();
        let gpus = parallel.total_gpus() as f64;
        let flops_per_token_per_gpu = self.model.linear_flops_per_token() / gpus;
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
            (flops_per_token_per_gpu + attn_per_token_per_gpu) / self.gpu.effective_flops();
        let roofline_tokens = (weight_time / time_per_token).ceil().max(1.0);
        let fixed_overhead =
            PER_ITERATION_OVERHEAD_S + self.model.num_layers as f64 * self.gpu.per_layer_overhead_s;
        let amortize_tokens = (10.0 * fixed_overhead / time_per_token).ceil();
        roofline_tokens.max(amortize_tokens) as u64
    }
}

/// A GPU unlike the A800 in every term the cost model derives from it.
fn custom_gpu() -> GpuSpec {
    GpuSpec {
        name: "custom".to_string(),
        peak_flops: 989e12,
        hbm_bandwidth: 3.35e12,
        memory_bytes: 96.0 * 1024.0 * 1024.0 * 1024.0,
        compute_efficiency: 0.47,
        bandwidth_efficiency: 0.73,
        per_layer_overhead_s: 11e-6,
    }
}

/// A token count spread log-uniformly over 1 to 10^6.
fn tokens(rng: &mut SimRng) -> u64 {
    10f64.powf(rng.gen_range(0.0..6.0)) as u64
}

fn bits(cost: IterationCost) -> [u64; 5] {
    [
        cost.compute_s.to_bits(),
        cost.tp_comm_s.to_bits(),
        cost.sp_comm_s.to_bits(),
        cost.overhead_s.to_bits(),
        cost.scaling_s.to_bits(),
    ]
}

#[test]
fn pricing_is_bit_equal_to_the_reference() {
    let mut rng = SimRng::seed(0xc0575);
    let links = [LinkSpec::nvlink_a800(), LinkSpec::infiniband_4x200g()];
    for model in [
        ModelConfig::lwm_1m_text(),
        ModelConfig::llama2_7b(),
        ModelConfig::llama2_13b(),
        ModelConfig::llama3_8b_gqa(),
    ] {
        for gpu in [GpuSpec::a800_80gb(), custom_gpu()] {
            for attention in AttentionCostPolicy::ablation_set() {
                let cm = CostModel::builder(model.clone())
                    .gpu(gpu.clone())
                    .attention(attention)
                    .build();
                let reference = Reference {
                    model: model.clone(),
                    gpu: gpu.clone(),
                    intra_instance_link: cm.intra_instance_link(),
                    attention,
                };
                let at = format!("{} on {} under {}", model.name, gpu.name, attention.label());
                for tp in 1..=8 {
                    assert_eq!(
                        cm.decode_compute_bound_batch_size(tp),
                        reference.decode_compute_bound_batch_size(tp),
                        "{at}, tp {tp}"
                    );
                    for _ in 0..12 {
                        let sp = rng.gen_range(1..=4usize);
                        let parallel = ParallelConfig::new(tp, sp);
                        let link = links[rng.gen_range(0..2usize)];
                        // Mostly small batches; large ones make the
                        // dense terms outweigh weight streaming.
                        let batch = if rng.gen_bool(0.3) {
                            rng.gen_range(0..=1_024usize)
                        } else {
                            rng.gen_range(0..=8usize)
                        };
                        let lens: Vec<u64> = (0..batch).map(|_| tokens(&mut rng)).collect();
                        let masters = rng.gen_range(1..=sp);
                        let (chunk, processed, context) = (
                            if rng.gen_bool(0.2) {
                                0
                            } else {
                                tokens(&mut rng)
                            },
                            tokens(&mut rng),
                            tokens(&mut rng),
                        );
                        let shape = format!("{at}, {parallel:?}, lens {lens:?}");
                        assert_eq!(
                            bits(cm.prefill_cost(&lens, parallel, link)),
                            bits(reference.prefill_cost(&lens, parallel, link)),
                            "prefill: {shape}"
                        );
                        assert_eq!(
                            bits(cm.decode_cost(&lens, parallel, masters, link)),
                            bits(reference.decode_cost(&lens, parallel, masters, link)),
                            "decode, {masters} masters: {shape}"
                        );
                        assert_eq!(
                            bits(cm.chunked_prefill_cost(chunk, processed, &lens, parallel, link)),
                            bits(
                                reference
                                    .chunked_prefill_cost(chunk, processed, &lens, parallel, link)
                            ),
                            "chunk {chunk} after {processed}: {shape}"
                        );
                        assert_eq!(
                            cm.proactive_scale_down_overhead(context, parallel)
                                .to_bits(),
                            reference
                                .proactive_scale_down_overhead(context, parallel)
                                .to_bits(),
                            "scale-down of {context}: {shape}"
                        );
                        assert_eq!(
                            cm.cached_context_attention_s(chunk, context, parallel)
                                .to_bits(),
                            reference
                                .cached_context_attention_s(chunk, context, parallel)
                                .to_bits(),
                            "suffix {chunk} over {context}: {shape}"
                        );
                        assert_eq!(
                            cm.decode_compute_bound_batch_size_at_context(tp, context),
                            reference.decode_compute_bound_batch_size_at_context(tp, context),
                            "decode threshold at {context}: {shape}"
                        );
                        assert_eq!(
                            cm.prefill_saturation_tokens(parallel),
                            reference.prefill_saturation_tokens(parallel),
                            "saturation: {shape}"
                        );
                        assert_eq!(
                            cm.prefill_saturation_tokens_at_context(parallel, context),
                            reference.prefill_saturation_tokens_at_context(parallel, context),
                            "saturation at {context}: {shape}"
                        );
                    }
                }
            }
        }
    }
}
