//! Transformer model configurations.
//!
//! The evaluation model of the paper is LWM-1M-Text, which shares the
//! Llama-2-7B architecture (32 layers, 4096 hidden, 32 heads, multi-head
//! attention) but supports a 1M-token context window. Only the
//! architectural parameters matter for serving decisions: they determine
//! parameter count (weight bytes), per-token KV-cache bytes, and the FLOP
//! and byte counts that the roofline cost model consumes.
//!
//! Note that the architecture says nothing about *how much* of the context
//! attention actually touches per token — that is the attention-cost
//! policy's decision ([`crate::attention`]): dense attention reads all of
//! it, the sparse policies cap it at a budget. This module only supplies
//! the raw dense FLOP counts the policies build on.

/// Architectural description of a decoder-only transformer.
///
/// # Examples
///
/// ```
/// use loong_model::config::ModelConfig;
///
/// let m = ModelConfig::lwm_1m_text();
/// // The paper's example: the KV cache of a 1M-token request is ~488 GiB.
/// let gib = m.kv_bytes_per_token() * 1_000_000.0 / (1024.0 * 1024.0 * 1024.0);
/// assert!((gib - 488.0).abs() < 2.0, "got {gib} GiB");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Human-readable model name.
    pub name: String,
    /// Number of transformer layers.
    pub num_layers: usize,
    /// Hidden (embedding) dimension.
    pub hidden_size: usize,
    /// Number of attention (query) heads.
    pub num_heads: usize,
    /// Number of key-value heads (equal to `num_heads` for MHA, smaller for
    /// GQA, 1 for MQA).
    pub num_kv_heads: usize,
    /// FFN intermediate dimension.
    pub intermediate_size: usize,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Bytes per parameter / activation element (2 for FP16/BF16).
    pub dtype_bytes: usize,
    /// Maximum context window supported by the model, in tokens.
    pub max_context_len: usize,
}

impl ModelConfig {
    /// LWM-1M-Text: Llama-2-7B architecture with a 1M-token context window.
    /// This is the model used throughout the paper's evaluation.
    pub fn lwm_1m_text() -> Self {
        ModelConfig {
            name: "LWM-1M-Text (Llama-2-7B)".to_string(),
            num_layers: 32,
            hidden_size: 4096,
            num_heads: 32,
            num_kv_heads: 32,
            intermediate_size: 11008,
            vocab_size: 32000,
            dtype_bytes: 2,
            max_context_len: 1_048_576,
        }
    }

    /// Vanilla Llama-2-7B with its native 4K context window.
    pub fn llama2_7b() -> Self {
        ModelConfig {
            max_context_len: 4096,
            name: "Llama-2-7B".to_string(),
            ..Self::lwm_1m_text()
        }
    }

    /// Llama-2-13B, used for scale sensitivity checks beyond the paper.
    pub fn llama2_13b() -> Self {
        ModelConfig {
            name: "Llama-2-13B".to_string(),
            num_layers: 40,
            hidden_size: 5120,
            num_heads: 40,
            num_kv_heads: 40,
            intermediate_size: 13824,
            vocab_size: 32000,
            dtype_bytes: 2,
            max_context_len: 4096,
        }
    }

    /// A Llama-3-8B-like GQA configuration (8 KV heads), exercising the
    /// GQA-compatibility the paper claims for its mechanisms.
    pub fn llama3_8b_gqa() -> Self {
        ModelConfig {
            name: "Llama-3-8B (GQA)".to_string(),
            num_layers: 32,
            hidden_size: 4096,
            num_heads: 32,
            num_kv_heads: 8,
            intermediate_size: 14336,
            vocab_size: 128256,
            dtype_bytes: 2,
            max_context_len: 131_072,
        }
    }

    /// Dimension of each attention head.
    pub fn head_dim(&self) -> usize {
        self.hidden_size / self.num_heads
    }

    /// Approximate total parameter count of the decoder stack plus
    /// embeddings.
    ///
    /// Per layer: Q/K/V/O projections (with GQA-reduced K/V), gated FFN
    /// (three matrices). Plus input/output embeddings.
    pub fn param_count(&self) -> f64 {
        let h = self.hidden_size as f64;
        let kv_h = (self.num_kv_heads * self.head_dim()) as f64;
        let i = self.intermediate_size as f64;
        let per_layer = h * h            // Q projection
            + 2.0 * h * kv_h             // K and V projections
            + h * h                      // O projection
            + 3.0 * h * i; // gate, up, down FFN matrices
        let embeddings = 2.0 * self.vocab_size as f64 * h;
        self.num_layers as f64 * per_layer + embeddings
    }

    /// Total model weight bytes (unsharded).
    pub fn weight_bytes(&self) -> f64 {
        self.param_count() * self.dtype_bytes as f64
    }

    /// Weight bytes resident on each GPU under `tp`-way tensor parallelism.
    pub fn weight_bytes_per_gpu(&self, tp: usize) -> f64 {
        assert!(tp >= 1, "tensor parallel degree must be >= 1");
        self.weight_bytes() / tp as f64
    }

    /// Key-value cache bytes per token across the whole model (all layers,
    /// K and V).
    pub fn kv_bytes_per_token(&self) -> f64 {
        (2 * self.num_layers * self.num_kv_heads * self.head_dim() * self.dtype_bytes) as f64
    }

    /// Key-value cache bytes per token stored on each GPU when the KV heads
    /// are sharded `tp` ways within an instance.
    pub fn kv_bytes_per_token_per_gpu(&self, tp: usize) -> f64 {
        assert!(tp >= 1, "tensor parallel degree must be >= 1");
        // KV heads cannot be split below one head per GPU; clamp so MQA/GQA
        // models replicate KV on extra ranks exactly like real systems do.
        let effective_shards = tp.min(self.num_kv_heads) as f64;
        self.kv_bytes_per_token() / effective_shards
    }

    /// FLOPs of the dense (non-attention) computation for one token: every
    /// parameter in the projections and FFN participates in one
    /// multiply-accumulate.
    pub fn linear_flops_per_token(&self) -> f64 {
        let h = self.hidden_size as f64;
        let kv_h = (self.num_kv_heads * self.head_dim()) as f64;
        let i = self.intermediate_size as f64;
        let per_layer = 2.0 * (h * h + 2.0 * h * kv_h + h * h + 3.0 * h * i);
        self.num_layers as f64 * per_layer + 2.0 * self.vocab_size as f64 * h
    }

    /// FLOPs of causal attention (QKᵀ and AV) for a request whose query
    /// tokens span `new_tokens` positions attending to `total_context`
    /// cached positions (including themselves).
    ///
    /// For a full prefill, `new_tokens == total_context == L` and the causal
    /// mask halves the work: `2 · L² · hidden` per layer. For a decode step
    /// `new_tokens == 1` and the cost is linear in the context length.
    ///
    /// Crate-private on purpose: this is the **dense** count, the raw
    /// material of [`crate::attention`]. Everything outside the crate must
    /// price attention through an
    /// [`AttentionCostPolicy`](crate::attention::AttentionCostPolicy) so no
    /// caller can silently bypass the configured sparsity.
    pub(crate) fn attention_flops(&self, new_tokens: f64, total_context: f64) -> f64 {
        assert!(new_tokens >= 0.0 && total_context >= 0.0);
        assert!(
            total_context >= new_tokens,
            "context must include the new tokens"
        );
        let h = self.hidden_size as f64;
        // Each new token attends to (total_context - new_tokens) prior
        // positions plus, on average, half of the new tokens (causality).
        let attended =
            new_tokens * (total_context - new_tokens) + 0.5 * new_tokens * (new_tokens + 1.0);
        // QK^T and AV each cost 2 * attended * hidden FLOPs per layer.
        self.num_layers as f64 * 4.0 * attended * h
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_layers == 0 || self.hidden_size == 0 || self.num_heads == 0 {
            return Err(format!(
                "{}: layers/hidden/heads must be positive",
                self.name
            ));
        }
        if !self.hidden_size.is_multiple_of(self.num_heads) {
            return Err(format!(
                "{}: hidden_size must be divisible by num_heads",
                self.name
            ));
        }
        if self.num_kv_heads == 0 || !self.num_heads.is_multiple_of(self.num_kv_heads) {
            return Err(format!(
                "{}: num_heads must be a multiple of num_kv_heads",
                self.name
            ));
        }
        if self.dtype_bytes == 0 {
            return Err(format!("{}: dtype_bytes must be positive", self.name));
        }
        if self.max_context_len == 0 {
            return Err(format!("{}: max_context_len must be positive", self.name));
        }
        Ok(())
    }
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig::lwm_1m_text()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lwm_matches_paper_kv_footprint() {
        let m = ModelConfig::lwm_1m_text();
        // 2 * 32 layers * 4096 * 2 bytes = 512 KiB per token.
        assert_eq!(m.kv_bytes_per_token(), 524_288.0);
        // 1M tokens => ~488 GiB, the number quoted in the paper's intro.
        let gib = m.kv_bytes_per_token() * 1e6 / (1024.0 * 1024.0 * 1024.0);
        assert!((gib - 488.3).abs() < 1.0, "got {gib}");
    }

    #[test]
    fn param_count_close_to_7b() {
        let m = ModelConfig::llama2_7b();
        let p = m.param_count();
        assert!(p > 6.3e9 && p < 7.1e9, "param count {p} not ~6.7B");
    }

    #[test]
    fn param_count_close_to_13b() {
        let m = ModelConfig::llama2_13b();
        let p = m.param_count();
        assert!(p > 12.0e9 && p < 13.5e9, "param count {p} not ~13B");
    }

    #[test]
    fn gqa_reduces_kv_footprint() {
        let mha = ModelConfig::lwm_1m_text();
        let gqa = ModelConfig::llama3_8b_gqa();
        assert!(gqa.kv_bytes_per_token() < mha.kv_bytes_per_token() / 2.0);
    }

    #[test]
    fn kv_sharding_clamps_to_kv_heads() {
        let gqa = ModelConfig::llama3_8b_gqa();
        // With only 8 KV heads, sharding 16 ways cannot reduce below 1/8th.
        assert_eq!(
            gqa.kv_bytes_per_token_per_gpu(16),
            gqa.kv_bytes_per_token() / 8.0
        );
    }

    #[test]
    fn attention_flops_quadratic_for_prefill() {
        let m = ModelConfig::lwm_1m_text();
        let f1 = m.attention_flops(1_000.0, 1_000.0);
        let f10 = m.attention_flops(10_000.0, 10_000.0);
        let ratio = f10 / f1;
        assert!(ratio > 90.0 && ratio < 110.0, "expected ~100x, got {ratio}");
    }

    #[test]
    fn attention_flops_linear_for_decode() {
        let m = ModelConfig::lwm_1m_text();
        let f1 = m.attention_flops(1.0, 10_000.0);
        let f2 = m.attention_flops(1.0, 20_000.0);
        let ratio = f2 / f1;
        assert!((ratio - 2.0).abs() < 0.01, "expected ~2x, got {ratio}");
    }

    #[test]
    fn linear_flops_roughly_twice_params() {
        let m = ModelConfig::llama2_7b();
        let ratio = m.linear_flops_per_token() / m.param_count();
        assert!(ratio > 1.8 && ratio < 2.2, "ratio {ratio}");
    }

    #[test]
    fn all_presets_validate() {
        for m in [
            ModelConfig::lwm_1m_text(),
            ModelConfig::llama2_7b(),
            ModelConfig::llama2_13b(),
            ModelConfig::llama3_8b_gqa(),
        ] {
            assert!(m.validate().is_ok(), "{} failed validation", m.name);
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut m = ModelConfig::llama2_7b();
        m.num_kv_heads = 5;
        assert!(m.validate().is_err());
        let mut m = ModelConfig::llama2_7b();
        m.hidden_size = 4097;
        assert!(m.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "context must include")]
    fn attention_flops_rejects_inconsistent_args() {
        let m = ModelConfig::llama2_7b();
        let _ = m.attention_flops(100.0, 50.0);
    }
}
