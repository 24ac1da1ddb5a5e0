//! Pluggable attention-cost policies.
//!
//! The roofline model historically charged **dense causal attention** over
//! the full context, which makes long-context decode cost grow linearly in
//! context length and dominate every experiment. The long-context serving
//! field has moved past that assumption: LServe ("Efficient Long-sequence
//! LLM Serving with Unified Sparse Attention") shows that page-sparse /
//! streaming decode with a fixed token budget makes decode cost *sublinear*
//! in context, and that hierarchical page selection lets prefill skip
//! attention for pages below the selection budget.
//!
//! This module breaks the dense assumption out of [`CostModel`]'s
//! arithmetic into one policy type, [`AttentionCostPolicy`], the
//! serialisable enum [`CostModel`] carries. Its methods own **both** sides
//! of the attention roofline: the FLOP counts *and* the HBM KV-read token
//! counts (sparse decode also reads less KV, which matters because decode
//! attention is bandwidth-bound). The variants:
//!
//! * `Dense` — the paper's original behaviour, bit-for-bit identical to
//!   the pre-policy arithmetic (pinned by the golden digests).
//! * [`PageSparseDecode`] — LServe-style sparse decode: each step attends
//!   over a streaming sink + recent window plus a fixed budget of top-scored
//!   KV pages, so decode FLOPs and KV reads saturate at the token budget.
//!   Prefill stays dense.
//! * [`HierarchicalPrefill`] — LServe §4 hierarchical paging on the prefill
//!   side: each query block attends to at most the selection budget of
//!   context tokens, skipping pages below it. Decode stays dense.
//!
//! # Invariants (pinned by `tests/sparse_attention_properties.rs`)
//!
//! 1. **Dense neutrality** — `Dense` prices with the exact pre-policy
//!    arithmetic; every consumer produces bit-for-bit identical results.
//! 2. **Monotonicity** — no policy ever charges *more* than dense for the
//!    same shape: FLOPs are `min(dense, sparse-with-selection)` (a real
//!    kernel falls back to the dense path when the context fits the
//!    budget), and KV reads are capped at the dense read set.
//! 3. **Saturation** — [`PageSparseDecode`] decode FLOPs and KV reads are
//!    constant in context length beyond the token budget; only the
//!    (cache-resident, FLOP-only) page-selection term keeps growing, two
//!    orders of magnitude below the bandwidth floor.
//! 4. **Determinism** — policies are pure functions of their configuration;
//!    the same seed reproduces the same run under any policy.
//!
//! [`CostModel`]: crate::roofline::CostModel

use crate::config::ModelConfig;
use serde::{Deserialize, Serialize};

/// LServe-style page-sparse streaming **decode**: every decode step attends
/// over an always-kept streaming sink prefix and recent window plus a fixed
/// budget of top-scored KV pages. Beyond the token budget, decode FLOPs and
/// KV reads are flat in context length. Prefill stays dense.
///
/// Page selection is priced as FLOPs only: each page is scored against the
/// query with two landmark key vectors (per-page min/max summaries). The
/// landmark tensors are two orders of magnitude smaller than the KV cache
/// and stay cache-resident, so they add no HBM KV-read bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageSparseDecode {
    /// Tokens per KV page (the selection granularity).
    pub page_tokens: usize,
    /// Top-scored pages the selector keeps per decode step.
    pub budget_pages: usize,
    /// Always-attended attention-sink prefix (streaming head), in tokens.
    pub sink_tokens: usize,
    /// Always-attended recent window (streaming tail), in tokens.
    pub recent_tokens: usize,
}

impl PageSparseDecode {
    /// LServe's evaluation shape: 64-token pages, a 4096-token page budget,
    /// plus a 128-token sink and 256-token recent window.
    pub fn lserve() -> Self {
        PageSparseDecode {
            page_tokens: 64,
            budget_pages: 64,
            sink_tokens: 128,
            recent_tokens: 256,
        }
    }

    /// Total decode attention budget in tokens: sink + recent window + the
    /// page budget. Decode cost saturates at this context length.
    pub fn token_budget(&self) -> f64 {
        (self.sink_tokens + self.recent_tokens + self.budget_pages * self.page_tokens) as f64
    }

    /// Context tokens one decode step actually attends over.
    fn effective_context(&self, context_len: f64) -> f64 {
        context_len.min(self.token_budget())
    }

    /// FLOPs of scoring every page of a `context_len`-token cache against
    /// one query: two landmark dot products of the hidden dimension per
    /// page per layer.
    fn selection_flops(&self, model: &ModelConfig, context_len: f64) -> f64 {
        let pages = (context_len / self.page_tokens as f64).ceil();
        model.num_layers as f64 * 4.0 * (2.0 * pages) * model.hidden_size as f64
    }

    /// FLOPs of one decode step (a single new token) attending over
    /// `context_len` cached tokens.
    pub fn decode_attention_flops(&self, model: &ModelConfig, context_len: f64) -> f64 {
        let dense = model.attention_flops(1.0, context_len);
        let sparse = model.attention_flops(1.0, self.effective_context(context_len))
            + self.selection_flops(model, context_len);
        // The kernel falls back to the dense path whenever the whole
        // context fits the budget, so sparsity never costs extra.
        dense.min(sparse)
    }

    /// Tokens' worth of KV cache one decode step streams from HBM for a
    /// request with `context_len` cached tokens.
    pub fn decode_kv_read_tokens(&self, context_len: f64) -> f64 {
        self.effective_context(context_len)
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.page_tokens == 0 || self.budget_pages == 0 {
            return Err("page-sparse decode needs positive page size and budget".to_string());
        }
        Ok(())
    }
}

/// LServe §4 hierarchical-paging **prefill**: each query attends to at most
/// `budget_tokens` of context, skipping the pages the hierarchical selector
/// scores below the budget. Decode stays dense.
///
/// Selection is priced per (query block × context page) landmark scoring,
/// FLOPs only — the two-level page hierarchy keeps the score tensors
/// cache-resident. Chunked prefills additionally stop re-streaming the
/// whole processed prefix from HBM: each query block reads at most its
/// budget of selected pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchicalPrefill {
    /// Tokens per logical KV page at the prefill selection level.
    pub page_tokens: usize,
    /// Per-query attention budget during prefill, in context tokens.
    pub budget_tokens: usize,
}

impl HierarchicalPrefill {
    /// LServe's evaluation shape: 64-token logical pages and an 8192-token
    /// per-query prefill budget.
    pub fn lserve() -> Self {
        HierarchicalPrefill {
            page_tokens: 64,
            budget_tokens: 8192,
        }
    }

    /// Causally attended (query, key) pairs when every query's context is
    /// capped at the budget. Query `j` of `n` (1-based) attends over
    /// `min(base + j, budget)` tokens, where `base = total_context - n` is
    /// the pre-existing prefix. Closed form of the capped causal sum.
    fn capped_attended(&self, new_tokens: f64, total_context: f64) -> f64 {
        let b = self.budget_tokens as f64;
        let base = total_context - new_tokens;
        // Queries 1..=k stay under the budget; the remaining n-k are capped.
        let k = (b - base).clamp(0.0, new_tokens);
        k * base + 0.5 * k * (k + 1.0) + (new_tokens - k) * b
    }

    /// FLOPs of landmark-scoring every context page once per query block.
    fn selection_flops(&self, model: &ModelConfig, new_tokens: f64, total_context: f64) -> f64 {
        let pages = (total_context / self.page_tokens as f64).ceil();
        let blocks = (new_tokens / self.page_tokens as f64).ceil();
        model.num_layers as f64 * 4.0 * (2.0 * pages * blocks) * model.hidden_size as f64
    }

    /// FLOPs of attention for `new_tokens` query positions attending over
    /// `total_context` cached positions (including themselves), causal.
    pub fn prefill_attention_flops(
        &self,
        model: &ModelConfig,
        new_tokens: f64,
        total_context: f64,
    ) -> f64 {
        let dense = model.attention_flops(new_tokens, total_context);
        let attended = self.capped_attended(new_tokens, total_context);
        let sparse = model.num_layers as f64 * 4.0 * attended * model.hidden_size as f64
            + self.selection_flops(model, new_tokens, total_context);
        // Fall back to dense when the context fits the budget.
        dense.min(sparse)
    }

    /// Tokens' worth of KV cache a prefill chunk of `chunk_tokens` streams
    /// from HBM while attending over `total_context` processed tokens
    /// (chunk included).
    pub fn chunk_kv_read_tokens(&self, chunk_tokens: f64, total_context: f64) -> f64 {
        if chunk_tokens <= 0.0 {
            return total_context;
        }
        // Each query block streams at most its budget of selected pages;
        // never more than the dense read set.
        let blocks = (chunk_tokens / self.page_tokens as f64).ceil();
        total_context.min(blocks * self.budget_tokens as f64)
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.page_tokens == 0 || self.budget_tokens == 0 {
            return Err("hierarchical prefill needs positive page size and budget".to_string());
        }
        Ok(())
    }
}

/// The attention-cost policy carried by [`CostModel`]: a serialisable sum
/// type over the three policies. Every method is pure: the scheduling paths
/// call them at every iteration and rely on identical inputs producing
/// identical outputs. Token counts are `f64`, matching the roofline's
/// arithmetic.
///
/// The two `*_flops` methods price the arithmetic side of the attention
/// roofline; the two `*_kv_read_tokens` methods price the HBM side — how
/// many tokens' worth of KV cache the kernel actually streams. A sparse
/// policy must cap **both**: long-context decode is bandwidth-bound, so
/// reducing FLOPs alone would change nothing.
///
/// [`CostModel`]: crate::roofline::CostModel
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttentionCostPolicy {
    /// Dense causal attention (the default; pinned by the golden digests).
    #[default]
    Dense,
    /// Page-sparse streaming decode with a fixed token budget.
    PageSparseDecode(PageSparseDecode),
    /// Hierarchical prefill skipping pages below the selection budget.
    HierarchicalPrefill(HierarchicalPrefill),
}

impl AttentionCostPolicy {
    /// The LServe-shaped sparse-decode policy.
    pub fn page_sparse() -> Self {
        AttentionCostPolicy::PageSparseDecode(PageSparseDecode::lserve())
    }

    /// The LServe-shaped hierarchical-prefill policy.
    pub fn hierarchical() -> Self {
        AttentionCostPolicy::HierarchicalPrefill(HierarchicalPrefill::lserve())
    }

    /// The three policies the sparse-attention ablation compares.
    pub fn ablation_set() -> Vec<AttentionCostPolicy> {
        vec![
            AttentionCostPolicy::Dense,
            AttentionCostPolicy::page_sparse(),
            AttentionCostPolicy::hierarchical(),
        ]
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            AttentionCostPolicy::Dense => Ok(()),
            AttentionCostPolicy::PageSparseDecode(p) => p.validate(),
            AttentionCostPolicy::HierarchicalPrefill(p) => p.validate(),
        }
    }

    /// FLOPs of attention for `new_tokens` query positions attending over
    /// `total_context` cached positions (including themselves), causal.
    /// Used by full prefills (`new == total`), chunked-prefill chunks and
    /// the cached-context surcharge of prefix-cache suffix prefills.
    pub fn prefill_attention_flops(
        &self,
        model: &ModelConfig,
        new_tokens: f64,
        total_context: f64,
    ) -> f64 {
        match self {
            AttentionCostPolicy::HierarchicalPrefill(p) => {
                p.prefill_attention_flops(model, new_tokens, total_context)
            }
            _ => model.attention_flops(new_tokens, total_context),
        }
    }

    /// FLOPs of one decode step (a single new token) attending over
    /// `context_len` cached tokens.
    pub fn decode_attention_flops(&self, model: &ModelConfig, context_len: f64) -> f64 {
        match self {
            AttentionCostPolicy::PageSparseDecode(p) => {
                p.decode_attention_flops(model, context_len)
            }
            _ => model.attention_flops(1.0, context_len),
        }
    }

    /// Tokens' worth of KV cache one decode step streams from HBM for a
    /// request with `context_len` cached tokens.
    pub fn decode_kv_read_tokens(&self, context_len: f64) -> f64 {
        match self {
            AttentionCostPolicy::PageSparseDecode(p) => p.decode_kv_read_tokens(context_len),
            _ => context_len,
        }
    }

    /// Tokens' worth of KV cache a prefill chunk of `chunk_tokens` streams
    /// from HBM while attending over `total_context` processed tokens
    /// (chunk included).
    pub fn chunk_kv_read_tokens(&self, chunk_tokens: f64, total_context: f64) -> f64 {
        match self {
            AttentionCostPolicy::HierarchicalPrefill(p) => {
                p.chunk_kv_read_tokens(chunk_tokens, total_context)
            }
            _ => total_context,
        }
    }

    /// Short label for figure legends and bench output.
    pub fn label(&self) -> &'static str {
        match self {
            AttentionCostPolicy::Dense => "dense",
            AttentionCostPolicy::PageSparseDecode(_) => "page-sparse-decode",
            AttentionCostPolicy::HierarchicalPrefill(_) => "hierarchical-prefill",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ModelConfig {
        ModelConfig::lwm_1m_text()
    }

    #[test]
    fn dense_matches_raw_attention_flops() {
        let m = model();
        let dense = AttentionCostPolicy::Dense;
        for (n, c) in [(1.0, 10_000.0), (2_000.0, 50_000.0), (100.0, 100.0)] {
            assert_eq!(
                dense.prefill_attention_flops(&m, n, c),
                m.attention_flops(n, c)
            );
        }
        assert_eq!(
            dense.decode_attention_flops(&m, 30_000.0),
            m.attention_flops(1.0, 30_000.0)
        );
        assert_eq!(dense.decode_kv_read_tokens(12_345.0), 12_345.0);
        assert_eq!(dense.chunk_kv_read_tokens(2_000.0, 52_000.0), 52_000.0);
    }

    #[test]
    fn page_sparse_decode_saturates_at_budget() {
        let m = model();
        let p = PageSparseDecode::lserve();
        let budget = p.token_budget();
        // Below the budget: identical to dense.
        assert_eq!(
            p.decode_attention_flops(&m, 1_000.0),
            m.attention_flops(1.0, 1_000.0)
        );
        assert_eq!(p.decode_kv_read_tokens(1_000.0), 1_000.0);
        // Beyond the budget: KV reads flat, FLOPs grow only by selection.
        assert_eq!(p.decode_kv_read_tokens(100_000.0), budget);
        assert_eq!(p.decode_kv_read_tokens(1_000_000.0), budget);
        let f100k = p.decode_attention_flops(&m, 100_000.0);
        let f1m = p.decode_attention_flops(&m, 1_000_000.0);
        let dense1m = m.attention_flops(1.0, 1_000_000.0);
        assert!(f1m < dense1m / 10.0, "sparse {f1m} vs dense {dense1m}");
        // Selection slope is 2/page_tokens of the dense slope.
        assert!(f1m / f100k < 5.0, "selection term grew too fast");
    }

    #[test]
    fn page_sparse_never_exceeds_dense() {
        let m = model();
        let p = PageSparseDecode::lserve();
        for c in [1.0, 100.0, 4_479.0, 4_480.0, 4_481.0, 50_000.0, 1e6] {
            assert!(
                p.decode_attention_flops(&m, c) <= m.attention_flops(1.0, c),
                "flops exceed dense at context {c}"
            );
            assert!(p.decode_kv_read_tokens(c) <= c);
        }
    }

    #[test]
    fn hierarchical_prefill_caps_attended_pairs() {
        let m = model();
        let h = HierarchicalPrefill::lserve();
        // Short prefill: under the budget, exactly dense.
        assert_eq!(
            h.prefill_attention_flops(&m, 4_000.0, 4_000.0),
            m.attention_flops(4_000.0, 4_000.0)
        );
        // Long prefill: far below dense (the budget caps each query).
        let dense = m.attention_flops(500_000.0, 500_000.0);
        let sparse = h.prefill_attention_flops(&m, 500_000.0, 500_000.0);
        assert!(
            sparse < dense / 10.0,
            "hierarchical {sparse} vs dense {dense}"
        );
        // Decode stays dense.
        assert_eq!(
            AttentionCostPolicy::HierarchicalPrefill(h).decode_attention_flops(&m, 200_000.0),
            m.attention_flops(1.0, 200_000.0)
        );
    }

    #[test]
    fn hierarchical_capped_sum_matches_dense_when_under_budget() {
        let h = HierarchicalPrefill {
            page_tokens: 64,
            budget_tokens: 1 << 30,
        };
        // With an unreachable budget the capped closed form must equal the
        // dense attended count exactly.
        let n = 1_234.0;
        let c = 9_876.0;
        let dense_attended = n * (c - n) + 0.5 * n * (n + 1.0);
        assert_eq!(h.capped_attended(n, c), dense_attended);
    }

    #[test]
    fn hierarchical_chunk_reads_less_kv_over_long_prefixes() {
        let h = HierarchicalPrefill::lserve();
        // 2000-token chunk over a 500K prefix: 32 blocks x 8192 budget.
        let reads = h.chunk_kv_read_tokens(2_000.0, 502_000.0);
        assert!(
            reads < 502_000.0,
            "chunk should not re-read the full prefix"
        );
        assert_eq!(reads, (2_000.0f64 / 64.0).ceil() * 8_192.0);
        // Monolithic prefill reads everything (blocks x budget > context).
        assert_eq!(h.chunk_kv_read_tokens(500_000.0, 500_000.0), 500_000.0);
    }

    #[test]
    fn policy_enum_delegates_and_labels() {
        let m = model();
        let sparse = AttentionCostPolicy::page_sparse();
        assert_eq!(sparse.label(), "page-sparse-decode");
        assert_eq!(
            sparse.decode_kv_read_tokens(1e6),
            PageSparseDecode::lserve().token_budget()
        );
        assert_eq!(AttentionCostPolicy::default().label(), "dense");
        assert_eq!(
            AttentionCostPolicy::hierarchical().label(),
            "hierarchical-prefill"
        );
        assert_eq!(
            AttentionCostPolicy::Dense.decode_attention_flops(&m, 5_000.0),
            m.attention_flops(1.0, 5_000.0)
        );
        assert_eq!(AttentionCostPolicy::ablation_set().len(), 3);
    }

    #[test]
    fn policies_serialise_roundtrip() {
        for p in AttentionCostPolicy::ablation_set() {
            let json = serde_json::to_string(&p).expect("serialise");
            let back: AttentionCostPolicy = serde_json::from_str(&json).expect("deserialise");
            assert_eq!(p, back);
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(AttentionCostPolicy::Dense.validate().is_ok());
        assert!(AttentionCostPolicy::page_sparse().validate().is_ok());
        let bad = AttentionCostPolicy::PageSparseDecode(PageSparseDecode {
            page_tokens: 0,
            ..PageSparseDecode::lserve()
        });
        assert!(bad.validate().is_err());
        let bad = AttentionCostPolicy::HierarchicalPrefill(HierarchicalPrefill {
            budget_tokens: 0,
            ..HierarchicalPrefill::lserve()
        });
        assert!(bad.validate().is_err());
    }
}
