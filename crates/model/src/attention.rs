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
//! arithmetic into one policy type, [`AttentionCostPolicy`], the plain
//! enum [`CostModel`] carries. Its methods own **both** sides of the
//! attention roofline: the FLOP counts *and* the HBM KV-read token counts
//! (sparse decode also reads less KV, which matters because decode
//! attention is bandwidth-bound). The variants:
//!
//! * `Dense` — the paper's original behaviour, bit-for-bit identical to
//!   the pre-policy arithmetic (pinned by the golden digests).
//! * `PageSparseDecode` — LServe-style sparse decode: each step attends
//!   over a streaming sink + recent window plus a fixed budget of top-scored
//!   KV pages, so decode FLOPs and KV reads saturate at the token budget.
//!   Prefill stays dense.
//! * `HierarchicalPrefill` — LServe §4 hierarchical paging on the prefill
//!   side: each query block attends to at most the selection budget of
//!   context tokens, skipping pages below it. Decode stays dense.
//!
//! Both sparse policies price LServe's evaluation shape (arXiv 2502.14866),
//! the one shape this reproduction runs, held in this module's constants:
//! 64-token pages, a 64-page budget, a 128-token sink and a 256-token
//! recent window for decode; 64-token pages and an 8,192-token per-query
//! budget for prefill.
//!
//! # Invariants (pinned by `tests/sparse_attention_properties.rs`)
//!
//! 1. **Dense neutrality** — `Dense` prices with the exact pre-policy
//!    arithmetic; every consumer produces bit-for-bit identical results.
//! 2. **Monotonicity** — no policy ever charges *more* than dense for the
//!    same shape: FLOPs are `min(dense, sparse-with-selection)` (a real
//!    kernel falls back to the dense path when the context fits the
//!    budget), and KV reads are capped at the dense read set.
//! 3. **Saturation** — `PageSparseDecode` decode FLOPs and KV reads are
//!    constant in context length beyond its 4,480-token budget; only the
//!    (cache-resident, FLOP-only) page-selection term keeps growing, two
//!    orders of magnitude below the bandwidth floor.
//! 4. **Determinism** — policies are pure functions of their inputs; the
//!    same seed reproduces the same run under any policy.
//!
//! [`CostModel`]: crate::roofline::CostModel

use crate::config::ModelConfig;

/// Tokens per KV page of page-sparse decode (the selection granularity).
pub(crate) const DECODE_PAGE_TOKENS: usize = 64;

/// Top-scored pages page-sparse decode keeps per step (4,096 tokens).
pub(crate) const DECODE_BUDGET_PAGES: usize = 64;

/// Always-attended attention-sink prefix (streaming head) of page-sparse
/// decode, in tokens.
pub(crate) const DECODE_SINK_TOKENS: usize = 128;

/// Always-attended recent window (streaming tail) of page-sparse decode, in
/// tokens.
pub(crate) const DECODE_RECENT_TOKENS: usize = 256;

/// Total decode attention budget in tokens: sink + recent window + the page
/// budget. Page-sparse decode cost saturates at this context length.
pub(crate) const DECODE_TOKEN_BUDGET: f64 =
    (DECODE_SINK_TOKENS + DECODE_RECENT_TOKENS + DECODE_BUDGET_PAGES * DECODE_PAGE_TOKENS) as f64;

/// Tokens per logical KV page at the hierarchical-prefill selection level.
pub(crate) const PREFILL_PAGE_TOKENS: usize = 64;

/// Per-query attention budget of hierarchical prefill, in context tokens.
pub(crate) const PREFILL_BUDGET_TOKENS: usize = 8192;

/// The attention-cost policy carried by [`CostModel`]: a plain enum over
/// the three policies. Every method is pure: the scheduling paths call them
/// at every iteration and rely on identical inputs producing identical
/// outputs. Token counts are `f64`, matching the roofline's arithmetic.
///
/// The two `*_flops` methods price the arithmetic side of the attention
/// roofline; the two `*_kv_read_tokens` methods price the HBM side — how
/// many tokens' worth of KV cache the kernel actually streams. A sparse
/// policy must cap **both**: long-context decode is bandwidth-bound, so
/// reducing FLOPs alone would change nothing.
///
/// [`CostModel`]: crate::roofline::CostModel
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AttentionCostPolicy {
    /// Dense causal attention (the default; pinned by the golden digests).
    #[default]
    Dense,
    /// LServe-style page-sparse streaming **decode**: every decode step
    /// attends over an always-kept streaming sink prefix and recent window
    /// plus a fixed budget of top-scored KV pages. Beyond the 4,480-token
    /// budget, decode FLOPs and KV reads are flat in context length.
    /// Prefill stays dense.
    ///
    /// Page selection is priced as FLOPs only: each page is scored against
    /// the query with two landmark key vectors (per-page min/max
    /// summaries). The landmark tensors are two orders of magnitude smaller
    /// than the KV cache and stay cache-resident, so they add no HBM
    /// KV-read bytes.
    PageSparseDecode,
    /// LServe §4 hierarchical-paging **prefill**: each query attends to at
    /// most 8,192 tokens of context, skipping the pages the hierarchical
    /// selector scores below the budget. Decode stays dense.
    ///
    /// Selection is priced per (query block × context page) landmark
    /// scoring, FLOPs only — the two-level page hierarchy keeps the score
    /// tensors cache-resident. Chunked prefills additionally stop
    /// re-streaming the whole processed prefix from HBM: each query block
    /// reads at most its budget of selected pages.
    HierarchicalPrefill,
}

impl AttentionCostPolicy {
    /// The three policies the sparse-attention ablation compares.
    pub fn ablation_set() -> Vec<AttentionCostPolicy> {
        vec![
            AttentionCostPolicy::Dense,
            AttentionCostPolicy::PageSparseDecode,
            AttentionCostPolicy::HierarchicalPrefill,
        ]
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
        let dense = model.attention_flops(new_tokens, total_context);
        match self {
            AttentionCostPolicy::HierarchicalPrefill => {
                let attended = capped_attended(new_tokens, total_context);
                let sparse = model.num_layers as f64 * 4.0 * attended * model.hidden_size as f64
                    + prefill_selection_flops(model, new_tokens, total_context);
                // Fall back to dense when the context fits the budget.
                dense.min(sparse)
            }
            _ => dense,
        }
    }

    /// FLOPs of one decode step (a single new token) attending over
    /// `context_len` cached tokens.
    pub fn decode_attention_flops(&self, model: &ModelConfig, context_len: f64) -> f64 {
        let dense = model.attention_flops(1.0, context_len);
        match self {
            AttentionCostPolicy::PageSparseDecode => {
                let sparse = model.attention_flops(1.0, context_len.min(DECODE_TOKEN_BUDGET))
                    + decode_selection_flops(model, context_len);
                // The kernel falls back to the dense path whenever the whole
                // context fits the budget, so sparsity never costs extra.
                dense.min(sparse)
            }
            _ => dense,
        }
    }

    /// Tokens' worth of KV cache one decode step streams from HBM for a
    /// request with `context_len` cached tokens.
    pub fn decode_kv_read_tokens(&self, context_len: f64) -> f64 {
        match self {
            AttentionCostPolicy::PageSparseDecode => context_len.min(DECODE_TOKEN_BUDGET),
            _ => context_len,
        }
    }

    /// Tokens' worth of KV cache a prefill chunk of `chunk_tokens` streams
    /// from HBM while attending over `total_context` processed tokens
    /// (chunk included).
    pub fn chunk_kv_read_tokens(&self, chunk_tokens: f64, total_context: f64) -> f64 {
        match self {
            AttentionCostPolicy::HierarchicalPrefill if chunk_tokens > 0.0 => {
                // Each query block streams at most its budget of selected
                // pages; never more than the dense read set.
                let blocks = (chunk_tokens / PREFILL_PAGE_TOKENS as f64).ceil();
                total_context.min(blocks * PREFILL_BUDGET_TOKENS as f64)
            }
            _ => total_context,
        }
    }

    /// Short label for figure legends and bench output.
    pub fn label(&self) -> &'static str {
        match self {
            AttentionCostPolicy::Dense => "dense",
            AttentionCostPolicy::PageSparseDecode => "page-sparse-decode",
            AttentionCostPolicy::HierarchicalPrefill => "hierarchical-prefill",
        }
    }
}

/// Page-sparse decode's selection FLOPs: scoring every page of a
/// `context_len`-token cache against one query, two landmark dot products
/// of the hidden dimension per page per layer.
fn decode_selection_flops(model: &ModelConfig, context_len: f64) -> f64 {
    let pages = (context_len / DECODE_PAGE_TOKENS as f64).ceil();
    model.num_layers as f64 * 4.0 * (2.0 * pages) * model.hidden_size as f64
}

/// Causally attended (query, key) pairs when every query's context is
/// capped at [`PREFILL_BUDGET_TOKENS`]. Query `j` of `n` (1-based) attends
/// over `min(base + j, budget)` tokens, where `base = total_context - n` is
/// the pre-existing prefix. Closed form of the capped causal sum.
fn capped_attended(new_tokens: f64, total_context: f64) -> f64 {
    let b = PREFILL_BUDGET_TOKENS as f64;
    let base = total_context - new_tokens;
    // Queries 1..=k stay under the budget; the remaining n-k are capped.
    let k = (b - base).clamp(0.0, new_tokens);
    k * base + 0.5 * k * (k + 1.0) + (new_tokens - k) * b
}

/// Hierarchical prefill's selection FLOPs: landmark-scoring every context
/// page once per query block.
fn prefill_selection_flops(model: &ModelConfig, new_tokens: f64, total_context: f64) -> f64 {
    let pages = (total_context / PREFILL_PAGE_TOKENS as f64).ceil();
    let blocks = (new_tokens / PREFILL_PAGE_TOKENS as f64).ceil();
    model.num_layers as f64 * 4.0 * (2.0 * pages * blocks) * model.hidden_size as f64
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
        let p = AttentionCostPolicy::PageSparseDecode;
        let budget = DECODE_TOKEN_BUDGET;
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
        // Selection slope is 2/DECODE_PAGE_TOKENS of the dense slope.
        assert!(f1m / f100k < 5.0, "selection term grew too fast");
    }

    #[test]
    fn page_sparse_never_exceeds_dense() {
        let m = model();
        let p = AttentionCostPolicy::PageSparseDecode;
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
        let h = AttentionCostPolicy::HierarchicalPrefill;
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
            h.decode_attention_flops(&m, 200_000.0),
            m.attention_flops(1.0, 200_000.0)
        );
    }

    #[test]
    fn hierarchical_capped_sum_matches_dense_when_under_budget() {
        // When every context stays under the 8,192-token budget, the
        // capped closed form must equal the dense attended count exactly.
        for (n, c) in [(1_234.0, 5_678.0), (1_234.0, 8_191.0), (8_191.0, 8_191.0)] {
            let dense_attended = n * (c - n) + 0.5 * n * (n + 1.0);
            assert_eq!(capped_attended(n, c), dense_attended, "n={n} c={c}");
        }
        // Past the budget, the last query is capped.
        let (n, c) = (1_234.0, 8_193.0);
        assert!(capped_attended(n, c) < n * (c - n) + 0.5 * n * (n + 1.0));
    }

    #[test]
    fn hierarchical_chunk_reads_less_kv_over_long_prefixes() {
        let h = AttentionCostPolicy::HierarchicalPrefill;
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
        let sparse = AttentionCostPolicy::PageSparseDecode;
        assert_eq!(sparse.label(), "page-sparse-decode");
        assert_eq!(sparse.decode_kv_read_tokens(1e6), DECODE_TOKEN_BUDGET);
        assert_eq!(AttentionCostPolicy::default().label(), "dense");
        assert_eq!(
            AttentionCostPolicy::HierarchicalPrefill.label(),
            "hierarchical-prefill"
        );
        assert_eq!(
            AttentionCostPolicy::Dense.decode_attention_flops(&m, 5_000.0),
            m.attention_flops(1.0, 5_000.0)
        );
        assert_eq!(AttentionCostPolicy::ablation_set().len(), 3);
    }
}
