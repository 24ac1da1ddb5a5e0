//! Properties of the attention-cost policy tier.
//!
//! Three contracts pin the tier (crates/model/src/attention.rs):
//!
//! * **Dense neutrality** — selecting `AttentionCostPolicy::Dense`
//!   *explicitly* reproduces every pinned golden digest bit-for-bit across
//!   the engine, fleet, reliable and elastic paths. The policy plumbing
//!   (builder, config threading, re-routed FLOP/KV terms) must be invisible
//!   when the policy is the paper's dense attention.
//! * **Monotonicity** — no sparse policy ever charges more than dense for
//!   the same batch (the modelled kernels fall back to the dense path when
//!   the context fits the budget), and page-sparse decode cost is flat in
//!   context length beyond its token budget.
//! * **Determinism** — identically seeded runs under any sparse policy
//!   agree bit-for-bit, and still drain their traces to completion.

use loongserve::prelude::*;
use proptest::prelude::*;

#[path = "golden_util.rs"]
mod golden_util;
use golden_util::{
    fleet_digest, outcome_digest, EngineGolden, FLEET_2X_ROUND_ROBIN, FLEET_4X_JSQ,
    LOONGSERVE_MIXED, LOONGSERVE_SHAREGPT, VLLM_SHAREGPT,
};

/// Fixed RNG seed so CI runs are bit-for-bit reproducible.
const PROPTEST_SEED: u64 = 0x5041_5253_4552_0a17;

fn ci_config(cases: u32) -> ProptestConfig {
    ProptestConfig {
        cases,
        failure_persistence: Some(FileFailurePersistence::Off),
        rng_seed: PROPTEST_SEED,
    }
}

// ---------------------------------------------------------------------------
// Dense neutrality: the pinned goldens of `golden_util.rs`, reproduced with
// the policy selected explicitly.
// ---------------------------------------------------------------------------

fn sharegpt_trace(rate: f64, count: usize, seed: u64) -> Trace {
    WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(rate, count, seed)
}

/// An explicitly Dense fleet's run of the 80-request golden trace at
/// `rate` under `plan`.
fn dense_run(replicas: usize, policy: RouterPolicy, rate: f64, plan: &FleetPlan) -> FleetRun {
    let mut config = FleetConfig::paper_fleet(SystemKind::LoongServe, replicas, policy);
    // Redundant on purpose: select the default explicitly to prove the
    // explicit path is the golden path.
    config.attention = AttentionCostPolicy::Dense;
    let stream = TraceStream::from_trace(sharegpt_trace(rate, 80, 4242));
    FleetEngine::new(config)
        .run(stream, plan, None)
        .expect("valid plan")
}

/// The digest of `golden`'s run under the attention `policy`.
fn digest_with_policy(golden: &EngineGolden, policy: AttentionCostPolicy) -> u64 {
    let (trace, system) = golden.setup();
    let mut engine = system.with_attention(policy).build_engine(Some(&trace));
    outcome_digest(&engine.run(&trace))
}

#[test]
fn explicit_dense_reproduces_engine_goldens() {
    for golden in [LOONGSERVE_SHAREGPT, LOONGSERVE_MIXED, VLLM_SHAREGPT] {
        assert_eq!(
            digest_with_policy(&golden, AttentionCostPolicy::Dense),
            golden.digest,
            "{}: explicit Dense diverged from the pinned golden",
            golden.label()
        );
    }
}

#[test]
fn explicit_dense_reproduces_fleet_goldens() {
    let outcome = dense_run(2, RouterPolicy::RoundRobin, 12.0, &FleetPlan::fixed(2)).fleet;
    assert_eq!(
        fleet_digest(&outcome),
        FLEET_2X_ROUND_ROBIN.digest,
        "explicit Dense moved the 2x round-robin fleet golden"
    );
    let outcome = dense_run(
        4,
        RouterPolicy::JoinShortestQueue,
        24.0,
        &FleetPlan::fixed(4),
    )
    .fleet;
    assert_eq!(
        fleet_digest(&outcome),
        FLEET_4X_JSQ.digest,
        "explicit Dense moved the 4x JSQ fleet golden"
    );
}

#[test]
fn explicit_dense_reproduces_reliable_golden() {
    let plan = FleetPlan::fixed(2)
        .with_retry(RetryPolicy::exponential(3, 0.5))
        .with_breaker(CircuitBreakerConfig::new(3, 60.0, 120.0));
    let outcome = dense_run(2, RouterPolicy::RoundRobin, 12.0, &plan);
    assert_eq!(
        fleet_digest(&outcome.fleet),
        FLEET_2X_ROUND_ROBIN.digest,
        "explicit Dense moved the armed-idle reliable golden"
    );
}

#[test]
fn explicit_dense_reproduces_elastic_golden() {
    let outcome = dense_run(2, RouterPolicy::RoundRobin, 12.0, &FleetPlan::armed_idle(2));
    assert_eq!(
        fleet_digest(&outcome.fleet),
        FLEET_2X_ROUND_ROBIN.digest,
        "explicit Dense moved the armed-idle elastic golden"
    );
}

// ---------------------------------------------------------------------------
// Monotonicity and saturation of the sparse policies, over random batches.
// ---------------------------------------------------------------------------

fn cost_models() -> (CostModel, Vec<CostModel>) {
    let dense = CostModel::builder(ModelConfig::lwm_1m_text()).build();
    let sparse = vec![
        CostModel::builder(ModelConfig::lwm_1m_text())
            .attention(AttentionCostPolicy::PageSparseDecode)
            .build(),
        CostModel::builder(ModelConfig::lwm_1m_text())
            .attention(AttentionCostPolicy::HierarchicalPrefill)
            .build(),
    ];
    (dense, sparse)
}

proptest! {
    #![proptest_config(ci_config(64))]

    /// No sparse policy ever prices a prefill, decode or chunked-prefill
    /// iteration above dense for the same batch and group shape.
    #[test]
    fn sparse_cost_never_exceeds_dense(
        lens in proptest::collection::vec(1u64..600_000, 1..12),
        tp_idx in 0usize..3,
        sp_idx in 0usize..3,
        masters_sel in 0usize..2,
        chunk in 1u64..8_192,
        processed in 0u64..400_000,
    ) {
        let (dense, sparse_models) = cost_models();
        let parallel = ParallelConfig::new([1, 2, 4][tp_idx], [1, 2, 4][sp_idx]);
        let link = LinkSpec::nvlink_a800();
        let masters = if masters_sel == 0 { 1 } else { parallel.sp };
        for cm in &sparse_models {
            let label = cm.attention().label();
            let (s, d) = (
                cm.prefill_cost(&lens, parallel, link).total(),
                dense.prefill_cost(&lens, parallel, link).total(),
            );
            prop_assert!(s <= d + 1e-12, "{label} prefill {s} > dense {d}");
            let (s, d) = (
                cm.decode_cost(&lens, parallel, masters, link).total(),
                dense.decode_cost(&lens, parallel, masters, link).total(),
            );
            prop_assert!(s <= d + 1e-12, "{label} decode {s} > dense {d}");
            let (s, d) = (
                cm.chunked_prefill_cost(chunk, processed, &lens, parallel, link).total(),
                dense.chunked_prefill_cost(chunk, processed, &lens, parallel, link).total(),
            );
            prop_assert!(s <= d + 1e-12, "{label} chunked {s} > dense {d}");
        }
    }

    /// Page-sparse decode cost is flat in context beyond the token budget:
    /// any two contexts past the budget price identically (the KV-read cap
    /// dominates the bandwidth-bound roofline; the selection FLOPs stay
    /// orders of magnitude below it).
    #[test]
    fn page_sparse_decode_is_flat_beyond_the_budget(
        c1 in 5_000u64..1_000_000,
        c2 in 5_000u64..1_000_000,
        batch in 1usize..16,
        sp_idx in 0usize..3,
    ) {
        let cm = CostModel::builder(ModelConfig::lwm_1m_text())
            .attention(AttentionCostPolicy::PageSparseDecode)
            .build();
        let parallel = ParallelConfig::new(2, [1, 2, 4][sp_idx]);
        let link = LinkSpec::nvlink_a800();
        let t1 = cm.decode_cost(&vec![c1; batch], parallel, 1, link).total();
        let t2 = cm.decode_cost(&vec![c2; batch], parallel, 1, link).total();
        prop_assert!(
            (t1 - t2).abs() / t1 < 1e-6,
            "decode cost moved past the budget: {t1} at {c1} vs {t2} at {c2}"
        );
    }

    /// Both saturation helpers respect the policy and stay consistent with
    /// their context-free forms at context zero.
    #[test]
    fn context_aware_helpers_are_consistent(
        tp_idx in 0usize..3,
        sp_idx in 0usize..3,
        context in 0u64..1_000_000,
    ) {
        let (dense, sparse_models) = cost_models();
        let tp = [1, 2, 4][tp_idx];
        let parallel = ParallelConfig::new(tp, [1, 2, 4][sp_idx]);
        for cm in std::iter::once(&dense).chain(&sparse_models) {
            prop_assert_eq!(
                cm.prefill_saturation_tokens(parallel),
                cm.prefill_saturation_tokens_at_context(parallel, 0)
            );
            prop_assert_eq!(
                cm.decode_compute_bound_batch_size(tp),
                cm.decode_compute_bound_batch_size_at_context(tp, 0).unwrap()
            );
            // More processed context never *raises* the saturation point.
            prop_assert!(
                cm.prefill_saturation_tokens_at_context(parallel, context)
                    <= cm.prefill_saturation_tokens(parallel)
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Determinism and liveness of full engine runs under the sparse policies.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ci_config(4))]

    /// Identically seeded engine runs under each sparse policy agree
    /// bit-for-bit, and the run drains its trace.
    #[test]
    fn sparse_engine_runs_are_deterministic_and_complete(
        seed in 0u64..1_000_000,
        count in 15usize..30,
        policy_idx in 0usize..2,
    ) {
        let policy = [
            AttentionCostPolicy::PageSparseDecode,
            AttentionCostPolicy::HierarchicalPrefill,
        ][policy_idx];
        let trace = sharegpt_trace(6.0, count, seed);
        let run = || {
            let system = SystemUnderTest::paper_single_node(SystemKind::LoongServe)
                .with_attention(policy);
            let mut engine = system.build_engine(Some(&trace));
            engine.run(&trace)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(outcome_digest(&a), outcome_digest(&b));
        prop_assert_eq!(a.unfinished, 0, "sparse runs must still drain the trace");
        prop_assert_eq!(a.records.len() + a.rejected.len(), trace.len());
    }
}

#[test]
fn sparse_policies_change_behaviour_when_contexts_are_long() {
    // The policy is not a no-op: on a long-context workload the page-sparse
    // run must diverge from dense (cheaper decode iterations change
    // timestamps and scheduling decisions).
    let dense = digest_with_policy(&LOONGSERVE_MIXED, AttentionCostPolicy::Dense);
    let sparse = digest_with_policy(&LOONGSERVE_MIXED, AttentionCostPolicy::PageSparseDecode);
    assert_ne!(
        dense, sparse,
        "page-sparse decode should alter long-context runs"
    );
}
