//! End-to-end integration tests: full serving runs through the public API.
//!
//! These tests exercise the whole stack — workload generation, the serving
//! engine, the LoongServe global manager, the ESP mechanisms, the KV pool
//! and the metrics — and check the qualitative properties the paper's
//! evaluation reports.

use loongserve::prelude::*;

fn run(
    kind: SystemKind,
    dataset: DatasetKind,
    rate: f64,
    requests: usize,
    seed: u64,
) -> (RunSummary, RunOutcome) {
    let system = SystemUnderTest::paper_single_node(kind);
    let trace = WorkloadSpec::Dataset(dataset).generate(rate, requests, seed);
    system.run(&trace, rate, &SloSpec::default_for_lwm())
}

#[test]
fn loongserve_serves_sharegpt_to_completion() {
    let (summary, outcome) = run(SystemKind::LoongServe, DatasetKind::ShareGpt, 5.0, 80, 11);
    assert_eq!(summary.completed, 80, "all requests should finish");
    assert_eq!(outcome.unfinished, 0);
    assert!(outcome.rejected.is_empty());
    assert!(summary.throughput_tokens_per_s > 0.0);
    // Every record must be causally consistent.
    for r in &outcome.records {
        assert!(r.validate().is_ok(), "{:?}", r);
    }
}

#[test]
fn loongserve_serves_long_context_workloads() {
    let (summary, outcome) = run(SystemKind::LoongServe, DatasetKind::LvEval, 0.05, 25, 13);
    assert_eq!(summary.completed, 25);
    assert_eq!(outcome.unfinished, 0);
    // Long-context prefills dominate: normalised input latency stays well
    // below one second per token even for ~100K+ prompts.
    assert!(
        summary.input_latency.mean < 1.0,
        "input latency {}",
        summary.input_latency.mean
    );
}

#[test]
fn loongserve_uses_elastic_scaling_on_mixed_workload() {
    let (_summary, outcome) = run(SystemKind::LoongServe, DatasetKind::Mixed, 0.3, 80, 17);
    // Mixed workloads have long prefills followed by light decode phases, so
    // proactive scale-downs must happen.
    let downs = outcome
        .scaling_events
        .iter()
        .filter(|e| e.kind == ScalingEventKind::ProactiveScaleDown)
        .count();
    assert!(
        downs > 0,
        "expected proactive scale-downs on the mixed workload"
    );
}

#[test]
fn runs_are_deterministic_for_a_fixed_seed() {
    let (a_summary, a_outcome) = run(SystemKind::LoongServe, DatasetKind::Mixed, 0.2, 40, 23);
    let (b_summary, b_outcome) = run(SystemKind::LoongServe, DatasetKind::Mixed, 0.2, 40, 23);
    assert_eq!(a_summary, b_summary);
    assert_eq!(a_outcome.records, b_outcome.records);
    assert_eq!(a_outcome.iterations, b_outcome.iterations);
}

#[test]
fn higher_load_never_improves_latency() {
    let (low, _) = run(SystemKind::LoongServe, DatasetKind::LEval, 0.2, 40, 29);
    let (high, _) = run(SystemKind::LoongServe, DatasetKind::LEval, 2.0, 40, 29);
    assert!(
        high.per_token_latency.mean >= low.per_token_latency.mean * 0.9,
        "latency at high load ({}) should not be meaningfully lower than at low load ({})",
        high.per_token_latency.mean,
        low.per_token_latency.mean
    );
}

#[test]
fn sweep_produces_monotone_slo_curve_shape() {
    let system = SystemUnderTest::paper_single_node(SystemKind::LoongServe);
    let config = SweepConfig {
        workload: WorkloadSpec::Dataset(DatasetKind::ShareGpt),
        rates: vec![1.0, 10.0, 40.0],
        requests_per_run: 50,
        slo: SloSpec::default_for_lwm(),
        seed: 31,
    };
    let result = sweep_system(&system, &config);
    assert_eq!(result.summaries.len(), 3);
    assert_eq!(result.slo_curve.len(), 3);
    // Attainment at the lowest rate should be at least as good as at the
    // highest rate.
    let first = result.slo_curve.first().unwrap().attainment;
    let last = result.slo_curve.last().unwrap().attainment;
    assert!(
        first >= last - 1e-9,
        "attainment should not improve with load: {first} vs {last}"
    );
}

#[test]
fn two_node_cluster_serves_more_load_than_one() {
    let trace = WorkloadSpec::Dataset(DatasetKind::Mixed).generate(0.5, 60, 37);
    let slo = SloSpec::default_for_lwm();
    let single = SystemUnderTest::paper_single_node(SystemKind::LoongServe);
    let double = SystemUnderTest::paper_two_node(SystemKind::LoongServe);
    let (s1, _) = single.run(&trace, 0.5, &slo);
    let (s2, _) = double.run(&trace, 0.5, &slo);
    assert_eq!(s1.completed, 60);
    assert_eq!(s2.completed, 60);
    // Twice the GPUs should not be slower end to end.
    assert!(
        s2.per_token_latency.mean <= s1.per_token_latency.mean * 1.1,
        "16 GPUs ({}) should be at least as fast as 8 ({})",
        s2.per_token_latency.mean,
        s1.per_token_latency.mean
    );
}

#[test]
fn engine_respects_sim_time_cap() {
    let trace = WorkloadSpec::Dataset(DatasetKind::LvEval).generate(0.1, 30, 41);
    let outcome = SystemUnderTest::paper_single_node(SystemKind::LoongServe)
        .with_max_sim_time(SimDuration::from_secs(1.0))
        .build_engine(Some(&trace))
        .run(&trace);
    assert!(outcome.records.len() + outcome.unfinished + outcome.rejected.len() == 30);
    assert!(
        outcome.unfinished > 0,
        "a 1-second cap cannot finish 30 long-context requests"
    );
}

#[test]
fn identical_runs_reproduce_bit_for_bit() {
    // The whole repository's reproducibility story rests on engine runs
    // being a pure function of (system, trace, slo). Run every system twice
    // on the same trace and require identical summaries and records —
    // this catches any hash-order dependence sneaking into a scheduler.
    let slo = SloSpec::default_for_lwm();
    let trace = WorkloadSpec::Dataset(DatasetKind::Mixed).generate(0.5, 40, 17);
    for kind in [
        SystemKind::LoongServe,
        SystemKind::Vllm,
        SystemKind::LightLlmSplitFuse,
        SystemKind::DistServe,
    ] {
        let (s1, o1) = SystemUnderTest::paper_single_node(kind).run(&trace, 0.5, &slo);
        let (s2, o2) = SystemUnderTest::paper_single_node(kind).run(&trace, 0.5, &slo);
        assert_eq!(s1, s2, "{kind:?}: summaries differ between identical runs");
        assert_eq!(
            o1.records, o2.records,
            "{kind:?}: request records differ between identical runs"
        );
        assert_eq!(o1.rejected, o2.rejected);
        assert_eq!(o1.unfinished, o2.unfinished);
    }
}
