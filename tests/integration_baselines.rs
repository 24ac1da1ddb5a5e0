//! Integration tests comparing LoongServe with the baseline systems.
//!
//! These encode the qualitative claims of the paper's evaluation (§7.2):
//! LoongServe protects the decode phase better than vLLM, beats chunked
//! prefill on long-context work, and — unlike DistServe — can serve requests
//! that exceed half the cluster's memory.

use loongserve::prelude::*;

fn run_on_trace(kind: SystemKind, trace: &Trace, rate: f64) -> (RunSummary, RunOutcome) {
    let system = SystemUnderTest::paper_single_node(kind);
    system.run(trace, rate, &SloSpec::default_for_lwm())
}

#[test]
fn every_figure10_system_serves_a_light_sharegpt_load() {
    let trace = WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(2.0, 60, 51);
    for kind in SystemKind::figure10_systems() {
        let (summary, outcome) = run_on_trace(kind, &trace, 2.0);
        assert_eq!(
            summary.completed + outcome.rejected.len() + outcome.unfinished,
            60,
            "{}: request accounting is broken",
            kind.label()
        );
        assert!(
            summary.completed >= 55,
            "{}: only {} of 60 short requests completed under light load",
            kind.label(),
            summary.completed
        );
    }
}

#[test]
fn loongserve_protects_decode_phase_better_than_vllm() {
    // Mixed workload: long prefills interleave with decodes. vLLM's single
    // static engine stalls decodes behind prefills; LoongServe separates
    // them onto different instance groups.
    let trace = WorkloadSpec::Dataset(DatasetKind::Mixed).generate(0.3, 70, 53);
    let (loong, _) = run_on_trace(SystemKind::LoongServe, &trace, 0.3);
    let (vllm, _) = run_on_trace(SystemKind::Vllm, &trace, 0.3);
    assert!(
        loong.output_latency.mean < vllm.output_latency.mean,
        "LoongServe output latency {} should beat vLLM {}",
        loong.output_latency.mean,
        vllm.output_latency.mean
    );
}

#[test]
fn loongserve_beats_chunked_prefill_on_long_contexts() {
    let trace = WorkloadSpec::Dataset(DatasetKind::LEval).generate(0.5, 50, 59);
    let (loong, _) = run_on_trace(SystemKind::LoongServe, &trace, 0.5);
    let (splitfuse, _) = run_on_trace(SystemKind::LightLlmSplitFuse, &trace, 0.5);
    // Chunking the prompt repeatedly re-reads the KV prefix, so the prefill
    // phase (normalised input latency) must be slower than LoongServe's.
    assert!(
        loong.input_latency.mean < splitfuse.input_latency.mean,
        "LoongServe input latency {} should beat SplitFuse {}",
        loong.input_latency.mean,
        splitfuse.input_latency.mean
    );
}

#[test]
fn distserve_rejects_what_the_unified_pool_can_serve() {
    // A request bigger than half the cluster's KV but smaller than the whole
    // pool: DistServe (each phase confined to half the GPUs) must reject it,
    // LoongServe serves it.
    let single_instance_capacity = SystemUnderTest::paper_single_node(SystemKind::LoongServe)
        .engine_config()
        .instance_kv_capacity();
    let big = single_instance_capacity * 3; // fits in 4 instances, not in 2.
    let request = Request::with_max_output(RequestId(0), SimTime::ZERO, big, 16, 16);
    let trace = Trace::from_requests("oversized", vec![request]);

    let (loong, loong_out) = run_on_trace(SystemKind::LoongServe, &trace, 0.01);
    assert_eq!(
        loong.completed, 1,
        "LoongServe should serve the request via the unified pool"
    );
    assert!(loong_out.rejected.is_empty());

    let (dist, dist_out) = run_on_trace(SystemKind::DistServe, &trace, 0.01);
    assert_eq!(dist.completed, 0);
    assert_eq!(
        dist_out.rejected.len(),
        1,
        "DistServe must reject: each half lacks the memory"
    );
}

#[test]
fn replicated_instances_reject_long_requests_that_static_hybrid_serves() {
    // The Figure 12 ablation: replication (TP=2 x 4) is capped by a single
    // replica's memory; static hybrid SP shares the whole pool.
    let per_instance = SystemUnderTest::paper_single_node(SystemKind::Replicated)
        .engine_config()
        .instance_kv_capacity();
    let big = per_instance + per_instance / 2;
    let request = Request::with_max_output(RequestId(0), SimTime::ZERO, big, 16, 16);
    let trace = Trace::from_requests("oversized", vec![request]);

    let (replicated, replicated_out) = run_on_trace(SystemKind::Replicated, &trace, 0.01);
    assert_eq!(replicated.completed, 0);
    assert_eq!(replicated_out.rejected.len(), 1);

    let (hybrid, hybrid_out) = run_on_trace(SystemKind::StaticHybrid, &trace, 0.01);
    assert_eq!(
        hybrid.completed, 1,
        "static SP over all instances has the memory"
    );
    assert!(hybrid_out.rejected.is_empty());
}

#[test]
fn distserve_pays_migration_bytes_loongserve_avoids() {
    let trace = WorkloadSpec::Dataset(DatasetKind::LEval).generate(0.3, 30, 61);
    let (_, dist_out) = run_on_trace(SystemKind::DistServe, &trace, 0.3);
    let (_, loong_out) = run_on_trace(SystemKind::LoongServe, &trace, 0.3);
    assert!(
        dist_out.migration_bytes > 0.0,
        "disaggregation must migrate KV at every phase transition"
    );
    assert!(
        loong_out.migration_bytes < dist_out.migration_bytes,
        "LoongServe ({} B) should migrate less than DistServe ({} B)",
        loong_out.migration_bytes,
        dist_out.migration_bytes
    );
}

#[test]
fn scale_up_ablation_changes_behaviour_under_heavy_decode_load() {
    // Figure 13a: on ShareGPT (short prompts, long outputs) at high rates,
    // disabling elastic scale-up hurts decode latency or SLO attainment.
    let rate = 40.0;
    let trace = WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(rate, 250, 67);
    let (with, with_out) = run_on_trace(SystemKind::LoongServe, &trace, rate);
    let (without, _) = run_on_trace(SystemKind::LoongServeNoScaleUp, &trace, rate);
    let scale_ups = with_out
        .scaling_events
        .iter()
        .filter(|e| e.kind == ScalingEventKind::ScaleUp)
        .count();
    assert!(
        with.output_latency.mean <= without.output_latency.mean * 1.05 || scale_ups > 0,
        "scale-up should not make decoding worse (with {}, without {})",
        with.output_latency.mean,
        without.output_latency.mean
    );
}
