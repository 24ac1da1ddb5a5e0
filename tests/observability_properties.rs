//! Observer-inertness and determinism properties of the tracing tier.
//!
//! The contract pinned here, matching `DESIGN.md` §Observability tier:
//!
//! * **Armed ≡ disarmed** — threading a [`TraceSink`] through a run (the
//!   no-op sink or a full [`TraceRecorder`]) changes no decision: the
//!   pinned golden digests from `tests/determinism_golden.rs` reproduce
//!   bit-for-bit, and traced fleet runs (`FleetEngine::run` with a
//!   recorder, under failure and under elastic plans) produce outcomes and
//!   footprints identical, field for field, to untraced ones. Observation
//!   is copies of already-computed values, emitted after the decision.
//! * **Deterministic sampling** — the sampled span set is a pure function
//!   of `(seed, permille)`: re-running the same traced workload yields
//!   byte-identical Perfetto JSON and series CSV, and every retained span
//!   belongs to a request the config says is sampled.
//! * **Bounded residency** — after `finalize`, no open-request state
//!   remains, and the ledger's counts agree with the retained vectors.

use loongserve::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;

#[path = "golden_util.rs"]
mod golden_util;
use golden_util::{
    outcome_digest, EngineGolden, LOONGSERVE_MIXED, LOONGSERVE_SHAREGPT, VLLM_SHAREGPT,
};

const PROPTEST_SEED: u64 = 0x0b5e_71ab_0808_2026;

fn ci_config(cases: u32) -> ProptestConfig {
    ProptestConfig {
        cases,
        failure_persistence: Some(FileFailurePersistence::Off),
        rng_seed: PROPTEST_SEED,
    }
}

/// The six router policies — inertness must hold for all of them.
fn policy(idx: usize) -> RouterPolicy {
    match idx {
        0 => RouterPolicy::RoundRobin,
        1 => RouterPolicy::JoinShortestQueue,
        2 => RouterPolicy::LeastKvLoad,
        3 => RouterPolicy::PowerOfTwoChoices { seed: 0xdecade },
        4 => RouterPolicy::PrefixAffinity,
        _ => RouterPolicy::Passthrough,
    }
}

fn fleet(replicas: usize, policy: RouterPolicy, parallel: bool) -> FleetEngine {
    let mut config = FleetConfig::paper_fleet(SystemKind::LoongServe, replicas, policy);
    config.parallel = parallel;
    FleetEngine::new(config)
}

/// Runs `engine` over a materialised trace under `plan`, observed by
/// `recorder` when one is given.
fn run(
    mut engine: FleetEngine,
    trace: &Trace,
    plan: &FleetPlan,
    recorder: Option<&mut TraceRecorder>,
) -> FleetRun {
    let stream = TraceStream::from_trace(trace.clone());
    engine.run(stream, plan, recorder).expect("valid plan")
}

fn crash_schedule(replicas: usize, seed: u64) -> FailureSchedule {
    FailureSchedule::generate(
        replicas,
        SimDuration::from_secs(300.0),
        90.0,
        15.0,
        seed ^ 0xfa11,
    )
}

/// Crash handling of `schedule` over a fixed fleet of `n`: fail-fast,
/// plain exponential backoff, or backoff with a circuit breaker.
fn failure_plan(n: usize, schedule: FailureSchedule, retry_sel: usize) -> FleetPlan {
    let plan = FleetPlan::fixed(n)
        .with_schedule(schedule)
        .with_sla_window(30.0);
    match retry_sel {
        0 => plan,
        1 => plan.with_retry(RetryPolicy::exponential(2, 0.5)),
        _ => plan
            .with_retry(RetryPolicy::exponential(3, 0.25))
            .with_breaker(CircuitBreakerConfig::new(3, 30.0, 120.0)),
    }
}

fn elastic_plan(max_replicas: usize, schedule: FailureSchedule) -> FleetPlan {
    let mut scaler = AutoscalerConfig::overload_defaults(1, max_replicas);
    scaler.control_interval_s = 20.0;
    scaler.cooldown_s = 10.0;
    scaler.provisioning_delay_s = 7.0;
    scaler.scale_up_backlog_tokens = 30_000;
    scaler.scale_down_backlog_tokens = 8_000;
    FleetPlan::new(scaler)
        .with_schedule(schedule)
        .with_retry(RetryPolicy::exponential(2, 0.5))
        .with_sla_window(30.0)
}

/// A mixed-class trace: all three traffic classes, bursty arrivals.
fn mixed_trace(count: usize, seed: u64) -> Trace {
    Trace::generate_mixed_classes(
        ArrivalProcess::Poisson { rate: 3.0 },
        count,
        &MixedClassProfile::overload_mix(),
        &mut SimRng::seed(seed),
    )
}

/// A recorder that keeps every span — the strongest observer.
fn full_recorder() -> TraceRecorder {
    TraceRecorder::new(TraceConfig::sample_all())
}

/// The ledger's internal consistency: retained vectors match their counts
/// and no open-request state survives `finalize`.
fn assert_ledger_consistent(rec: &TraceRecorder) {
    let ledger = rec.ledger();
    assert_eq!(ledger.open_requests, 0, "finalize must close every entry");
    assert_eq!(ledger.spans_recorded, rec.spans().len() as u64);
    assert_eq!(ledger.instants_recorded, rec.instants().len() as u64);
    assert!(ledger.sampled_requests <= ledger.requests_seen);
    assert!(ledger.peak_open_requests >= ledger.open_requests);
}

// ---------------------------------------------------------------------------
// Pinned goldens: the armed-but-no-op sink and the full recorder both
// reproduce the exact digests captured before the tracing tier existed.
// ---------------------------------------------------------------------------

/// The golden run traced through `sink`.
fn traced_digest(golden: &EngineGolden, sink: &mut dyn TraceSink) -> u64 {
    let (trace, system) = golden.setup();
    let mut engine = system.build_engine(Some(&trace));
    outcome_digest(&engine.run_traced(&trace, sink))
}

const PINNED: [EngineGolden; 3] = [LOONGSERVE_SHAREGPT, LOONGSERVE_MIXED, VLLM_SHAREGPT];

#[test]
fn noop_sink_reproduces_pinned_goldens() {
    for golden in &PINNED {
        let (actual, expected) = (traced_digest(golden, &mut NoopSink), golden.digest);
        assert_eq!(
            actual,
            expected,
            "{}: the armed no-op sink moved the golden digest \
             (expected 0x{expected:016x}, got 0x{actual:016x})",
            golden.label()
        );
    }
}

#[test]
fn recording_sink_reproduces_pinned_goldens() {
    for golden in &PINNED {
        let mut rec = full_recorder();
        let (actual, expected) = (traced_digest(golden, &mut rec), golden.digest);
        assert_eq!(
            actual,
            expected,
            "{}: the full recorder moved the golden digest \
             (expected 0x{expected:016x}, got 0x{actual:016x})",
            golden.label()
        );
        // The recorder actually observed the run, not just stayed empty.
        assert!(rec.ledger().requests_seen > 0);
        assert!(!rec.spans().is_empty());
    }
}

// ---------------------------------------------------------------------------
// Property: traced ≡ plain across every run path.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ci_config(8))]

    /// The bare engine under both sinks reproduces the plain outcome
    /// bit for bit, across systems, datasets and seeds.
    #[test]
    fn engine_traced_run_is_inert(
        seed in 0u64..1_000_000,
        count in 10usize..40,
        kind_sel in 0usize..2,
        dataset_sel in 0usize..2,
    ) {
        let kind = if kind_sel == 0 { SystemKind::LoongServe } else { SystemKind::Vllm };
        let dataset = if dataset_sel == 0 { DatasetKind::ShareGpt } else { DatasetKind::Mixed };
        let trace = WorkloadSpec::Dataset(dataset).generate(4.0, count, seed);
        let system = SystemUnderTest::paper_single_node(kind);

        let plain = system.build_engine(Some(&trace)).run(&trace);
        let noop = system.build_engine(Some(&trace)).run_traced(&trace, &mut NoopSink);
        let mut rec = full_recorder();
        let recorded = system.build_engine(Some(&trace)).run_traced(&trace, &mut rec);
        rec.finalize(recorded.sim_time);

        prop_assert_eq!(outcome_digest(&plain), outcome_digest(&noop));
        prop_assert_eq!(outcome_digest(&plain), outcome_digest(&recorded));
        assert_ledger_consistent(&rec);
    }

    /// Traced ≡ untraced under failure injection: crashes, casualties,
    /// retries and breakers resolve identically whether or not a recorder
    /// watches, serial and pooled, for every router policy.
    #[test]
    fn reliable_stream_traced_is_inert(
        seed in 0u64..1_000_000,
        count in 12usize..32,
        replicas in 2usize..4,
        policy_idx in 0usize..6,
        retry_sel in 0usize..3,
        parallel_sel in 0usize..2,
    ) {
        let parallel = parallel_sel == 1;
        let trace = mixed_trace(count, seed);
        let plan = failure_plan(replicas, crash_schedule(replicas, seed), retry_sel);

        let plain = run(fleet(replicas, policy(policy_idx), parallel), &trace, &plan, None);
        let mut rec = full_recorder();
        let engine = fleet(replicas, policy(policy_idx), parallel);
        let traced = run(engine, &trace, &plan, Some(&mut rec));

        prop_assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
        assert_ledger_consistent(&rec);
    }

    /// Traced ≡ untraced under an elastic plan: scale events, drains,
    /// sheds, crash casualties and retries all land identically under
    /// observation.
    #[test]
    fn elastic_stream_traced_is_inert(
        seed in 0u64..1_000_000,
        count in 12usize..32,
        max_replicas in 2usize..4,
        policy_idx in 0usize..6,
        parallel_sel in 0usize..2,
    ) {
        let parallel = parallel_sel == 1;
        let trace = mixed_trace(count, seed);
        let plan = elastic_plan(max_replicas, crash_schedule(max_replicas, seed));

        let plain = run(fleet(max_replicas, policy(policy_idx), parallel), &trace, &plan, None);
        let mut rec = full_recorder();
        let engine = fleet(max_replicas, policy(policy_idx), parallel);
        let traced = run(engine, &trace, &plan, Some(&mut rec));

        prop_assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
        assert_ledger_consistent(&rec);
    }

    /// Sampled spans are a pure function of `(seed, permille)`: running
    /// the same traced workload twice yields byte-identical exports, and
    /// every retained span passes the config's own sampling predicate.
    #[test]
    fn sampled_span_set_is_deterministic_per_seed(
        seed in 0u64..1_000_000,
        count in 16usize..48,
        permille_sel in 0usize..3,
        sample_seed in 0u64..1_000_000,
    ) {
        let cfg = TraceConfig {
            sample_permille: [50, 250, 1000][permille_sel],
            seed: sample_seed,
            ..TraceConfig::default()
        };
        let run = || {
            let trace = mixed_trace(count, seed);
            let plan = failure_plan(2, crash_schedule(2, seed), 2);
            let mut rec = TraceRecorder::new(cfg);
            run(fleet(2, RouterPolicy::JoinShortestQueue, false), &trace, &plan, Some(&mut rec));
            rec
        };
        let a = run();
        let b = run();
        prop_assert_eq!(perfetto_json(&a), perfetto_json(&b));
        prop_assert_eq!(series_csv(&a), series_csv(&b));
        for span in a.spans() {
            prop_assert!(
                cfg.sampled(RequestId(span.id)),
                "span retained for unsampled request {}", span.id
            );
        }
        assert_ledger_consistent(&a);
    }

    /// At permille 1000 the recorder samples every distinct admitted
    /// request: the sampled count equals the ids that reached admission.
    #[test]
    fn full_sampling_covers_every_admitted_request(
        seed in 0u64..1_000_000,
        count in 12usize..32,
        replicas in 2usize..4,
    ) {
        let trace = mixed_trace(count, seed);
        let plan = failure_plan(replicas, crash_schedule(replicas, seed), 1);
        let mut rec = full_recorder();
        let engine = fleet(replicas, RouterPolicy::RoundRobin, false);
        let outcome = run(engine, &trace, &plan, Some(&mut rec));

        // Ids that reached an engine at least once: completed, unfinished,
        // rejected or terminally failed — i.e. everything in the trace.
        let admitted: BTreeSet<u64> = rec.spans().iter().map(|s| s.id).collect();
        prop_assert_eq!(rec.ledger().sampled_requests, admitted.len() as u64);
        prop_assert!(admitted.len() <= trace.len());
        prop_assert!(rec.ledger().requests_seen >= admitted.len() as u64);
        prop_assert_eq!(
            outcome.total_requests(),
            trace.len()
        );
    }
}

// ---------------------------------------------------------------------------
// Attribution and export sanity on concrete runs.
// ---------------------------------------------------------------------------

/// `SystemUnderTest::run_traced` attaches a non-zero attribution to the
/// summary, the attribution's queue+prefill+decode mass covers completed
/// work, and the markdown table renders a totals row.
#[test]
fn run_traced_attaches_time_attribution() {
    let system = SystemUnderTest::paper_single_node(SystemKind::LoongServe);
    let trace = WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(5.0, 40, 42);
    let slo = SloSpec::default_for_lwm();
    let mut rec = full_recorder();
    let (summary, outcome) = system.run_traced(&trace, 5.0, &slo, &mut rec);

    let (plain_summary, plain_outcome) = system.run(&trace, 5.0, &slo);
    assert_eq!(outcome_digest(&outcome), outcome_digest(&plain_outcome));
    assert_eq!(summary.completed, plain_summary.completed);

    assert!(!summary.attribution.is_zero());
    let total = summary.attribution.total();
    assert!(
        total.prefill_s > 0.0,
        "completed prefills must be attributed"
    );
    assert!(total.decode_s > 0.0, "completed decodes must be attributed");
    assert_eq!(total.retry_prefill_s, 0.0, "no crashes here, no retry work");
    assert_eq!(total.downtime_s, 0.0);
    let table = summary.attribution.markdown_table();
    assert!(table.contains("| total |"));
}

/// A crashing reliable run attributes retry prefill and downtime — the
/// "work the fleet paid twice" columns are live.
#[test]
fn crash_retries_attribute_downtime() {
    let trace = Trace::generate(
        DatasetKind::ShareGpt,
        ArrivalProcess::Poisson { rate: 2.0 },
        120,
        &mut SimRng::seed(7),
    );
    let schedule = FailureSchedule::generate(2, SimDuration::from_secs(200.0), 40.0, 10.0, 13);
    let plan = FleetPlan::fixed(2)
        .with_schedule(schedule)
        .with_retry(RetryPolicy::exponential(3, 0.5))
        .with_sla_window(30.0);
    let mut rec = full_recorder();
    let engine = fleet(2, RouterPolicy::JoinShortestQueue, false);
    let outcome = run(engine, &trace, &plan, Some(&mut rec));

    assert!(
        outcome.reliability.recovered_requests > 0,
        "schedule must actually produce retries for this test to bite"
    );
    let total = rec.attribution().total();
    assert!(
        total.downtime_s > 0.0,
        "retries must attribute backoff downtime"
    );
    assert!(
        rec.instants().iter().any(|i| i.name == "crash"),
        "crash instants must be recorded"
    );
    assert!(
        rec.instants().iter().any(|i| i.name == "retry"),
        "retry instants must be recorded"
    );
    assert_ledger_consistent(&rec);
}

/// Zero-permille sampling keeps aggregation alive but retains no spans:
/// the series still fill while the span vector stays empty.
#[test]
fn zero_sampling_still_aggregates_series() {
    let trace = mixed_trace(40, 99);
    let cfg = TraceConfig {
        sample_permille: 0,
        ..TraceConfig::default()
    };
    let mut rec = TraceRecorder::new(cfg);
    let plan = failure_plan(2, crash_schedule(2, 99), 1);
    run(
        fleet(2, RouterPolicy::RoundRobin, false),
        &trace,
        &plan,
        Some(&mut rec),
    );

    assert!(rec.spans().is_empty());
    assert_eq!(rec.ledger().sampled_requests, 0);
    assert!(rec.ledger().requests_seen > 0);
    assert!(
        rec.ledger().series_bins > 0,
        "aggregation must run regardless"
    );
    assert!(!rec.attribution().is_zero(), "attribution is always-on");
}
