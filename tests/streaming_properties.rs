//! Properties of the fleet-scale execution paths: pooled (parallel) era
//! execution and the streamed frontend's footprint.
//!
//! Two contracts are pinned here, matching `DESIGN.md` §Fleet-scale
//! execution:
//!
//! * **Parallel ≡ serial** — with `FleetConfig::parallel` flipped on, the
//!   bounded worker pool executes era segments concurrently but merges
//!   them in replica-id order, so runs under crash schedules (retries,
//!   breakers, scale events and all) reproduce the serial outcome bit for
//!   bit.
//! * **Footprint accounting** — era boundaries flush the routed buckets,
//!   so the [`FleetFootprint`] resident high-water of a boundary-rich run
//!   stays far below the stream length.
//!
//! Streamed ≡ materialised needs no property: [`FleetEngine::run`] is the
//! only run path and always consumes a [`TraceStream`] — a materialised
//! trace goes through `TraceStream::from_trace`. The generator-level
//! bit-identity (stream vs. batch sampling) is pinned in
//! `crates/workload/src/stream.rs`.

use loongserve::prelude::*;
use proptest::prelude::*;

const PROPTEST_SEED: u64 = 0x57e8_a811_0808_2026;

fn ci_config(cases: u32) -> ProptestConfig {
    ProptestConfig {
        cases,
        failure_persistence: Some(FileFailurePersistence::Off),
        rng_seed: PROPTEST_SEED,
    }
}

/// The six router policies, passthrough included — every equivalence here
/// must hold for all of them.
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

/// Runs `engine` over a materialised trace under `plan`.
fn run(mut engine: FleetEngine, trace: &Trace, plan: &FleetPlan) -> FleetRun {
    let stream = TraceStream::from_trace(trace.clone());
    engine.run(stream, plan, None).expect("valid plan")
}

/// A crash schedule dense enough to exercise several eras within the
/// simulated horizon.
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

proptest! {
    #![proptest_config(ci_config(8))]

    /// Pooled era execution ≡ serial under failure injection: crashes,
    /// casualties and retries resolve identically when the capped era
    /// segments run on the worker pool.
    #[test]
    fn parallel_and_serial_reliable_runs_agree(
        seed in 0u64..1_000_000,
        count in 12usize..32,
        replicas in 2usize..4,
        policy_idx in 0usize..6,
        retry_sel in 0usize..3,
    ) {
        let trace = Trace::generate(
            DatasetKind::ShareGpt,
            ArrivalProcess::Poisson { rate: 6.0 },
            count,
            &mut SimRng::seed(seed),
        );
        let plan = failure_plan(replicas, crash_schedule(replicas, seed), retry_sel);
        let serial = run(fleet(replicas, policy(policy_idx), false), &trace, &plan);
        let pooled = run(fleet(replicas, policy(policy_idx), true), &trace, &plan);
        prop_assert_eq!(format!("{serial:?}"), format!("{pooled:?}"));
    }

    /// Pooled era execution ≡ serial under autoscaling and crashes: crash
    /// boundaries, observation probes, drains and final segments all run
    /// through the pool without moving a bit.
    #[test]
    fn parallel_and_serial_elastic_runs_agree(
        seed in 0u64..1_000_000,
        count in 12usize..32,
        max_replicas in 2usize..4,
        policy_idx in 0usize..6,
    ) {
        let trace = Trace::generate(
            DatasetKind::ShareGpt,
            ArrivalProcess::Poisson { rate: 6.0 },
            count,
            &mut SimRng::seed(seed),
        );
        let plan = elastic_plan(max_replicas, crash_schedule(max_replicas, seed));
        let serial = run(fleet(max_replicas, policy(policy_idx), false), &trace, &plan);
        let pooled = run(fleet(max_replicas, policy(policy_idx), true), &trace, &plan);
        prop_assert_eq!(format!("{serial:?}"), format!("{pooled:?}"));
    }
}

/// Boundary-rich schedules flush buckets at every era, so the resident
/// high-water stays strictly below the stream length — the O(active +
/// pending-retries) memory claim, pinned on a concrete workload.
#[test]
fn era_boundaries_bound_the_resident_footprint() {
    // Arrivals spread over ~400s with a crash roughly every 40s: many
    // eras, each draining its buckets before the next fills.
    let trace = Trace::generate(
        DatasetKind::ShareGpt,
        ArrivalProcess::Poisson { rate: 0.5 },
        200,
        &mut SimRng::seed(11),
    );
    let schedule = FailureSchedule::generate(2, SimDuration::from_secs(400.0), 40.0, 10.0, 77);
    let plan = failure_plan(2, schedule, 1);
    let outcome = run(
        fleet(2, RouterPolicy::JoinShortestQueue, false),
        &trace,
        &plan,
    );
    let footprint = outcome.footprint;
    assert_eq!(outcome.total_requests(), trace.len());
    assert_eq!(footprint.streamed_requests, trace.len());
    assert!(
        footprint.peak_resident_requests < trace.len() / 2,
        "era boundaries must flush buckets: peak {} vs {} streamed",
        footprint.peak_resident_requests,
        trace.len()
    );
}
