//! Properties of the KV memory-pressure subsystem.
//!
//! These tests drive constrained-capacity engines through a sustained
//! bursty overload (the MMPP arrival process) and assert the subsystem's
//! contract:
//!
//! * **Termination** — both victim policies finish the trace: no deadlock
//!   or livelock, every request completes (none rejected, none unfinished)
//!   well before the watchdog sim-time cap.
//! * **Conservation** — request accounting balances and every completed
//!   record has causally ordered timestamps; ids complete exactly once.
//! * **Policy behaviour** — the recompute policy re-prefills preempted
//!   requests (preemptions observed engine-side and on the records), while
//!   the swap policy restores KV from the host tier without recompute
//!   (swap traffic observed, zero preemptions, every swap-out matched by a
//!   swap-in).
//! * **Zero-pressure neutrality** — a pressure-armed engine that never
//!   crosses a watermark (conservative reservation, ample capacity) is
//!   bit-for-bit identical to the plain engine; the pinned goldens in
//!   `tests/determinism_golden.rs` pin the disabled case.
//! * **Determinism** — identically seeded overload runs digest identically.
//! * **Failure composition** — an MMPP burst arriving while a replica is
//!   down per a [`FailureSchedule`] concentrates on the survivors' starved
//!   pools and still drains: pressure, retry re-routing and the casualty
//!   ledger compose without wedging (`tests/reliability_properties.rs`
//!   owns the tier's own contracts).

use loongserve::prelude::*;

#[path = "golden_util.rs"]
mod golden_util;
use golden_util::outcome_digest;

/// Watchdog: overload runs must finish far below this simulated horizon; a
/// livelocking policy would instead spin events until the cap and leave
/// requests unfinished, failing the assertions below.
const WATCHDOG_S: f64 = 200_000.0;

/// A bursty MMPP overload trace of ShareGPT-length requests: ~40 req/s
/// bursts against single-digit sustainable capacity at the tiny KV pools
/// used below.
fn overload_trace(count: usize, seed: u64) -> Trace {
    let mut rng = SimRng::seed(seed);
    Trace::generate(
        DatasetKind::ShareGpt,
        ArrivalProcess::MarkovModulated {
            rate_high: 40.0,
            rate_low: 2.0,
            mean_high_secs: 3.0,
            mean_low_secs: 3.0,
        },
        count,
        &mut rng,
    )
}

/// Builds a constrained-capacity engine with the given pressure mode and a
/// watchdog sim-time cap, through the same `build_engine` path production
/// callers use.
fn pressure_engine(kind: SystemKind, mode: PressureMode, capacity: u64) -> ServingEngine {
    SystemUnderTest::paper_single_node(kind)
        .with_pressure(mode)
        .with_kv_capacity(capacity)
        .with_max_sim_time(SimDuration::from_secs(WATCHDOG_S))
        .build_engine(None)
}

/// The plain fleet's outcome over a materialised trace.
fn run_plain(fleet: &mut FleetEngine, trace: &Trace) -> FleetOutcome {
    let plan = FleetPlan::fixed(fleet.config().replicas);
    let stream = TraceStream::from_trace(trace.clone());
    fleet.run(stream, &plan, None).expect("valid plan").fleet
}

/// Asserts the conservation and causality properties shared by every run.
fn check_conserved(outcome: &RunOutcome, trace: &Trace) {
    assert_eq!(
        outcome.records.len() + outcome.rejected.len() + outcome.unfinished,
        trace.len(),
        "every request is completed, rejected or unfinished exactly once"
    );
    for pair in outcome.records.windows(2) {
        assert!(pair[0].id < pair[1].id, "records sorted, ids unique");
    }
    for r in &outcome.records {
        r.validate().expect("causally ordered record");
    }
    assert!(
        outcome.sim_time < SimTime::from_secs(WATCHDOG_S),
        "run must finish well before the watchdog cap (no livelock)"
    );
}

#[test]
fn recompute_policy_survives_overload_and_reprefills_victims() {
    let trace = overload_trace(120, 21);
    let mut engine = pressure_engine(SystemKind::Vllm, PressureMode::Recompute, 6_000);
    let outcome = engine.run(&trace);
    check_conserved(&outcome, &trace);
    assert_eq!(outcome.unfinished, 0, "overload must drain completely");
    assert!(
        outcome.pressure.preemptions > 0,
        "the constrained pool must actually trigger preemptions"
    );
    let record_preemptions: u64 = outcome
        .records
        .iter()
        .map(|r| u64::from(r.preemptions))
        .sum();
    assert!(
        record_preemptions >= outcome.pressure.preemptions,
        "preempted requests completed after re-prefilling"
    );
    // Recompute never touches the host tier.
    assert_eq!(outcome.pressure.swap_out_events, 0);
    assert_eq!(outcome.pressure.swap_out_bytes, 0.0);
}

#[test]
fn swap_policy_survives_overload_and_restores_without_recompute() {
    let trace = overload_trace(120, 21);
    let mut engine = pressure_engine(SystemKind::LoongServe, PressureMode::SwapToHost, 1_500);
    let outcome = engine.run(&trace);
    check_conserved(&outcome, &trace);
    assert_eq!(outcome.unfinished, 0, "overload must drain completely");
    assert!(
        outcome.pressure.swap_out_events > 0,
        "the constrained pool must actually trigger swap-outs"
    );
    assert_eq!(
        outcome.pressure.swap_in_events, outcome.pressure.swap_out_events,
        "every swapped request is restored (KV preserved, no recompute)"
    );
    assert_eq!(
        outcome.pressure.preemptions, 0,
        "with an ample host tier the swap policy never falls back to recompute"
    );
    assert!(outcome.pressure.swap_out_bytes > 0.0);
    assert!((outcome.pressure.swap_in_bytes - outcome.pressure.swap_out_bytes).abs() < 1e-6);
    assert!(outcome.pressure.swap_stall_s > 0.0);
    assert!(outcome.pressure.max_outstanding_swapped_tokens > 0);
}

#[test]
fn overload_runs_are_deterministic() {
    let trace = overload_trace(60, 5);
    for (kind, mode, capacity) in [
        (SystemKind::Vllm, PressureMode::Recompute, 6_000),
        (SystemKind::LoongServe, PressureMode::SwapToHost, 1_500),
    ] {
        let a = pressure_engine(kind, mode, capacity).run(&trace);
        let b = pressure_engine(kind, mode, capacity).run(&trace);
        assert_eq!(
            outcome_digest(&a),
            outcome_digest(&b),
            "{kind:?}/{mode:?}: identical seeds must digest identically"
        );
    }
}

#[test]
fn armed_but_unpressured_engine_is_bit_for_bit_the_plain_engine() {
    // A pressure config with the conservative (factor 1.0) reservation and
    // ample capacity never crosses a watermark, so the armed engine must
    // reproduce the plain engine's outcome exactly — the strongest form of
    // the zero-cost-when-disabled invariant (the disabled case itself is
    // pinned by tests/determinism_golden.rs).
    let trace = WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(6.0, 60, 97);
    let conservative = PressureConfig {
        output_reserve_factor: 1.0,
        ..PressureConfig::swap_to_host()
    };
    let build_armed = || {
        let system = SystemUnderTest::paper_single_node(SystemKind::LoongServe);
        let tp = SystemKind::LoongServe.tp(system.cluster.gpus_per_node);
        let config = EngineConfig {
            cluster: system.cluster.clone(),
            tp,
            model: system.model.clone(),
            workspace_fraction: 0.10,
            sib_noise: 0.01,
            seed: system.seed,
            max_sim_time: None,
            host_swap: Some(HostSwapConfig::from_cluster(
                &system.cluster,
                &system.model,
                0.5,
            )),
            kv_capacity_override: None,
            prefix_cache: None,
            attention: system.attention,
        };
        let scheduler = Box::new(LoongServeScheduler::new().with_pressure(conservative));
        ServingEngine::new(config, scheduler)
    };
    let armed = build_armed().run(&trace);
    let plain = SystemUnderTest::paper_single_node(SystemKind::LoongServe)
        .build_engine(Some(&trace))
        .run(&trace);
    assert_eq!(
        outcome_digest(&armed),
        outcome_digest(&plain),
        "an armed-but-unpressured engine must not change a single bit"
    );
    assert!(armed.pressure.is_zero(), "no pressure activity occurred");
}

#[test]
fn replicated_baseline_survives_overload_under_both_policies() {
    // The replicated baseline keeps strict per-instance locality, so a
    // single skew-filled replica can wedge even while pool-global
    // utilisation sits below the watermarks — the stall-rescue eviction
    // (and, for swap, the single-replica swap-in rewrite) must keep it
    // live. Regression for both review findings.
    let trace = overload_trace(100, 13);
    for mode in [PressureMode::Recompute, PressureMode::SwapToHost] {
        let mut engine = pressure_engine(SystemKind::Replicated, mode, 1_500);
        let outcome = engine.run(&trace);
        check_conserved(&outcome, &trace);
        assert_eq!(
            outcome.unfinished, 0,
            "{mode:?}: skewed per-replica pressure must still drain"
        );
        assert!(
            !outcome.pressure.is_zero(),
            "{mode:?}: the constrained replicas must trigger pressure activity"
        );
    }
}

#[test]
fn oversized_requests_are_rejected_not_wedged_under_pressure() {
    // A request whose prompt + declared bound exceeds the whole pool can
    // never be admitted; under optimistic admission it must still be
    // rejected up front (not admitted, grown and wedged as the sole
    // unevictable decoder).
    let mut requests = overload_trace(20, 3).requests;
    let huge_id = RequestId(requests.len() as u64);
    requests.push(Request::with_max_output(
        huge_id,
        SimTime::from_secs(0.5),
        5_000,
        4_000,
        4_000,
    ));
    let trace = Trace::from_requests("overload+oversized", requests);
    for (kind, mode) in [
        (SystemKind::Vllm, PressureMode::Recompute),
        (SystemKind::LoongServe, PressureMode::SwapToHost),
    ] {
        let mut engine = pressure_engine(kind, mode, 1_500);
        let outcome = engine.run(&trace);
        check_conserved(&outcome, &trace);
        assert!(
            outcome.rejected.iter().any(|(id, _)| *id == huge_id),
            "{kind:?}/{mode:?}: the oversized request must be rejected"
        );
        assert_eq!(
            outcome.unfinished, 0,
            "{kind:?}/{mode:?}: everything else drains"
        );
    }
}

#[test]
fn fleet_rollups_surface_per_replica_pressure_counters() {
    // Two KV-starved swap-mode replicas behind round-robin routing: the
    // merged FleetOutcome and the FleetSummary per-replica rollups must
    // surface the pressure counters end to end.
    let trace = overload_trace(80, 9);
    let mut config = FleetConfig::paper_fleet(SystemKind::LoongServe, 2, RouterPolicy::RoundRobin);
    config.pressure = PressureMode::SwapToHost;
    config.kv_capacity_override = Some(1_500);
    let outcome = run_plain(&mut FleetEngine::new(config), &trace);
    assert_eq!(outcome.total_requests(), trace.len());
    assert!(
        outcome.pressure.swap_out_events > 0,
        "the starved replicas must swap"
    );
    let summary = outcome.summary("LoongServe x2", "burst", 21.0, &SloSpec::default_for_lwm());
    assert_eq!(summary.fleet.pressure, outcome.pressure);
    let mut merged = PressureStats::default();
    for (replica, rollup) in outcome.per_replica.iter().zip(&summary.per_replica) {
        assert_eq!(rollup.pressure, replica.outcome.pressure);
        merged.merge(&replica.outcome.pressure);
    }
    assert_eq!(merged, outcome.pressure);
}

#[test]
fn mmpp_burst_during_an_outage_drains_without_wedging() {
    // Compose the two stress tiers: a bursty MMPP overload against starved
    // swap-mode pools *and* a replica outage across the opening burst. The
    // whole burst piles onto the surviving replica's constrained pool, the
    // crash's casualties re-enter routing under the retry budget, and the
    // run must still drain completely — no deadlock between the pressure
    // machinery and the reliability tier's era-segmented execution.
    let trace = overload_trace(100, 17);
    let schedule = FailureSchedule::from_events(vec![FailureEvent::new(
        ReplicaId(0),
        SimTime::from_secs(1.0),
        SimTime::from_secs(12.0),
    )]);
    let mut config =
        FleetConfig::paper_fleet(SystemKind::LoongServe, 2, RouterPolicy::JoinShortestQueue);
    config.pressure = PressureMode::SwapToHost;
    config.kv_capacity_override = Some(1_500);
    let plan = FleetPlan::fixed(2)
        .with_schedule(schedule)
        .with_retry(RetryPolicy::exponential(3, 0.5));
    let stream = TraceStream::from_trace(trace.clone());
    let outcome = FleetEngine::new(config).run(stream, &plan, None).unwrap();

    // Exactly-once over the composition, and a complete drain: the only
    // replica up during the burst has a starved pool, yet nothing wedges.
    assert_eq!(outcome.total_requests(), trace.len());
    assert_eq!(outcome.fleet.unfinished, 0, "burst-in-outage must drain");
    assert!(
        outcome.failed.is_empty(),
        "one crash against a three-retry budget loses nothing"
    );
    assert!(
        outcome.fleet.sim_time < SimTime::from_secs(WATCHDOG_S),
        "run must finish well before the watchdog horizon (no livelock)"
    );
    for r in &outcome.fleet.records {
        r.validate().expect("causally ordered record");
    }

    // The crash really cost attempts (recovered via retries, since nothing
    // terminally failed) and the starved survivor really hit pressure.
    assert!(
        outcome.reliability.failed_attempts > 0,
        "the opening burst must strand in-flight work on the crashed replica"
    );
    assert_eq!(
        outcome.reliability.retries_scheduled, outcome.reliability.failed_attempts,
        "every casualty got a retry"
    );
    assert!(outcome.reliability.recovered_requests > 0);
    assert!(
        outcome.fleet.pressure.swap_out_events > 0,
        "the burst concentrated on a starved pool must trigger swap traffic"
    );
}

#[test]
fn swap_policy_with_tiny_host_falls_back_to_recompute_and_still_terminates() {
    let trace = overload_trace(80, 33);
    // A host tier of 600 tokens can hold at most one small victim at a
    // time; most evictions must fall back to preemption.
    let system = SystemUnderTest::paper_single_node(SystemKind::LoongServe)
        .with_pressure(PressureMode::SwapToHost)
        .with_kv_capacity(1_500);
    let tp = SystemKind::LoongServe.tp(system.cluster.gpus_per_node);
    let config = EngineConfig {
        cluster: system.cluster.clone(),
        tp,
        model: system.model.clone(),
        workspace_fraction: 0.10,
        sib_noise: 0.01,
        seed: system.seed,
        max_sim_time: Some(SimDuration::from_secs(WATCHDOG_S)),
        host_swap: Some(HostSwapConfig::with_tokens(&system.cluster, 600)),
        kv_capacity_override: Some(1_500),
        prefix_cache: None,
        attention: system.attention,
    };
    let registry = InstanceRegistry::build(&system.cluster, tp);
    let scheduler = SystemKind::LoongServe.build_pressure_scheduler(
        &registry.all_ids(),
        None,
        PressureConfig::swap_to_host(),
    );
    let outcome = ServingEngine::new(config, scheduler).run(&trace);
    check_conserved(&outcome, &trace);
    assert_eq!(outcome.unfinished, 0, "fallback must still drain the trace");
    assert!(
        outcome.pressure.preemptions > 0,
        "a saturated host must fall back to preemption"
    );
}
