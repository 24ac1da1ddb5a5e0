//! Properties of the elasticity tier: fleet runs under SLO-driven
//! autoscaling, admission control and load shedding — composed, in the
//! hardest cases, with failure injection.
//!
//! Five contracts are pinned here, matching the tier's module docs:
//!
//! * **Exactly-once accounting** — over random mixed-class traces and
//!   random *valid* plans (autoscaler, admission, crash schedule, retry
//!   policy, circuit breaker and SLA window all drawn together), under
//!   every router policy, each run finishes without panicking, each trace
//!   request ends in exactly one of the five ledgers (completed, rejected,
//!   shed, terminally failed, unfinished), and each seed reproduces itself.
//! * **Drains kill nothing** — a drained replica accepts no new routes
//!   from the drain decision until (at least) a later re-activation, and —
//!   absent failure injection — everything already routed to it completes.
//! * **Crash × drain composition** — a crash striking mid-drain converts
//!   the remainder into ordinary casualties: they retry or fail terminally
//!   under the retry policy, and the five-way partition still holds, for
//!   all six router policies.
//! * **Determinism** — for a fixed seed, identical elastic runs agree bit
//!   for bit (assignments, records, sheds, scale events, both ledgers,
//!   SLA windows) under *every* router policy.
//!
//! Plus armed-but-idle neutrality: a pinned autoscaler plus a shedder that
//! can never fire stay on the plain fleet's golden digests (shared with
//! `tests/fleet_equivalence.rs` through `golden_util.rs`), even though
//! control boundaries — observation runs included — still execute.

use loongserve::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;

#[path = "golden_util.rs"]
mod golden_util;
use golden_util::{
    check_fleet_golden, fleet_digest, FleetGolden, FLEET_2X_ROUND_ROBIN, FLEET_4X_JSQ, FLEET_4X_P2C,
};

const PROPTEST_SEED: u64 = 0xe1a5_71c5_0808_2026;

fn ci_config(cases: u32) -> ProptestConfig {
    ProptestConfig {
        cases,
        failure_persistence: Some(FileFailurePersistence::Off),
        rng_seed: PROPTEST_SEED,
    }
}

fn sharegpt_trace(rate: f64, count: usize, seed: u64) -> Trace {
    WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(rate, count, seed)
}

/// The overload workload shape: diurnal arrivals with a flash crowd,
/// classified into interactive / long-document / multi-turn streams.
fn mixed_trace(count: usize, seed: u64) -> Trace {
    let arrivals = ArrivalProcess::DiurnalFlash {
        trough_rate: 1.0,
        peak_rate: 5.0,
        period_secs: 120.0,
        flash_start_s: 40.0,
        flash_secs: 20.0,
        flash_rate: 12.0,
    };
    let mut rng = SimRng::seed(seed);
    Trace::generate_mixed_classes(
        arrivals,
        count,
        &MixedClassProfile::overload_mix(),
        &mut rng,
    )
}

fn fleet(replicas: usize, policy: RouterPolicy) -> FleetEngine {
    FleetEngine::new(FleetConfig::paper_fleet(
        SystemKind::LoongServe,
        replicas,
        policy,
    ))
}

/// Runs `engine` over a materialised trace under `plan`.
fn run(mut engine: FleetEngine, trace: &Trace, plan: &FleetPlan) -> FleetRun {
    let stream = TraceStream::from_trace(trace.clone());
    engine.run(stream, plan, None).expect("valid plan")
}

/// The six router policies, passthrough included — every sweep must hold
/// for all of them.
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

/// An autoscaler sized for the short property traces: 20 s control
/// windows, quick cooldown, a provisioning delay deliberately coprime
/// with the control interval (no boundary ever coincides with a
/// ready-instant).
fn property_scaler(max_replicas: usize) -> AutoscalerConfig {
    let mut scaler = AutoscalerConfig::overload_defaults(1, max_replicas);
    scaler.control_interval_s = 20.0;
    scaler.cooldown_s = 10.0;
    scaler.provisioning_delay_s = 7.0;
    scaler.scale_up_backlog_tokens = 30_000;
    scaler.scale_down_backlog_tokens = 8_000;
    scaler
}

/// The admission corners swept by the property tests: unarmed, armed but
/// unreachable, and a tight controller that really sheds under the flash.
fn admission_corner(sel: usize) -> Option<AdmissionConfig> {
    match sel {
        0 => None,
        1 => Some(AdmissionConfig::never_sheds()),
        _ => {
            let mut adm = AdmissionConfig::overload_defaults();
            adm.replica_capacity_tokens = 15_000;
            Some(adm)
        }
    }
}

/// Raw draws for the autoscaler: min-size and initial-size selectors,
/// control interval, cooldown, provisioning delay and step selector.
type ScalerDraw = (usize, usize, f64, f64, f64, usize);

/// Raw draws for the control signals: scale-down threshold, dead-band
/// width, attainment target and the signal SLO's scale.
type SignalDraw = (u64, u64, f64, f64);

/// Raw draws for failure injection: crash selector, mean time between
/// failures and to repair; retry budget, backoff base and factor; breaker
/// selector, threshold, window and cooldown; and the SLA window.
type FailureDraw = (
    (usize, f64, f64),
    (u32, f64, f64),
    (usize, u32, f64, f64),
    f64,
);

/// A random plan for a fleet of `n`, valid by construction: every field of
/// [`FleetPlan`] comes from the draws, each mapped into its valid range.
fn drawn_plan(
    n: usize,
    seed: u64,
    admission_sel: usize,
    scaler: ScalerDraw,
    signals: SignalDraw,
    failures: FailureDraw,
) -> FleetPlan {
    let (min_sel, initial_sel, interval_s, cooldown_s, delay_s, step_sel) = scaler;
    let (down_tokens, band_tokens, target, slo_scale) = signals;
    let ((crash_sel, mtbf_s, mttr_s), retry, breaker, sla_window_s) = failures;
    let min = 1 + min_sel % n;
    let mut autoscaler = AutoscalerConfig::overload_defaults(min, n);
    autoscaler.control_interval_s = interval_s;
    autoscaler.cooldown_s = cooldown_s;
    autoscaler.provisioning_delay_s = delay_s;
    autoscaler.step = 1 + step_sel % n;
    autoscaler.scale_down_backlog_tokens = down_tokens;
    autoscaler.scale_up_backlog_tokens = down_tokens + band_tokens;
    autoscaler.target_attainment = target;
    let base = SloSpec::default_for_lwm();
    let schedule = match crash_sel {
        0 => FailureSchedule::none(),
        _ => FailureSchedule::generate(n, SimDuration::from_secs(240.0), mtbf_s, mttr_s, seed),
    };
    let (max_retries, backoff_base_s, backoff_factor) = retry;
    let mut plan = FleetPlan::new(autoscaler)
        .with_initial(min + initial_sel % (n - min + 1))
        .with_signal_slo(SloSpec {
            per_token_s: base.per_token_s * slo_scale,
            input_s: base.input_s * slo_scale,
            output_s: base.output_s * slo_scale,
        })
        .with_schedule(schedule)
        .with_retry(RetryPolicy {
            max_retries,
            backoff_base_s,
            backoff_factor,
        })
        .with_sla_window(sla_window_s);
    if let (1, threshold, window_s, cooldown_s) = breaker {
        plan = plan.with_breaker(CircuitBreakerConfig::new(threshold, window_s, cooldown_s));
    }
    if let Some(admission) = admission_corner(admission_sel) {
        plan = plan.with_admission(admission);
    }
    plan
}

/// Checks the five-way exactly-once partition: every trace id lands in
/// precisely one of completed / rejected / shed / terminally-failed /
/// unfinished, and the elasticity ledger agrees with the lists.
fn assert_exactly_once(trace: &Trace, outcome: &FleetRun) {
    let trace_ids: BTreeSet<RequestId> = trace.requests.iter().map(|r| r.id).collect();
    let completed: BTreeSet<RequestId> = outcome.fleet.records.iter().map(|r| r.id).collect();
    let rejected: BTreeSet<RequestId> = outcome.fleet.rejected.iter().map(|r| r.0).collect();
    let failed: BTreeSet<RequestId> = outcome.failed.iter().map(|f| f.id).collect();
    let shed: BTreeSet<RequestId> = outcome.shed.iter().map(|s| s.id).collect();

    // No ledger holds duplicates...
    prop_assert_eq!(completed.len(), outcome.fleet.records.len());
    prop_assert_eq!(rejected.len(), outcome.fleet.rejected.len());
    prop_assert_eq!(failed.len(), outcome.failed.len());
    prop_assert_eq!(shed.len(), outcome.shed.len());
    // ...every ledger holds only trace ids...
    prop_assert!(completed.is_subset(&trace_ids));
    prop_assert!(rejected.is_subset(&trace_ids));
    prop_assert!(failed.is_subset(&trace_ids));
    prop_assert!(shed.is_subset(&trace_ids));
    // ...the ledgers are pairwise disjoint...
    prop_assert!(completed.is_disjoint(&rejected));
    prop_assert!(completed.is_disjoint(&failed));
    prop_assert!(completed.is_disjoint(&shed));
    prop_assert!(rejected.is_disjoint(&failed));
    prop_assert!(rejected.is_disjoint(&shed));
    prop_assert!(failed.is_disjoint(&shed));
    // ...and with `unfinished` they partition the trace exactly.
    prop_assert_eq!(
        completed.len() + rejected.len() + failed.len() + shed.len() + outcome.fleet.unfinished,
        trace.len()
    );
    prop_assert_eq!(outcome.total_requests(), trace.len());

    // The elasticity ledger's class counters are the shed list, recounted.
    let by_class = |class: TrafficClass| outcome.shed.iter().filter(|s| s.class == class).count();
    prop_assert_eq!(
        outcome.elasticity.shed_interactive,
        by_class(TrafficClass::Interactive) as u64
    );
    prop_assert_eq!(
        outcome.elasticity.shed_standard,
        by_class(TrafficClass::Standard) as u64
    );
    prop_assert_eq!(
        outcome.elasticity.shed_best_effort,
        by_class(TrafficClass::BestEffort) as u64
    );
    prop_assert_eq!(outcome.elasticity.shed_total(), outcome.shed.len() as u64);
    // Scale events and the reliability ledger agree with their lists too.
    prop_assert_eq!(
        outcome.elasticity.drains_completed,
        outcome
            .scale_events
            .iter()
            .filter(|e| matches!(e.kind, FleetScaleKind::Retired { .. }))
            .count() as u64
    );
    prop_assert_eq!(
        outcome.reliability.retries_exhausted,
        outcome.failed.len() as u64
    );
    prop_assert!(outcome.reliability.recovered_requests <= outcome.reliability.failed_attempts);
    prop_assert_eq!(
        outcome.route_instants.len(),
        outcome.fleet.assignments.len()
    );
}

/// Checks that no route lands on a replica between its retirement and its
/// next re-activation: the drain removes the victim from the routable set
/// durably, not just for one era.
fn assert_no_routes_to_retired(outcome: &FleetRun) {
    // Per replica, the chronological [retired, reactivated) windows.
    #[derive(Clone, Copy)]
    enum Edge {
        Out(SimTime),
        In(SimTime),
    }
    let mut edges: std::collections::BTreeMap<ReplicaId, Vec<Edge>> =
        std::collections::BTreeMap::new();
    for event in &outcome.scale_events {
        match event.kind {
            FleetScaleKind::Retired { replica, .. } => {
                edges.entry(replica).or_default().push(Edge::Out(event.at));
            }
            FleetScaleKind::Activated { replica, ready_at } => {
                edges.entry(replica).or_default().push(Edge::In(ready_at));
            }
        }
    }
    for (i, &(id, replica)) in outcome.fleet.assignments.iter().enumerate() {
        let at = outcome.route_instants[i];
        let Some(timeline) = edges.get(&replica) else {
            continue;
        };
        // The replica's routability at `at`: scan the (chronological)
        // event list for the last edge at or before the route instant.
        let mut forbidden = false;
        for edge in timeline {
            match *edge {
                Edge::Out(t) if t <= at => forbidden = true,
                Edge::In(t) if t <= at => forbidden = false,
                _ => {}
            }
        }
        prop_assert!(
            !forbidden,
            "{id:?} routed to {replica} at {at}, inside a retirement window"
        );
    }
}

proptest! {
    #![proptest_config(ci_config(6))]

    /// (a) Exactly-once accounting over the whole plan space: mixed-class
    /// diurnal+flash traces, every router policy, and random valid plans —
    /// autoscaling, admission, crashes, retries, the circuit breaker and
    /// the SLA window composed at once. Each run finishes without a panic,
    /// closes the five-way partition, and reproduces itself bit for bit.
    #[test]
    fn every_request_lands_in_exactly_one_of_five_ledgers(
        seed in 0u64..1_000_000,
        count in 20usize..40,
        max_replicas in 2usize..4,
        policy_idx in 0usize..6,
        admission_sel in 0usize..3,
        scaler in (0usize..4, 0usize..4, 5.0f64..40.0, 0.0f64..30.0, 0.0f64..15.0, 0usize..3),
        signals in (1_000u64..20_000, 1_000u64..40_000, 0.5f64..1.0, 0.5f64..4.0),
        failures in (
            (0usize..2, 40.0f64..200.0, 1.0f64..30.0),
            (0u32..4, 0.0f64..2.0, 1.0f64..3.0),
            (0usize..2, 1u32..5, 5.0f64..120.0, 0.0f64..300.0),
            5.0f64..120.0,
        ),
    ) {
        let trace = mixed_trace(count, seed);
        let plan = drawn_plan(max_replicas, seed, admission_sel, scaler, signals, failures);
        prop_assert_eq!(plan.validate(max_replicas), Ok(()));
        let outcome = run(fleet(max_replicas, policy(policy_idx)), &trace, &plan);
        assert_exactly_once(&trace, &outcome);
        assert_no_routes_to_retired(&outcome);
        let again = run(fleet(max_replicas, policy(policy_idx)), &trace, &plan);
        prop_assert_eq!(format!("{outcome:?}"), format!("{again:?}"));
        // Without failure injection nothing can fail terminally, and a
        // replica-second was spent on every completion.
        if plan.schedule.events().is_empty() {
            prop_assert!(outcome.failed.is_empty());
        }
        prop_assert!(outcome.elasticity.replica_seconds >= 0.0);
        prop_assert!(
            outcome.fleet.records.is_empty() || outcome.elasticity.replica_seconds > 0.0
        );
    }

    /// (b) Drains kill nothing: without failure injection, every request
    /// the fleet admitted completes (or is rejected by a replica's own
    /// engine) even while the autoscaler grows and shrinks the fleet, and
    /// drained replicas take no new work until re-activated.
    #[test]
    fn drained_replicas_finish_their_work_and_take_no_new_routes(
        seed in 0u64..1_000_000,
        count in 20usize..40,
        max_replicas in 2usize..4,
        policy_idx in 0usize..6,
    ) {
        let trace = mixed_trace(count, seed);
        let plan = FleetPlan::new(property_scaler(max_replicas)).with_initial(max_replicas);
        let outcome = run(fleet(max_replicas, policy(policy_idx)), &trace, &plan);
        assert_exactly_once(&trace, &outcome);
        assert_no_routes_to_retired(&outcome);
        prop_assert!(outcome.failed.is_empty(), "no crash, no terminal failures");
        prop_assert_eq!(outcome.fleet.unfinished, 0, "drains run to completion");
        prop_assert_eq!(
            outcome.fleet.records.len() + outcome.fleet.rejected.len() + outcome.shed.len(),
            trace.len()
        );
        // Drain bookkeeping is internally consistent.
        prop_assert!(outcome.elasticity.max_drain_s <= outcome.elasticity.total_drain_s + 1e-9);
        for event in &outcome.scale_events {
            if let FleetScaleKind::Retired { drain_s, .. } = event.kind {
                prop_assert!(drain_s >= 0.0);
                prop_assert!(drain_s <= outcome.elasticity.max_drain_s + 1e-9);
            }
        }
    }

    /// (c) Crash × drain composition: failure injection, retries and the
    /// elastic autoscaler together, under every router policy. Casualties
    /// (including work lost when a crash interrupts a drain) retry or fail
    /// terminally; the five-way partition and the retired-window contract
    /// both hold.
    #[test]
    fn crashes_during_scaling_resolve_through_the_retry_ledger(
        seed in 0u64..1_000_000,
        count in 18usize..36,
        max_replicas in 2usize..4,
        policy_idx in 0usize..6,
        retry_sel in 0usize..2,
    ) {
        let trace = mixed_trace(count, seed);
        let schedule = FailureSchedule::generate(
            max_replicas,
            SimDuration::from_secs(240.0),
            80.0,
            15.0,
            seed ^ 0xe1a5,
        );
        let retry = if retry_sel == 0 {
            RetryPolicy::none()
        } else {
            RetryPolicy::exponential(2, 0.5)
        };
        let plan = FleetPlan::new(property_scaler(max_replicas))
            .with_initial(max_replicas)
            .with_schedule(schedule)
            .with_retry(retry)
            .with_admission(AdmissionConfig::never_sheds())
            .with_sla_window(30.0);
        let outcome = run(fleet(max_replicas, policy(policy_idx)), &trace, &plan);
        assert_exactly_once(&trace, &outcome);
        assert_no_routes_to_retired(&outcome);
        // Fail-fast: every lost attempt is terminal. With budget: terminal
        // failures only after the budget is spent.
        if retry_sel == 0 {
            prop_assert_eq!(outcome.reliability.retries_scheduled, 0);
            prop_assert_eq!(
                outcome.reliability.failed_attempts,
                outcome.failed.len() as u64
            );
        }
        prop_assert_eq!(
            outcome.reliability.crashes,
            plan.schedule.events().len() as u64
        );
        // The availability series spans the run whenever anything completed.
        if !outcome.fleet.records.is_empty() {
            prop_assert!(!outcome.sla_windows.is_empty());
        }
    }

    /// (d) Determinism: for a fixed seed the whole elastic outcome —
    /// fleet digest, sheds, scale events, route instants, both ledgers,
    /// SLA windows — is reproduced bit for bit under every router policy.
    #[test]
    fn elastic_outcomes_are_deterministic_for_a_fixed_seed_under_every_policy(
        seed in 0u64..1_000_000,
        count in 16usize..30,
        max_replicas in 2usize..4,
        admission_sel in 0usize..3,
    ) {
        let trace = mixed_trace(count, seed);
        let schedule = FailureSchedule::generate(
            max_replicas,
            SimDuration::from_secs(200.0),
            100.0,
            12.0,
            seed ^ 0xd37e,
        );
        for idx in 0..6 {
            let mut plan = FleetPlan::new(property_scaler(max_replicas))
                .with_schedule(schedule.clone())
                .with_retry(RetryPolicy::exponential(2, 0.5));
            if let Some(adm) = admission_corner(admission_sel) {
                plan = plan.with_admission(adm);
            }
            let a = run(fleet(max_replicas, policy(idx)), &trace, &plan);
            let b = run(fleet(max_replicas, policy(idx)), &trace, &plan);
            prop_assert_eq!(fleet_digest(&a.fleet), fleet_digest(&b.fleet));
            prop_assert_eq!(&a.fleet.assignments, &b.fleet.assignments);
            prop_assert_eq!(&a.shed, &b.shed);
            prop_assert_eq!(&a.scale_events, &b.scale_events);
            prop_assert_eq!(&a.route_instants, &b.route_instants);
            prop_assert_eq!(&a.failed, &b.failed);
            prop_assert_eq!(a.elasticity, b.elasticity);
            prop_assert_eq!(a.reliability, b.reliability);
            prop_assert_eq!(&a.sla_windows, &b.sla_windows);
        }
    }
}

fn assert_armed_idle_stays_on(golden: &FleetGolden) {
    let plan = FleetPlan::armed_idle(golden.replicas);
    check_fleet_golden(golden, "control-armed idle", &plan);
}

#[test]
fn armed_idle_two_replica_round_robin_stays_on_golden() {
    assert_armed_idle_stays_on(&FLEET_2X_ROUND_ROBIN);
}

#[test]
fn armed_idle_four_replica_jsq_stays_on_golden() {
    assert_armed_idle_stays_on(&FLEET_4X_JSQ);
}

#[test]
fn armed_idle_four_replica_p2c_stays_on_golden() {
    assert_armed_idle_stays_on(&FLEET_4X_P2C);
}

#[test]
fn armed_idle_summary_rolls_up_a_clean_elasticity_ledger() {
    let trace = sharegpt_trace(12.0, 40, 9);
    let outcome = run(
        fleet(2, RouterPolicy::LeastKvLoad),
        &trace,
        &FleetPlan::armed_idle(2),
    );
    let summary = outcome.summary(
        "LoongServe x2",
        "ShareGPT",
        12.0,
        &SloSpec::default_for_lwm(),
    );
    assert!(summary.reliability.is_zero());
    assert!(
        !summary.elasticity.is_zero(),
        "replica-seconds always accrue"
    );
    assert_eq!(summary.elasticity.shed_total(), 0);
    assert_eq!(summary.success_ratio(), 1.0);
}
