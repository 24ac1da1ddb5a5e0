//! Properties of the reliability tier: fleet runs under failure injection.
//!
//! Three contracts are pinned here, matching the tier's module docs:
//!
//! * **Exactly-once accounting** — over random seeded failure schedules,
//!   every retry policy and every router policy, each trace request ends in
//!   exactly one of the four ledgers (completed, rejected, terminally
//!   failed, unfinished): no request is lost to a crash and none is
//!   double-counted by a retry.
//! * **Token conservation with re-prefill** — completed records carry their
//!   exact trace token counts, and total prefill work is bounded below by
//!   the completed prompts and above by the trace's prompts plus the
//!   ledger's `re_prefilled_tokens`: a crash can only add the re-prefill
//!   work the ledger admits to.
//! * **Determinism** — for a fixed seed, identical runs agree bit for bit
//!   (assignments, records, failures, reliability ledger, SLA windows)
//!   under *every* router policy, including passthrough.
//!
//! Plus armed-but-idle neutrality: the tier armed with an empty schedule,
//! a retry budget and a breaker stays on the plain fleet's golden digests
//! (shared with `tests/fleet_equivalence.rs` through `golden_util.rs`).
//!
//! Plus the crash-invalidation contract of the prefix-cache tier: a
//! conversation pinned by `PrefixAffinity` to a replica that crashes
//! re-routes to a healthy replica, pays one full re-prefill there, and then
//! resumes hitting the rebuilt cache — with hit-rate accounting consistent
//! between the fleet rollup and the per-replica breakdown.

use loong_simcore::ids::ConversationId;
use loongserve::prelude::*;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

#[path = "golden_util.rs"]
mod golden_util;
use golden_util::{
    check_fleet_golden, fleet_digest, FleetGolden, FLEET_2X_ROUND_ROBIN, FLEET_4X_JSQ, FLEET_4X_P2C,
};

const PROPTEST_SEED: u64 = 0x7e11_ab1e_0808_2026;

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

/// The six router policies, passthrough included — the determinism sweep
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

/// The retry-policy corner cases swept by the property tests over a fixed
/// fleet of `n`: fail-fast, plain exponential backoff, and backoff with a
/// circuit breaker armed.
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

/// Checks the exactly-once partition: every trace id lands in precisely one
/// of completed / rejected / terminally-failed / unfinished.
fn assert_exactly_once(trace: &Trace, outcome: &FleetRun) {
    let trace_ids: BTreeSet<RequestId> = trace.requests.iter().map(|r| r.id).collect();
    let completed: BTreeSet<RequestId> = outcome.fleet.records.iter().map(|r| r.id).collect();
    let rejected: BTreeSet<RequestId> = outcome.fleet.rejected.iter().map(|r| r.0).collect();
    let failed: BTreeSet<RequestId> = outcome.failed.iter().map(|f| f.id).collect();

    // No ledger holds duplicates...
    prop_assert_eq!(completed.len(), outcome.fleet.records.len());
    prop_assert_eq!(rejected.len(), outcome.fleet.rejected.len());
    prop_assert_eq!(failed.len(), outcome.failed.len());
    // ...every ledger holds only trace ids...
    prop_assert!(completed.is_subset(&trace_ids));
    prop_assert!(rejected.is_subset(&trace_ids));
    prop_assert!(failed.is_subset(&trace_ids));
    // ...the ledgers are pairwise disjoint...
    prop_assert!(completed.is_disjoint(&rejected));
    prop_assert!(completed.is_disjoint(&failed));
    prop_assert!(rejected.is_disjoint(&failed));
    // ...and with `unfinished` they partition the trace exactly.
    prop_assert_eq!(
        completed.len() + rejected.len() + failed.len() + outcome.fleet.unfinished,
        trace.len()
    );
    prop_assert_eq!(outcome.total_requests(), trace.len());
}

proptest! {
    #![proptest_config(ci_config(6))]

    /// (a) Exactly-once accounting across random failure schedules, router
    /// policies and retry-policy corners.
    #[test]
    fn every_request_is_completed_or_accounted_exactly_once(
        seed in 0u64..1_000_000,
        count in 18usize..40,
        replicas in 2usize..4,
        policy_idx in 0usize..6,
        retry_sel in 0usize..3,
    ) {
        let trace = sharegpt_trace(6.0, count, seed);
        let schedule = FailureSchedule::generate(
            replicas,
            SimDuration::from_secs(300.0),
            90.0,
            15.0,
            seed ^ 0xfa11,
        );
        let plan = failure_plan(replicas, schedule, retry_sel);
        let outcome = run(fleet(replicas, policy(policy_idx)), &trace, &plan);
        assert_exactly_once(&trace, &outcome);
        // The ledger's failure counters agree with the failed list, and
        // recovered requests really did lose an attempt first.
        prop_assert_eq!(outcome.reliability.retries_exhausted, outcome.failed.len() as u64);
        prop_assert!(outcome.reliability.recovered_requests <= outcome.reliability.failed_attempts);
    }

    /// (b) Token conservation including re-prefill work: completed records
    /// carry their exact trace token counts, and total prefill work stays
    /// inside [completed prompts, trace prompts + ledgered re-prefill].
    #[test]
    fn tokens_are_conserved_including_re_prefill(
        seed in 0u64..1_000_000,
        count in 18usize..40,
        replicas in 2usize..4,
        retry_sel in 0usize..3,
    ) {
        let trace = sharegpt_trace(6.0, count, seed);
        let schedule = FailureSchedule::generate(
            replicas,
            SimDuration::from_secs(300.0),
            120.0,
            20.0,
            seed ^ 0x70c3,
        );
        let plan = failure_plan(replicas, schedule, retry_sel);
        let outcome = run(fleet(replicas, RouterPolicy::JoinShortestQueue), &trace, &plan);
        assert_exactly_once(&trace, &outcome);

        let by_id: BTreeMap<RequestId, &Request> =
            trace.requests.iter().map(|r| (r.id, r)).collect();
        for rec in &outcome.fleet.records {
            let req = by_id[&rec.id];
            prop_assert_eq!(rec.input_len, req.input_len);
            prop_assert_eq!(rec.output_len, req.output_len);
        }

        let prefilled: u64 = outcome
            .fleet
            .per_replica
            .iter()
            .map(|r| r.outcome.prefilled_tokens)
            .sum();
        let completed_input: u64 = outcome.fleet.records.iter().map(|r| r.input_len).sum();
        let trace_input: u64 = trace.requests.iter().map(|r| r.input_len).sum();
        prop_assert!(
            prefilled >= completed_input,
            "every completed prompt was prefilled: {prefilled} < {completed_input}"
        );
        prop_assert!(
            prefilled <= trace_input + outcome.reliability.re_prefilled_tokens,
            "prefill work beyond the trace must be ledgered as re-prefill: \
             {prefilled} > {trace_input} + {}",
            outcome.reliability.re_prefilled_tokens
        );
        // A run no failure touched does exactly the trace's prefill work.
        if outcome.reliability.failed_attempts == 0
            && outcome.fleet.rejected.is_empty()
            && outcome.fleet.unfinished == 0
        {
            prop_assert_eq!(outcome.reliability.re_prefilled_tokens, 0);
            prop_assert_eq!(prefilled, trace_input);
        }
    }

    /// (c) Determinism: for a fixed seed the whole outcome — assignments,
    /// records, terminal failures, reliability ledger, SLA windows — is
    /// reproduced bit for bit under every router policy.
    #[test]
    fn outcomes_are_deterministic_for_a_fixed_seed_under_every_policy(
        seed in 0u64..1_000_000,
        count in 15usize..30,
        replicas in 2usize..4,
        retry_sel in 0usize..3,
    ) {
        let trace = sharegpt_trace(8.0, count, seed);
        let schedule = FailureSchedule::generate(
            replicas,
            SimDuration::from_secs(250.0),
            100.0,
            15.0,
            seed ^ 0xd37e,
        );
        for idx in 0..6 {
            let plan = failure_plan(replicas, schedule.clone(), retry_sel);
            let a = run(fleet(replicas, policy(idx)), &trace, &plan);
            let b = run(fleet(replicas, policy(idx)), &trace, &plan);
            prop_assert_eq!(fleet_digest(&a.fleet), fleet_digest(&b.fleet));
            prop_assert_eq!(&a.fleet.assignments, &b.fleet.assignments);
            prop_assert_eq!(&a.failed, &b.failed);
            prop_assert_eq!(a.reliability, b.reliability);
            prop_assert_eq!(&a.sla_windows, &b.sla_windows);
        }
    }
}

/// The fully-armed failure tier whose machinery must stay invisible when no
/// failure fires.
fn armed_idle(n: usize) -> FleetPlan {
    FleetPlan::fixed(n)
        .with_retry(RetryPolicy::exponential(3, 0.5))
        .with_breaker(CircuitBreakerConfig::new(3, 60.0, 120.0))
}

fn assert_armed_idle_stays_on(golden: &FleetGolden) {
    check_fleet_golden(golden, "failure-armed idle", &armed_idle(golden.replicas));
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
fn armed_idle_summary_rolls_up_a_clean_ledger() {
    let trace = sharegpt_trace(12.0, 40, 9);
    let outcome = run(fleet(2, RouterPolicy::LeastKvLoad), &trace, &armed_idle(2));
    let summary = outcome.summary(
        "LoongServe x2",
        "ShareGPT",
        12.0,
        &SloSpec::default_for_lwm(),
    );
    assert!(summary.reliability.is_zero());
    assert_eq!(summary.success_ratio(), 1.0);
    assert_eq!(summary.sla_windows.len(), outcome.sla_windows.len());
}

// ---------------------------------------------------------------------------
// Prefix-cache invalidation on crash (satellite of the reliability tier).
// ---------------------------------------------------------------------------

/// One conversation of strictly-growing turns, one per minute: each turn's
/// prompt is the previous turn's full context plus a new user message, the
/// shape the prefix cache exploits.
fn conversation_trace(turns: u32) -> Trace {
    let mut requests = Vec::new();
    let mut input = 400u64;
    let output = 60u64;
    for turn in 0..turns {
        requests.push(
            Request::new(
                RequestId(turn as u64),
                SimTime::from_secs(60.0 * turn as f64),
                input,
                output,
            )
            .with_conversation(ConversationId(7), turn),
        );
        input += output + 120;
    }
    Trace::from_requests("one growing conversation", requests)
}

/// A crash invalidates the pinned replica's prefix cache: the conversation
/// re-routes to a healthy replica, re-prefills fully exactly once, then
/// resumes hitting the cache it rebuilt there — and the hit-rate accounting
/// stays consistent between the fleet rollup and the per-replica split.
#[test]
fn prefix_cache_invalidation_on_crash_re_prefills_once_and_rebuilds() {
    let turns = 6u32;
    let trace = conversation_trace(turns);
    let cached_fleet = || {
        let mut config =
            FleetConfig::paper_fleet(SystemKind::LoongServe, 2, RouterPolicy::PrefixAffinity);
        config.prefix_cache = Some(PrefixCacheConfig::default());
        FleetEngine::new(config)
    };

    // Baseline: no failures. Affinity pins the conversation to replica 0
    // and every follow-up turn hits the cache there.
    let baseline = run(cached_fleet(), &trace, &FleetPlan::fixed(2));
    assert_eq!(baseline.fleet.records.len(), turns as usize);
    assert_eq!(baseline.fleet.cache.lookups, turns as u64);
    assert_eq!(baseline.fleet.cache.hits, turns as u64 - 1);
    assert!(baseline
        .fleet
        .assignments
        .iter()
        .all(|&(_, r)| r == ReplicaId(0)));

    // Crash the pinned replica between turn 1 and turn 2 and keep it down
    // past the end of the trace: turn 2 must re-route.
    let schedule = FailureSchedule::from_events(vec![FailureEvent::new(
        ReplicaId(0),
        SimTime::from_secs(100.0),
        SimTime::from_secs(1_000.0),
    )]);
    let plan = FleetPlan::fixed(2)
        .with_schedule(schedule)
        .with_retry(RetryPolicy::exponential(2, 1.0));
    let outcome = run(cached_fleet(), &trace, &plan);

    // Everything still completes, exactly once.
    assert_eq!(outcome.fleet.records.len(), turns as usize);
    assert!(outcome.failed.is_empty());
    assert_eq!(outcome.total_requests(), trace.len());

    // Turns 0–1 ran on the pinned replica; the re-pin at the crash is
    // durable, so every later turn lands on replica 1.
    for &(id, replica) in &outcome.fleet.assignments {
        let expected = if id.raw() < 2 {
            ReplicaId(0)
        } else {
            ReplicaId(1)
        };
        assert_eq!(replica, expected, "turn {} mis-routed", id.raw());
    }

    // Exactly one forced full re-prefill: the first re-routed turn misses
    // (the crashed replica's cache is gone, the new replica's is cold),
    // then the rebuilt cache serves every remaining turn.
    assert_eq!(outcome.fleet.cache.lookups, turns as u64);
    assert_eq!(outcome.fleet.cache.hits, baseline.fleet.cache.hits - 1);
    assert!(outcome.fleet.cache.reused_tokens < baseline.fleet.cache.reused_tokens);
    let hits_on_survivor = outcome.fleet.per_replica[1].outcome.cache.hits;
    assert_eq!(
        hits_on_survivor,
        turns as u64 - 3,
        "turns 3.. hit the rebuilt cache"
    );

    // Every prompt token is either prefilled or adopted, in both runs —
    // the crash converts adoptions into re-prefill work, never into loss.
    let trace_input: u64 = trace.requests.iter().map(|r| r.input_len).sum();
    for run in [&baseline, &outcome] {
        let prefilled: u64 = run
            .fleet
            .per_replica
            .iter()
            .map(|r| r.outcome.prefilled_tokens)
            .sum();
        assert_eq!(prefilled + run.fleet.cache.reused_tokens, trace_input);
    }

    // Hit-rate accounting is consistent: the fleet rollup equals the sum
    // of the per-replica counters.
    for run in [&baseline, &outcome] {
        let mut summed = CacheStats::default();
        for r in &run.fleet.per_replica {
            summed.merge(&r.outcome.cache);
        }
        assert_eq!(summed, run.fleet.cache);
    }
}
