//! Properties of the prefix-cache tier.
//!
//! Over multi-turn conversation traces these pin the tier's contract:
//!
//! * **Reuse correctness** — with the cache enabled, the hit rate is
//!   positive, total prefilled prompt tokens are strictly below the
//!   cache-off run, and every request still produces exactly its trace
//!   output (same completed set, same per-request token counts): the cache
//!   changes *work*, never *results*.
//! * **Eviction-under-pressure disjointness** — with a starved KV pool and
//!   a pressure policy armed on top of the cache, runs still terminate and
//!   every scheduling point upholds disjointness: retained prefixes only
//!   ever hold KV of finished requests (the engine's debug audit asserts
//!   it point-wise; these runs execute with debug assertions on), so
//!   pressure victim selection and prefix eviction can never touch the
//!   same request.
//! * **Determinism across fleet routing** — identically seeded fleet runs
//!   agree bit for bit under every routing policy, a 1-replica
//!   cache-enabled fleet reproduces the bare cache-enabled engine, and
//!   prefix-affinity routing never hits less than conversation-splitting
//!   round-robin.
//! * **Zero-cost when disabled** — cache-off runs report all-zero cache
//!   stats and digest identically to the pre-tier engine; the pinned
//!   constants in `tests/determinism_golden.rs` pin that externally.

use loongserve::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[path = "golden_util.rs"]
mod golden_util;
use golden_util::outcome_digest;

const PROPTEST_SEED: u64 = 0x9ef1_0000_cafe_2026;

fn ci_config(cases: u32) -> ProptestConfig {
    ProptestConfig {
        cases,
        failure_persistence: Some(FileFailurePersistence::Off),
        rng_seed: PROPTEST_SEED,
    }
}

/// A multi-turn ShareGPT trace: `conversations` conversations arriving as a
/// Poisson process, each with a geometric number of strictly-growing turns.
fn multi_turn_trace(conversations: usize, rate: f64, seed: u64) -> Trace {
    let mut rng = SimRng::seed(seed);
    Trace::generate_multi_turn(
        DatasetKind::ShareGpt,
        &MultiTurnProfile::sharegpt(),
        ArrivalProcess::Poisson { rate },
        conversations,
        &mut rng,
    )
}

fn run_system(kind: SystemKind, trace: &Trace, cache: bool) -> RunOutcome {
    let mut system = SystemUnderTest::paper_single_node(kind);
    if cache {
        system = system.with_prefix_cache();
    }
    system.build_engine(Some(trace)).run(trace)
}

/// The plain fleet's outcome over a materialised trace.
fn run_plain(fleet: &mut FleetEngine, trace: &Trace) -> FleetOutcome {
    let plan = FleetPlan::fixed(fleet.config().replicas);
    let stream = TraceStream::from_trace(trace.clone());
    fleet.run(stream, &plan, None).expect("valid plan").fleet
}

/// Per-request `(input_len, output_len)` of the completed records.
fn completion_map(outcome: &RunOutcome) -> BTreeMap<RequestId, (u64, u64)> {
    outcome
        .records
        .iter()
        .map(|r| (r.id, (r.input_len, r.output_len)))
        .collect()
}

#[test]
fn cache_reuses_prefixes_and_preserves_every_output() {
    let trace = multi_turn_trace(30, 0.4, 0x5eed_0001);
    assert!(trace.len() > 30, "trace should contain follow-up turns");
    let off = run_system(SystemKind::LoongServe, &trace, false);
    let on = run_system(SystemKind::LoongServe, &trace, true);

    // Both runs serve everything.
    assert_eq!(off.unfinished, 0);
    assert_eq!(on.unfinished, 0);
    assert!(off.rejected.is_empty() && on.rejected.is_empty());

    // Identical per-request results: same completed set, same token counts,
    // and every record carries its trace-specified output.
    assert_eq!(completion_map(&off), completion_map(&on));
    let by_id: BTreeMap<RequestId, &Request> = trace.requests.iter().map(|r| (r.id, r)).collect();
    for rec in &on.records {
        let req = by_id[&rec.id];
        assert_eq!(rec.input_len, req.input_len);
        assert_eq!(rec.output_len, req.output_len);
        assert!(rec.validate().is_ok());
    }

    // The cache actually worked: positive hit rate, reused tokens, and
    // strictly less prefill work than the cache-off run.
    assert!(on.cache.hits > 0, "multi-turn trace must hit the cache");
    assert!(on.cache.hit_rate() > 0.0);
    assert!(on.cache.reused_tokens > 0);
    assert!(on.cache.saved_prefill_s > 0.0);
    assert!(on.cache.retained_tokens_high_water > 0);
    assert!(
        on.prefilled_tokens < off.prefilled_tokens,
        "cache-on prefilled {} tokens, cache-off {}",
        on.prefilled_tokens,
        off.prefilled_tokens
    );
    assert_eq!(
        on.prefilled_tokens + on.cache.reused_tokens,
        off.prefilled_tokens,
        "every prompt token is either prefilled or adopted exactly once"
    );

    // The cache-off run reports all-zero cache stats.
    assert!(off.cache.is_zero());
}

#[test]
fn cache_off_runs_are_bit_for_bit_reproducible() {
    let trace = multi_turn_trace(12, 0.5, 0x5eed_0002);
    let a = run_system(SystemKind::LoongServe, &trace, false);
    let b = run_system(SystemKind::LoongServe, &trace, false);
    assert_eq!(outcome_digest(&a), outcome_digest(&b));
    assert!(a.cache.is_zero());
}

proptest! {
    #![proptest_config(ci_config(8))]

    /// Reuse correctness over random multi-turn workloads and both the
    /// LoongServe manager and the vLLM-style baseline (the engine adopts
    /// prefixes uniformly for every scheduler).
    #[test]
    fn reuse_changes_work_never_results(
        seed in 0u64..1_000_000,
        conversations in 6usize..20,
        rate_centi in 20u64..80,
        vllm_sel in 0usize..2,
    ) {
        let kind = if vllm_sel == 1 { SystemKind::Vllm } else { SystemKind::LoongServe };
        let trace = multi_turn_trace(conversations, rate_centi as f64 / 100.0, seed);
        let off = run_system(kind, &trace, false);
        let on = run_system(kind, &trace, true);

        prop_assert_eq!(completion_map(&off), completion_map(&on));
        prop_assert_eq!(off.unfinished, on.unfinished);
        prop_assert_eq!(&off.rejected, &on.rejected);
        // Prefill work never grows, and shrinks by exactly the adopted
        // tokens whenever the cache hit.
        prop_assert_eq!(
            on.prefilled_tokens + on.cache.reused_tokens,
            off.prefilled_tokens
        );
        if on.cache.hits > 0 {
            prop_assert!(on.prefilled_tokens < off.prefilled_tokens);
        }
        // Identical seeds reproduce identical cache behaviour.
        let again = run_system(kind, &trace, true);
        prop_assert_eq!(outcome_digest(&on), outcome_digest(&again));
        prop_assert_eq!(on.cache, again.cache);
    }

    /// Eviction under a starved pool and an armed pressure policy: the run
    /// terminates with every request served, while the engine's per-point
    /// debug audit (active in these builds) proves retained prefixes stay
    /// disjoint from the active working set the whole way.
    #[test]
    fn eviction_under_pressure_stays_disjoint_and_terminates(
        seed in 0u64..1_000_000,
        conversations in 5usize..12,
        recompute_sel in 0usize..2,
    ) {
        let trace = multi_turn_trace(conversations, 1.0, seed);
        let mode = if recompute_sel == 1 { PressureMode::Recompute } else { PressureMode::SwapToHost };
        let outcome = SystemUnderTest::paper_single_node(SystemKind::LoongServe)
            .with_prefix_cache()
            .with_pressure(mode)
            // ~2% of the real budget: decode growth crosses the pressure
            // watermarks and retention competes with admission.
            .with_kv_capacity(4_000)
            .with_max_sim_time(SimDuration::from_secs(200_000.0))
            .build_engine(Some(&trace))
            .run(&trace);
        prop_assert_eq!(outcome.unfinished, 0, "no livelock under pressure + cache");
        prop_assert!(outcome.rejected.is_empty());
        let by_id: BTreeMap<RequestId, &Request> =
            trace.requests.iter().map(|r| (r.id, r)).collect();
        prop_assert_eq!(outcome.records.len(), trace.len());
        for rec in &outcome.records {
            prop_assert_eq!(rec.output_len, by_id[&rec.id].output_len);
        }
    }

    /// Fleet determinism: every routing policy reproduces assignments,
    /// records and cache counters bit for bit across identically seeded
    /// runs, with the cache enabled on every replica.
    #[test]
    fn fleet_routing_policies_are_deterministic_with_cache(
        seed in 0u64..1_000_000,
        conversations in 8usize..16,
        replicas in 2usize..4,
        policy_idx in 0usize..6,
    ) {
        let policy = match policy_idx {
            0 => RouterPolicy::RoundRobin,
            1 => RouterPolicy::JoinShortestQueue,
            2 => RouterPolicy::LeastKvLoad,
            3 => RouterPolicy::PowerOfTwoChoices { seed: 0xdecade },
            4 => RouterPolicy::PrefixAffinity,
            _ => RouterPolicy::Passthrough,
        };
        let trace = multi_turn_trace(conversations, 0.5, seed);
        let mut config = FleetConfig::paper_fleet(SystemKind::LoongServe, replicas, policy);
        config.prefix_cache = Some(PrefixCacheConfig::default());
        let a = run_plain(&mut FleetEngine::new(config.clone()), &trace);
        let b = run_plain(&mut FleetEngine::new(config), &trace);
        prop_assert_eq!(&a.assignments, &b.assignments);
        prop_assert_eq!(&a.records, &b.records);
        prop_assert_eq!(a.iterations, b.iterations);
        prop_assert_eq!(a.cache, b.cache);
        prop_assert_eq!(a.total_requests(), trace.len());
    }
}

#[test]
fn one_replica_cached_fleet_reproduces_the_bare_engine() {
    let trace = multi_turn_trace(15, 0.5, 0x5eed_0003);
    let bare = run_system(SystemKind::LoongServe, &trace, true);
    let mut config = FleetConfig::paper_fleet(SystemKind::LoongServe, 1, RouterPolicy::Passthrough);
    config.prefix_cache = Some(PrefixCacheConfig::default());
    let fleet = run_plain(&mut FleetEngine::new(config), &trace);
    assert_eq!(fleet.records, bare.records);
    assert_eq!(fleet.iterations, bare.iterations);
    assert_eq!(fleet.cache, bare.cache);
    assert_eq!(
        outcome_digest(&fleet.per_replica[0].outcome),
        outcome_digest(&bare)
    );
}

#[test]
fn prefix_affinity_routing_beats_conversation_splitting() {
    let trace = multi_turn_trace(40, 0.8, 0x5eed_0004);
    let run_fleet = |policy: RouterPolicy| {
        let mut config = FleetConfig::paper_fleet(SystemKind::LoongServe, 3, policy);
        config.prefix_cache = Some(PrefixCacheConfig::default());
        run_plain(&mut FleetEngine::new(config), &trace)
    };
    let affinity = run_fleet(RouterPolicy::PrefixAffinity);
    let round_robin = run_fleet(RouterPolicy::RoundRobin);
    assert!(affinity.cache.hits > 0);
    assert!(
        affinity.cache.hits >= round_robin.cache.hits,
        "affinity ({}) must not hit less than round-robin ({})",
        affinity.cache.hits,
        round_robin.cache.hits
    );
    // Affinity keeps every turn of a conversation on one replica, so each
    // follow-up can at worst miss on timing, never on placement.
    let summary = affinity.summary(
        "LoongServe x3",
        "ShareGPT multi-turn",
        0.8,
        &SloSpec::default_for_lwm(),
    );
    assert_eq!(summary.fleet.cache, affinity.cache);
    assert_eq!(
        affinity.cache.hits,
        summary
            .per_replica
            .iter()
            .map(|s| s.cache.hits)
            .sum::<u64>()
    );
}
