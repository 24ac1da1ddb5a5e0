//! Conservation properties of the fleet tier.
//!
//! Over random traces, replica counts and **all four routing policies**
//! (plus passthrough), the fleet must conserve requests and tokens:
//!
//! * routing assigns every request to exactly one replica,
//! * every request is accounted for exactly once in the merged outcome
//!   (completed ⊎ rejected ⊎ unfinished), with no loss and no duplication,
//! * completed records carry the input trace's exact token counts, so the
//!   fleet's merged token totals equal the trace's.
//!
//! These are the fleet-scope analogue of the engine's view-equivalence
//! audit: whatever the router decides, the tier above the engines may not
//! invent, drop or mutate work.

use loongserve::prelude::*;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const PROPTEST_SEED: u64 = 0xf1ee_7c05_e27a_7104;

fn ci_config(cases: u32) -> ProptestConfig {
    ProptestConfig {
        cases,
        failure_persistence: Some(FileFailurePersistence::Off),
        rng_seed: PROPTEST_SEED,
    }
}

/// The plain fleet's outcome over a materialised trace.
fn run_plain(fleet: &mut FleetEngine, trace: &Trace) -> FleetOutcome {
    let plan = FleetPlan::fixed(fleet.config().replicas);
    let stream = TraceStream::from_trace(trace.clone());
    fleet.run(stream, &plan, None).expect("valid plan").fleet
}

/// The policy space the properties quantify over: the four load-balancing
/// policies and the passthrough identity.
fn policy(idx: usize) -> RouterPolicy {
    match idx % 5 {
        0 => RouterPolicy::RoundRobin,
        1 => RouterPolicy::JoinShortestQueue,
        2 => RouterPolicy::LeastKvLoad,
        3 => RouterPolicy::PowerOfTwoChoices { seed: 0xdecade },
        _ => RouterPolicy::Passthrough,
    }
}

proptest! {
    // Every case is a full multi-replica fleet simulation (with the
    // engine's debug-build view audit armed inside each replica), so a
    // small case budget still covers a lot of machine.
    #![proptest_config(ci_config(10))]

    /// Routing is a total function onto the replica set: one replica per
    /// request, every request covered, and the split sub-traces partition
    /// the trace.
    #[test]
    fn routing_assigns_every_request_to_exactly_one_replica(
        seed in 0u64..10_000,
        rate_milli in 200u64..8_000,
        count in 1usize..40,
        replicas in 1usize..5,
        policy_idx in 0usize..5,
    ) {
        let rate = rate_milli as f64 / 1000.0;
        let trace = WorkloadSpec::Dataset(DatasetKind::Mixed).generate(rate, count, seed);
        let mut fleet = FleetEngine::new(FleetConfig::paper_fleet(
            SystemKind::LoongServe,
            replicas,
            policy(policy_idx),
        ));
        let assignment = fleet.route(&trace);
        prop_assert_eq!(assignment.len(), trace.len());
        prop_assert!(assignment.iter().all(|&r| r < replicas));
        let subs = trace.split_by_assignment(replicas, &assignment);
        prop_assert_eq!(subs.len(), replicas);
        prop_assert_eq!(subs.iter().map(Trace::len).sum::<usize>(), trace.len());
        // The multiset of ids across sub-traces is exactly the trace's ids.
        let mut routed: Vec<RequestId> = subs
            .iter()
            .flat_map(|s| s.requests.iter().map(|r| r.id))
            .collect();
        routed.sort();
        let mut expected: Vec<RequestId> = trace.requests.iter().map(|r| r.id).collect();
        expected.sort();
        prop_assert_eq!(routed, expected);
    }

    /// A full fleet run conserves requests: completed ⊎ rejected ⊎
    /// unfinished covers the trace exactly once, across all policies and
    /// replica counts, for LoongServe and a baseline system.
    #[test]
    fn fleet_run_completes_every_request_exactly_once(
        seed in 0u64..10_000,
        rate_milli in 200u64..6_000,
        count in 1usize..25,
        replicas in 1usize..5,
        policy_idx in 0usize..5,
        system_idx in 0usize..2,
    ) {
        let kind = [SystemKind::LoongServe, SystemKind::Vllm][system_idx];
        let rate = rate_milli as f64 / 1000.0;
        let trace = WorkloadSpec::Dataset(DatasetKind::Mixed).generate(rate, count, seed);
        let mut fleet = FleetEngine::new(FleetConfig::paper_fleet(
            kind,
            replicas,
            policy(policy_idx),
        ));
        let outcome = run_plain(&mut fleet, &trace);

        // Counts conserve.
        prop_assert_eq!(outcome.total_requests(), count);
        prop_assert_eq!(
            outcome.per_replica.iter().map(|r| r.assigned).sum::<usize>(),
            count
        );
        prop_assert_eq!(outcome.assignments.len(), count);

        // No request appears in more than one terminal set, and none is
        // invented: completed and rejected ids are disjoint subsets of the
        // trace's ids.
        let trace_ids: BTreeSet<RequestId> = trace.requests.iter().map(|r| r.id).collect();
        let completed: BTreeSet<RequestId> = outcome.records.iter().map(|r| r.id).collect();
        prop_assert_eq!(completed.len(), outcome.records.len(), "duplicate completion");
        let rejected: BTreeSet<RequestId> = outcome.rejected.iter().map(|(id, _)| *id).collect();
        prop_assert_eq!(rejected.len(), outcome.rejected.len(), "duplicate rejection");
        prop_assert!(completed.is_disjoint(&rejected), "completed AND rejected");
        prop_assert!(completed.is_subset(&trace_ids), "invented completion");
        prop_assert!(rejected.is_subset(&trace_ids), "invented rejection");
        prop_assert_eq!(
            count - completed.len() - rejected.len(),
            outcome.unfinished,
            "unfinished count inconsistent with terminal sets"
        );

        // Per-replica outcomes merge without loss: the merged record list
        // is exactly the union of replica record lists.
        prop_assert_eq!(
            outcome.per_replica.iter().map(|r| r.outcome.records.len()).sum::<usize>(),
            outcome.records.len()
        );
        prop_assert_eq!(
            outcome.per_replica.iter().map(|r| r.outcome.iterations).sum::<u64>(),
            outcome.iterations
        );
    }

    /// Completed records preserve the trace's token counts bit for bit, so
    /// merged fleet token totals equal the input totals over the completed
    /// set — tokens are neither lost nor duplicated by routing or merging.
    #[test]
    fn fleet_records_conserve_token_totals(
        seed in 0u64..10_000,
        count in 1usize..25,
        replicas in 1usize..5,
        policy_idx in 0usize..5,
    ) {
        let trace = WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(4.0, count, seed);
        let by_id: BTreeMap<RequestId, (u64, u64)> = trace
            .requests
            .iter()
            .map(|r| (r.id, (r.input_len, r.output_len)))
            .collect();
        let mut fleet = FleetEngine::new(FleetConfig::paper_fleet(
            SystemKind::LoongServe,
            replicas,
            policy(policy_idx),
        ));
        let outcome = run_plain(&mut fleet, &trace);
        for record in &outcome.records {
            let &(input_len, output_len) = by_id.get(&record.id).expect("record id from trace");
            prop_assert_eq!(record.input_len, input_len);
            prop_assert_eq!(record.output_len, output_len);
        }
        // Totals over the completed set match the trace's totals over the
        // same set (and therefore the whole trace when everything
        // completes).
        let completed: BTreeSet<RequestId> = outcome.records.iter().map(|r| r.id).collect();
        let expected_tokens: u64 = trace
            .requests
            .iter()
            .filter(|r| completed.contains(&r.id))
            .map(|r| r.input_len + r.output_len)
            .sum();
        let merged_tokens: u64 = outcome
            .records
            .iter()
            .map(|r| r.input_len + r.output_len)
            .sum();
        prop_assert_eq!(merged_tokens, expected_tokens);
    }

    /// Identically-configured fleet runs are bit-for-bit reproducible for
    /// every policy (the property the golden digests spot-check).
    #[test]
    fn fleet_runs_are_deterministic(
        seed in 0u64..10_000,
        count in 1usize..15,
        replicas in 1usize..4,
        policy_idx in 0usize..5,
    ) {
        let trace = WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(6.0, count, seed);
        let run = || {
            let mut fleet = FleetEngine::new(FleetConfig::paper_fleet(
                SystemKind::LoongServe,
                replicas,
                policy(policy_idx),
            ));
            run_plain(&mut fleet, &trace)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.assignments, b.assignments);
        prop_assert_eq!(a.records, b.records);
        prop_assert_eq!(a.rejected, b.rejected);
        prop_assert_eq!(a.sim_time, b.sim_time);
        prop_assert_eq!(a.iterations, b.iterations);
    }
}
