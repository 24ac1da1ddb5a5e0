//! Fleet-tier equivalence and determinism goldens.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Single-replica identity.** A 1-replica [`FleetEngine`] must be the
//!    bare [`ServingEngine`] with routing glued on: under the passthrough
//!    router (and, since every policy degenerates to "the only replica",
//!    under all four load-balancing policies too) the fleet's merged
//!    outcome equals the single engine's [`RunOutcome`] **bit for bit** —
//!    every timestamp, every rejection reason, every counter.
//! 2. **Multi-replica determinism.** 2- and 4-replica fleet runs pin a
//!    64-bit digest of the full [`FleetOutcome`] — assignments, per-replica
//!    outcomes, merged records — alongside the single-engine goldens in
//!    `tests/determinism_golden.rs`. Routing or merge refactors must not
//!    move a bit. The digests live in `tests/golden_util.rs`, where
//!    `tests/reliability_properties.rs` and `tests/elasticity_properties.rs`
//!    pin their armed-but-idle tiers to the same constants.
//!
//! To re-capture after an *intentional* behaviour change, run:
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test --test fleet_equivalence -- --nocapture
//! ```

use loongserve::prelude::*;

#[path = "golden_util.rs"]
mod golden_util;
use golden_util::{
    check_fleet_golden, fleet_digest, FLEET_2X_ROUND_ROBIN, FLEET_4X_JSQ, FLEET_4X_P2C,
};

fn sharegpt_trace(rate: f64, count: usize, seed: u64) -> Trace {
    WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(rate, count, seed)
}

/// Asserts that a fleet's merged outcome equals the single engine's, field
/// by field, bit for bit.
fn assert_outcome_equal(fleet: &FleetOutcome, single: &RunOutcome) {
    assert_eq!(fleet.records, single.records, "records diverged");
    assert_eq!(fleet.rejected, single.rejected, "rejections diverged");
    assert_eq!(fleet.unfinished, single.unfinished, "unfinished diverged");
    assert_eq!(fleet.sim_time, single.sim_time, "sim time diverged");
    assert_eq!(fleet.iterations, single.iterations, "iterations diverged");
    assert_eq!(
        fleet.migration_bytes.to_bits(),
        single.migration_bytes.to_bits(),
        "migration bytes diverged"
    );
    assert_eq!(
        fleet.scheduler_calls, single.scheduler_calls,
        "scheduler calls diverged"
    );
}

fn single_outcome(kind: SystemKind, trace: &Trace) -> RunOutcome {
    let system = SystemUnderTest::paper_single_node(kind);
    let mut engine = system.build_engine(Some(trace));
    engine.run(trace)
}

/// The fleet's run of `trace` under `plan`.
fn fleet_run(
    kind: SystemKind,
    replicas: usize,
    policy: RouterPolicy,
    trace: &Trace,
    plan: &FleetPlan,
) -> FleetRun {
    let mut fleet = FleetEngine::new(FleetConfig::paper_fleet(kind, replicas, policy));
    let stream = TraceStream::from_trace(trace.clone());
    fleet.run(stream, plan, None).expect("valid plan")
}

fn fleet_outcome(
    kind: SystemKind,
    replicas: usize,
    policy: RouterPolicy,
    trace: &Trace,
) -> FleetOutcome {
    fleet_run(kind, replicas, policy, trace, &FleetPlan::fixed(replicas)).fleet
}

#[test]
fn one_replica_passthrough_is_the_bare_engine_bit_for_bit() {
    let trace = sharegpt_trace(6.0, 60, 4242);
    let single = single_outcome(SystemKind::LoongServe, &trace);
    let fleet = fleet_outcome(SystemKind::LoongServe, 1, RouterPolicy::Passthrough, &trace);
    assert_outcome_equal(&fleet, &single);
    // The one replica saw the whole trace.
    assert_eq!(fleet.per_replica.len(), 1);
    assert_eq!(fleet.per_replica[0].assigned, trace.len());
    assert!(fleet
        .assignments
        .iter()
        .all(|&(_, replica)| replica == ReplicaId(0)));
}

#[test]
fn one_replica_passthrough_matches_for_baseline_systems_too() {
    let trace = sharegpt_trace(6.0, 40, 99);
    for kind in [SystemKind::Vllm, SystemKind::DistServe] {
        let single = single_outcome(kind, &trace);
        let fleet = fleet_outcome(kind, 1, RouterPolicy::Passthrough, &trace);
        assert_outcome_equal(&fleet, &single);
    }
}

#[test]
fn every_policy_degenerates_to_passthrough_on_one_replica() {
    let trace = sharegpt_trace(4.0, 30, 7);
    let single = single_outcome(SystemKind::LoongServe, &trace);
    for policy in RouterPolicy::all_policies() {
        let fleet = fleet_outcome(SystemKind::LoongServe, 1, policy, &trace);
        assert_outcome_equal(&fleet, &single);
    }
}

#[test]
fn two_replica_round_robin_outcome_is_pinned() {
    let golden = &FLEET_2X_ROUND_ROBIN;
    check_fleet_golden(golden, "plain", &FleetPlan::fixed(golden.replicas));
}

#[test]
fn four_replica_jsq_outcome_is_pinned() {
    let golden = &FLEET_4X_JSQ;
    check_fleet_golden(golden, "plain", &FleetPlan::fixed(golden.replicas));
}

#[test]
fn four_replica_p2c_outcome_is_pinned() {
    let golden = &FLEET_4X_P2C;
    check_fleet_golden(golden, "plain", &FleetPlan::fixed(golden.replicas));
}

#[test]
fn repeated_fleet_runs_reproduce_the_digest() {
    let trace = sharegpt_trace(12.0, 40, 9);
    let a = fleet_digest(&fleet_outcome(
        SystemKind::LoongServe,
        2,
        RouterPolicy::LeastKvLoad,
        &trace,
    ));
    let b = fleet_digest(&fleet_outcome(
        SystemKind::LoongServe,
        2,
        RouterPolicy::LeastKvLoad,
        &trace,
    ));
    assert_eq!(a, b, "identical seeds must reproduce identical fleet runs");
}
