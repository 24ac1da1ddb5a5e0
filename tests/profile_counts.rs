//! The engine's self-profile counts are exact.
//!
//! An engine hands `loong_simcore::profile` its scheduling points, the
//! scheduler calls made at them and its popped events once per advance, not
//! once per point. The counters are process-global, so this binary holds
//! the only tests that read them, and they take turns: no other test can
//! bump them while one runs.

use loongserve::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Held by each test while it reads the counters.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn fleet_runs_add_exactly_their_scheduler_calls_and_events() {
    let _serial = serial();
    let trace = WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(20.0, 300, 7);
    let mut events = Vec::new();
    for parallel in [false, true] {
        let mut config =
            FleetConfig::paper_fleet(SystemKind::LoongServe, 3, RouterPolicy::JoinShortestQueue);
        config.parallel = parallel;
        let profile = SelfProfile::start();
        let run = FleetEngine::new(config)
            .run(
                TraceStream::from_trace(trace.clone()),
                &FleetPlan::fixed(3),
                None,
            )
            .expect("a valid fleet");
        let counters = profile.report().counters;
        let fleet = &run.fleet;
        assert_eq!(fleet.records.len(), trace.len(), "parallel {parallel}");
        assert_eq!(
            counters.sched_points, fleet.scheduler_calls,
            "parallel {parallel}: `scheduler_calls` counts scheduling points"
        );
        // Without migrations or memory pressure, the events are the
        // arrivals and the completed iterations.
        assert_eq!(fleet.migration_bytes, 0.0);
        assert_eq!(
            counters.events_popped,
            trace.len() as u64 + fleet.iterations,
            "parallel {parallel}"
        );
        events.push(counters.events_popped);
    }
    assert_eq!(events[0], events[1]);
}

/// Runs `trace` through LoongServe on the paper node and returns its
/// scheduling points and the scheduler calls made at them.
fn points_and_calls(trace: &Trace) -> (u64, u64) {
    let system = SystemUnderTest::paper_single_node(SystemKind::LoongServe);
    let mut engine = system.build_engine(Some(trace));
    let profile = SelfProfile::start();
    let outcome = engine.run(trace);
    let counters = profile.report().counters;
    assert_eq!(outcome.unfinished, 0, "{}", trace.label);
    assert_eq!(counters.sched_points, outcome.scheduler_calls);
    (counters.sched_points, counters.sched_calls)
}

#[test]
fn certified_repeats_skip_most_scheduler_calls() {
    let _serial = serial();
    // The count the engine's wall-clock gain rests on: at most points
    // nothing is pending and the decode just made repeats, so the engine
    // re-issues it without calling the scheduler. 2,500 requests at
    // `mixed-longctx`'s rate: 147.3 points and 42.2 calls per request.
    let mixed = WorkloadSpec::Dataset(DatasetKind::Mixed).generate(0.15, 2_500, 2026);
    assert_eq!(points_and_calls(&mixed), (368_373, 105_379));
    // One `sharegpt-fleet` replica's share of that benchmark's load: 14.8
    // points and 7.2 calls per request.
    let sharegpt = WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(30.0, 5_000, 2026);
    assert_eq!(points_and_calls(&sharegpt), (74_213, 36_138));
}
