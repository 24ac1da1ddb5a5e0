//! The engine's self-profile counts are exact.
//!
//! An engine hands `loong_simcore::profile` its scheduling points and
//! popped events once per advance, not once per point. The counters are
//! process-global, so this binary holds the one test that reads them: no
//! other test can bump them while it runs.

use loongserve::prelude::*;

#[test]
fn fleet_runs_add_exactly_their_scheduler_calls_and_events() {
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
            "parallel {parallel}: one scheduling point per scheduler call"
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
