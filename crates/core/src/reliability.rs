//! The reliability tier: crash boundaries of a fleet run.
//!
//! A [`FleetPlan`](crate::fleet::FleetPlan) with a seeded
//! [`FailureSchedule`](loong_workload::failure::FailureSchedule) makes
//! replicas crash and recover on the sim clock. A crashed replica loses
//! everything volatile — device KV, host-swap tier, prefix cache; it
//! restarts as a fresh engine — and the requests that were in flight or
//! queued on it surface back to the fleet frontend as *casualties*, where
//! the [`RetryPolicy`](loong_sched::reliability::RetryPolicy) decides
//! whether they get another attempt and the [`CircuitBreaker`] decides
//! whether the replica does.
//!
//! Replicas run independently between boundaries; a crash is the one
//! event that couples them again, because its casualties must re-enter
//! routing. Crash instants are therefore era boundaries of
//! [`FleetEngine::run`](crate::fleet::FleetEngine::run). At a crash instant
//! `b`, each crashing replica's live engine, already advanced to `b`,
//! processes the instant itself (work completing at `b` counts — the crash
//! interrupts the machine, not the ledger), then gives up whatever it has
//! neither completed nor rejected, and its lifetime ends. Each such
//! casualty feeds the breaker, then is either re-submitted (arrival
//! `b + backoff`, same request id, full re-prefill on whatever replica
//! routing picks next) or terminally failed once its budget is spent. A
//! crash that interrupts a drain settles the drain's remainder the same
//! way.
//!
//! A casualty is not an outcome, it is a transition: the request either
//! reappears later (retry) or moves to `failed` at the crash instant. The
//! proptests sweep random schedules against every router policy to pin
//! the exactly-once partition.

use crate::fleet::{LiveEngine, RunState};
use loong_simcore::ids::{ReplicaId, RequestId};
use loong_simcore::time::SimTime;
use loong_workload::request::Request;

#[cfg(doc)]
use loong_sched::reliability::CircuitBreaker;

/// A request that terminally failed: it lost an attempt to a crash and had
/// no retry budget left.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedRequest {
    /// The request.
    pub id: RequestId,
    /// The crash instant at which its budget ran out.
    pub at: SimTime,
    /// The replica whose crash consumed the last attempt.
    pub replica: ReplicaId,
    /// Human-readable reason.
    pub reason: String,
}

impl RunState<'_> {
    /// Resolves every crash striking at `b`: the fleet advances to `b`,
    /// then each crashing replica's engine processes the instant itself,
    /// gives up what it has not resolved as casualties, and its lifetime
    /// ends.
    pub(crate) fn crash_boundary(&mut self, b: SimTime) {
        let plan = self.plan;
        let crashes = || plan.schedule.events().iter().filter(move |e| e.crash == b);
        if let Some(rec) = self.rec.as_deref_mut() {
            for event in crashes() {
                rec.crash(b, event.replica);
                rec.recover(event.recover, event.replica);
            }
        }
        self.advance_all(b);
        // Settlement runs serially in replica-id order (events are sorted by
        // (crash, replica)). A replica with no live engine — cold, retired,
        // or given nothing since its last restart — has nothing to lose.
        for event in crashes() {
            if let Some(live) = self.slots[event.replica.index()].engine.take() {
                self.crash_lifetime(event.replica, live, b);
            }
        }
    }

    /// A crash of `replica` at `at` ends its engine lifetime. The engine
    /// first processes the instant itself — the crash interrupts the
    /// machine, not the ledger, so work completing at `at` counts — then
    /// gives up what it has not resolved as casualties. The lifetime closes
    /// before settlement: its recording's in-flight requests become the
    /// run's open entries, which settlement closes.
    pub(crate) fn crash_lifetime(&mut self, replica: ReplicaId, mut live: LiveEngine, at: SimTime) {
        live.drive(|engine, sink| engine.advance_through(at, sink));
        let casualties = live.engine.take_unresolved();
        self.close_lifetime(replica.index(), live.end());
        self.settle_casualties(casualties, replica, at);
    }

    /// Resolves `casualties` — the requests a crash of `replica` at `at`
    /// took, in id order: each feeds the breaker, then becomes a retry or a
    /// terminal failure under the retry policy.
    fn settle_casualties(&mut self, casualties: Vec<Request>, replica: ReplicaId, at: SimTime) {
        let retry_policy = self.plan.retry;
        for req in casualties {
            self.stats.failed_attempts += 1;
            self.casualty_ids.insert(req.id);
            if let Some(rec) = self.rec.as_deref_mut() {
                rec.casualty(at, req.id);
            }
            let tripped = self
                .breaker
                .as_mut()
                .is_some_and(|breaker| breaker.record_failure(replica, at));
            if let (true, Some(rec)) = (tripped, self.rec.as_deref_mut()) {
                rec.breaker_open(at, replica);
            }
            let used = self.retries_used.get(&req.id).copied().unwrap_or(0);
            if retry_policy.allows(used) {
                let attempt = used + 1;
                self.retries_used.insert(req.id, attempt);
                let mut retry = req;
                retry.arrival = at + retry_policy.backoff(attempt);
                self.stats.retries_scheduled += 1;
                self.stats.re_prefilled_tokens += retry.input_len;
                if let Some(rec) = self.rec.as_deref_mut() {
                    rec.retry_scheduled(at, retry.id, attempt, retry.arrival);
                }
                self.pending.insert((retry.arrival, retry.id), retry);
                self.grow_resident();
            } else {
                self.stats.retries_exhausted += 1;
                let reason = format!(
                    "{replica} crashed at {at} with no retry budget left ({used} of {} used)",
                    retry_policy.max_retries
                );
                if let Some(rec) = self.rec.as_deref_mut() {
                    rec.request_failed(at, req.id, &reason);
                }
                self.failed.push(FailedRequest {
                    id: req.id,
                    at,
                    replica,
                    reason,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FleetConfig, FleetEngine, FleetPlan, FleetRun};
    use crate::systems::SystemKind;
    use loong_sched::elastic::AutoscalerConfig;
    use loong_sched::reliability::{CircuitBreakerConfig, RetryPolicy};
    use loong_sched::router::RouterPolicy;
    use loong_workload::datasets::DatasetKind;
    use loong_workload::failure::{FailureEvent, FailureSchedule};
    use loong_workload::stream::TraceStream;
    use loong_workload::trace::Trace;

    fn small_trace(count: usize, seed: u64) -> Trace {
        crate::experiment::WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(8.0, count, seed)
    }

    fn fleet(replicas: usize, policy: RouterPolicy) -> FleetEngine {
        FleetEngine::new(FleetConfig::paper_fleet(
            SystemKind::LoongServe,
            replicas,
            policy,
        ))
    }

    fn run(engine: &mut FleetEngine, trace: &Trace, plan: &FleetPlan) -> FleetRun {
        let stream = TraceStream::from_trace(trace.clone());
        engine.run(stream, plan, None).expect("valid plan")
    }

    /// Fail-fast handling of `schedule` on a fixed fleet of `n`.
    fn crashing(n: usize, schedule: FailureSchedule) -> FleetPlan {
        FleetPlan::fixed(n).with_schedule(schedule)
    }

    fn crash(replica: u64, at: f64, recover: f64) -> FailureEvent {
        FailureEvent::new(
            ReplicaId(replica),
            SimTime::from_secs(at),
            SimTime::from_secs(recover),
        )
    }

    #[test]
    fn disarmed_run_matches_plain_run() {
        let trace = small_trace(24, 3);
        let mut engine = fleet(2, RouterPolicy::RoundRobin);
        let plain = run(&mut engine, &trace, &FleetPlan::fixed(2)).fleet;
        let armed = FleetPlan::fixed(2)
            .with_retry(RetryPolicy::exponential(3, 0.5))
            .with_breaker(CircuitBreakerConfig::new(3, 60.0, 120.0));
        let reliable = run(&mut engine, &trace, &armed);
        assert_eq!(plain.records, reliable.fleet.records);
        assert_eq!(plain.rejected, reliable.fleet.rejected);
        assert_eq!(plain.assignments, reliable.fleet.assignments);
        assert_eq!(plain.unfinished, reliable.fleet.unfinished);
        assert_eq!(plain.sim_time, reliable.fleet.sim_time);
        assert_eq!(plain.iterations, reliable.fleet.iterations);
        assert!(reliable.failed.is_empty());
        assert!(reliable.reliability.is_zero());
    }

    #[test]
    fn fail_fast_crash_fails_unresolved_requests_terminally() {
        let trace = small_trace(24, 3);
        // Crash replica 0 early enough that some of its requests are still
        // in flight, with no retry budget.
        let schedule = FailureSchedule::from_events(vec![crash(0, 1.0, 1_000.0)]);
        let mut engine = fleet(2, RouterPolicy::RoundRobin);
        let outcome = run(&mut engine, &trace, &crashing(2, schedule));
        assert_eq!(outcome.total_requests(), trace.len());
        assert!(
            !outcome.failed.is_empty(),
            "an early crash with no retries must fail something"
        );
        assert_eq!(
            outcome.reliability.retries_exhausted,
            outcome.failed.len() as u64
        );
        assert_eq!(outcome.reliability.retries_scheduled, 0);
        assert_eq!(outcome.reliability.crashes, 1);
        // Terminal failures and completions are disjoint.
        for f in &outcome.failed {
            assert!(outcome
                .fleet
                .records
                .binary_search_by_key(&f.id, |r| r.id)
                .is_err());
        }
    }

    #[test]
    fn retries_recover_what_fail_fast_loses() {
        let trace = small_trace(24, 3);
        let plan = || crashing(2, FailureSchedule::from_events(vec![crash(0, 1.0, 2.0)]));
        let mut engine = fleet(2, RouterPolicy::RoundRobin);
        let fail_fast = run(&mut engine, &trace, &plan());
        let retried = run(
            &mut engine,
            &trace,
            &plan().with_retry(RetryPolicy::exponential(3, 0.5)),
        );
        assert!(!fail_fast.failed.is_empty());
        assert!(retried.failed.is_empty(), "one crash, three retries");
        assert_eq!(retried.fleet.records.len(), trace.len());
        assert_eq!(
            retried.reliability.recovered_requests,
            fail_fast.failed.len() as u64
        );
        assert!(retried.reliability.re_prefilled_tokens > 0);
        assert_eq!(retried.total_requests(), trace.len());
    }

    #[test]
    fn breaker_keeps_a_crash_looping_replica_out_of_rotation() {
        let trace = small_trace(30, 11);
        // Replica 0 crash-loops; the breaker should trip and the stats
        // ledger should say so — on a fixed fleet and under an elastic
        // autoscaler whose control boundaries interleave with the crashes.
        let schedule = FailureSchedule::from_events(vec![
            crash(0, 0.5, 0.6),
            crash(0, 0.7, 0.8),
            crash(0, 0.9, 1.0),
        ]);
        let mut scaler = AutoscalerConfig::overload_defaults(1, 2);
        scaler.control_interval_s = 0.8;
        for plan in [FleetPlan::fixed(2), FleetPlan::new(scaler).with_initial(2)] {
            let plan = plan
                .with_schedule(schedule.clone())
                .with_retry(RetryPolicy::exponential(5, 0.1))
                .with_breaker(CircuitBreakerConfig::new(2, 60.0, 3_600.0));
            let outcome = run(
                &mut fleet(2, RouterPolicy::JoinShortestQueue),
                &trace,
                &plan,
            );
            assert!(outcome.reliability.breaker_opens >= 1);
            assert_eq!(outcome.total_requests(), trace.len());
            // With the breaker holding replica 0 open for an hour, late
            // assignments all land on replica 1.
            let after_trip = outcome
                .fleet
                .assignments
                .iter()
                .rev()
                .take(5)
                .all(|&(_, r)| r == ReplicaId(1));
            assert!(after_trip, "breaker must exclude the crash-looping replica");
        }
    }

    #[test]
    fn whole_fleet_outage_waits_for_earliest_recovery() {
        let trace = small_trace(12, 5);
        // Both replicas down over [0, 100) / [0, 50): every early arrival
        // must wait and land on replica 1, which recovers first.
        let schedule =
            FailureSchedule::from_events(vec![crash(0, 0.0, 100.0), crash(1, 0.0, 50.0)]);
        let mut engine = fleet(2, RouterPolicy::RoundRobin);
        let plan = crashing(2, schedule).with_retry(RetryPolicy::exponential(1, 1.0));
        let outcome = run(&mut engine, &trace, &plan);
        assert_eq!(outcome.total_requests(), trace.len());
        // Nothing can complete before replica 1 recovers.
        for record in &outcome.fleet.records {
            assert!(record.finish >= SimTime::from_secs(50.0));
        }
    }

    /// One long request on one replica that crashes at 1 s and again at
    /// 2 s: the request is a casualty twice, so it takes two retries and
    /// the breaker sees two failures.
    fn twice_crashed(plan: impl FnOnce(FleetPlan) -> FleetPlan) -> Result<FleetRun, String> {
        let request = Request::with_max_output(RequestId(0), SimTime::ZERO, 8_000, 4_000, 4_000);
        let trace = Trace::from_requests("one long request", vec![request]);
        let schedule = FailureSchedule::from_events(vec![crash(0, 1.0, 1.1), crash(0, 2.0, 2.1)]);
        let base = crashing(1, schedule).with_retry(RetryPolicy::exponential(3, 0.5));
        fleet(1, RouterPolicy::Passthrough).run(TraceStream::from_trace(trace), &plan(base), None)
    }

    fn assert_rejected(result: Result<FleetRun, String>, expected: &str) {
        let err = result.expect_err("the plan must be rejected before the run");
        assert!(err.contains(expected), "unexpected error: {err}");
    }

    #[test]
    fn twice_crashed_request_retries_under_a_valid_plan() {
        let outcome = twice_crashed(|plan| plan).expect("valid plan");
        assert_eq!(outcome.reliability.retries_scheduled, 2);
        assert_eq!(outcome.fleet.records.len(), 1);
    }

    #[test]
    fn negative_backoff_base_is_rejected() {
        // Once panicked in `SimDuration::from_secs` at the first casualty.
        let result = twice_crashed(|mut plan| {
            plan.retry.backoff_base_s = -1.0;
            plan
        });
        assert_rejected(result, "retry backoff");
    }

    #[test]
    fn negative_backoff_factor_is_rejected() {
        // Once panicked at the second casualty, whose backoff went negative.
        let result = twice_crashed(|mut plan| {
            plan.retry.backoff_factor = -1.0;
            plan
        });
        assert_rejected(result, "retry backoff");
    }

    #[test]
    fn zero_breaker_threshold_is_rejected() {
        // Once tripped the breaker open on every single casualty.
        let result = twice_crashed(|plan| {
            plan.with_breaker(CircuitBreakerConfig {
                failure_threshold: 0,
                window_s: 60.0,
                cooldown_s: 1.0,
            })
        });
        assert_rejected(result, "circuit breaker");
    }

    #[test]
    fn non_positive_breaker_window_is_rejected() {
        // Once panicked in `SimDuration::from_secs` at the first casualty.
        let result = twice_crashed(|plan| {
            plan.with_breaker(CircuitBreakerConfig {
                failure_threshold: 2,
                window_s: -1.0,
                cooldown_s: 1.0,
            })
        });
        assert_rejected(result, "circuit breaker");
    }

    #[test]
    fn negative_breaker_cooldown_is_rejected() {
        // Once panicked in `SimDuration::from_secs` when the breaker tripped.
        let result = twice_crashed(|plan| {
            plan.with_breaker(CircuitBreakerConfig {
                failure_threshold: 1,
                window_s: 60.0,
                cooldown_s: -1.0,
            })
        });
        assert_rejected(result, "circuit breaker");
    }

    #[test]
    fn zero_sla_window_is_rejected() {
        // Once simulated the whole trace, then panicked in
        // `availability_windows`.
        let result = twice_crashed(|mut plan| {
            plan.sla_window_s = 0.0;
            plan
        });
        assert_rejected(result, "SLA window");
    }
}
