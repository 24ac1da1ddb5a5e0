//! The elasticity tier: control boundaries of a fleet run — SLO-driven
//! autoscaling, admission control and load shedding.
//!
//! When a [`FleetPlan`] arms a controller — an autoscaler with room to
//! scale, or an admission controller — [`FleetEngine::run`] adds a control
//! instant every `control_interval_s` on the sim clock, while arrivals
//! remain, to the crash instants of its failure schedule. At a control
//! instant the fleet may change shape:
//!
//! * **Observe.** The closed window is measured — per-replica unresolved
//!   backlog and the SLO attainment of the window's completions — off each
//!   ready replica's live engine, once every engine has advanced to the
//!   boundary. Reading an engine changes nothing.
//! * **Scale up.** The [`Autoscaler`] may activate the lowest-id cold (or
//!   previously retired) replicas, which become routable only after the
//!   provisioning delay, with an empty KV pool and a cold prefix cache.
//! * **Scale down.** It may instead *drain*: the victim leaves the routable
//!   set immediately (the router is told via `on_replica_removed`, so
//!   durable affinity pins are dropped), finishes every request already
//!   routed to it — its engine runs to the end of its work — and retires
//!   when the last one completes. **No request is ever killed by a scale
//!   event.** A crash that strikes a replica
//!   *mid-drain* interrupts the drain: the victim retires at the crash
//!   instant and whatever it had not finished becomes ordinary crash
//!   casualties ([`crate::reliability`]).
//!
//! The [`AdmissionController`] (when armed) guards original arrivals at
//! the frontend: while the fleet saturates, best-effort traffic is shed
//! outright and any class whose estimated queueing delay exceeds its
//! deadline is rejected early, behind a hysteresis band so shedding cannot
//! flap. Retries bypass admission — a casualty is already inside the
//! system; shedding applies at the front door only. A drain moves nothing
//! between the five ledgers — drained work completes; only a crash can.
//!
//! An autoscaler that never fires ([`AutoscalerConfig::fixed`]) plus an
//! admission controller that never sheds ([`AdmissionConfig::never_sheds`])
//! still run every control boundary — engines advance, the window is
//! observed, decisions are taken — but none of it can perturb routing or
//! accounting, so
//! [`FleetPlan::armed_idle`] reproduces the plain fleet **bit for bit**
//! (`tests/elasticity_properties.rs` pins this).

use crate::fleet::{FleetPlan, FleetRun, Life, RunState};
use loong_metrics::record::RequestRecord;
use loong_sched::elastic::{AdmissionDecision, FleetSignals, ScaleDecision, ShedReason};
use loong_simcore::ids::{ReplicaId, RequestId};
use loong_simcore::time::{SimDuration, SimTime};
use loong_workload::request::{Request, TrafficClass};

#[cfg(doc)]
use crate::fleet::FleetEngine;
#[cfg(doc)]
use loong_sched::elastic::{AdmissionConfig, AdmissionController, Autoscaler, AutoscalerConfig};

/// The plan type under its pre-[`FleetPlan`] name, which the benchmark
/// harness in `perfbench/` still uses.
pub type ElasticConfig = FleetPlan;

/// The run result under its pre-[`FleetRun`] name, which the benchmark
/// harness in `perfbench/` still uses.
pub type ElasticFleetOutcome = FleetRun;

/// A request shed by the frontend admission controller: it never reached a
/// replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShedRequest {
    /// The request.
    pub id: RequestId,
    /// Its arrival instant (the shed instant — shedding is immediate).
    pub at: SimTime,
    /// The service class it arrived under.
    pub class: TrafficClass,
    /// Why it was shed.
    pub reason: ShedReason,
}

/// What a fleet scale event did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetScaleKind {
    /// A cold (or previously retired) replica was activated; it becomes
    /// routable at `ready_at` (decision instant + provisioning delay) with
    /// an empty KV pool and a cold prefix cache.
    Activated {
        /// The replica.
        replica: ReplicaId,
        /// When it becomes routable.
        ready_at: SimTime,
    },
    /// An active replica was drained and retired. The drain started at the
    /// event instant and took `drain_s` sim-seconds — zero when the victim
    /// had nothing in flight.
    Retired {
        /// The replica.
        replica: ReplicaId,
        /// Drain duration (decision to retirement), in sim-seconds.
        drain_s: f64,
    },
}

/// One fleet scale event, in decision order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetScaleEvent {
    /// The control boundary at which the decision was taken.
    pub at: SimTime,
    /// What happened.
    pub kind: FleetScaleKind,
    /// Active replicas (routable or provisioning) after the event.
    pub active_after: usize,
}

impl RunState<'_> {
    /// Replicas in the `Active` state (routable or provisioning).
    fn active_count(&self) -> usize {
        self.life
            .iter()
            .filter(|l| matches!(l, Life::Active { .. }))
            .count()
    }

    /// The frontend's admission decision for one original arrival: `true`
    /// routes it, `false` sheds it into the ledger. Always `true` when
    /// the controller is unarmed.
    pub(crate) fn admit(&mut self, req: &Request) -> bool {
        let Some(admission) = self.admission.as_mut() else {
            return true;
        };
        let ready = self.life.iter().filter(|l| l.ready_at(req.arrival)).count();
        let backlog = self
            .last_observed_backlog
            .saturating_add(self.routed_since_observation);
        let AdmissionDecision::Shed(reason) = admission.admit(req.class, backlog, ready) else {
            return true;
        };
        if let Some(rec) = self.rec.as_deref_mut() {
            rec.shed(req.arrival, req.id, req.class, &format!("{reason:?}"));
        }
        match req.class {
            TrafficClass::Interactive => self.elastic.shed_interactive += 1,
            TrafficClass::Standard => self.elastic.shed_standard += 1,
            TrafficClass::BestEffort => self.elastic.shed_best_effort += 1,
        }
        if reason == ShedReason::DeadlineExceeded {
            self.elastic.deadline_rejections += 1;
        }
        self.shed.push(ShedRequest {
            id: req.id,
            at: req.arrival,
            class: req.class,
            reason,
        });
        false
    }

    /// One control boundary: observe the closed window, let the autoscaler
    /// decide, apply the decision.
    pub(crate) fn control_boundary(&mut self, b: SimTime) {
        let (signals, backlogs) = self.observe(b);
        self.last_observed_backlog = signals.backlog_tokens;
        self.routed_since_observation = 0;
        match self.autoscaler.decide(b.as_secs(), &signals) {
            ScaleDecision::Hold => {}
            ScaleDecision::Up(count) => self.scale_up(b, count),
            ScaleDecision::Down(count) => self.scale_down(b, count, &backlogs),
        }
        let active = self.active_count() as u64;
        self.elastic.min_active_replicas = self.elastic.min_active_replicas.min(active);
        self.elastic.max_active_replicas = self.elastic.max_active_replicas.max(active);
    }

    /// Measures the window that closes at `b`: per-replica unresolved
    /// backlog (worst-case tokens) and the SLO attainment of completions
    /// inside the window, read off each ready replica's live engine once
    /// the fleet has advanced to `b`. Reading changes nothing, which is
    /// what keeps an armed-but-idle controller bit-for-bit.
    fn observe(&mut self, b: SimTime) -> (FleetSignals, Vec<u64>) {
        self.advance_all(b);
        let window_start = b.as_secs() - self.plan.autoscaler.control_interval_s;
        let mut backlogs = vec![0u64; self.n];
        let mut window_records: Vec<RequestRecord> = Vec::new();
        let mut active_replicas = 0;
        for (r, slot) in self.slots.iter().enumerate() {
            if !self.life[r].ready_at(b) {
                continue;
            }
            active_replicas += 1;
            if let Some(live) = &slot.engine {
                let signals = live.engine.signals();
                backlogs[r] = signals.backlog_tokens;
                let done = signals.completed;
                let from = done.partition_point(|rec| rec.finish.as_secs() <= window_start);
                window_records.extend_from_slice(&done[from..]);
            }
        }
        let signals = FleetSignals {
            attainment: self.plan.signal_slo.attainment(&window_records),
            backlog_tokens: backlogs.iter().sum(),
            active_replicas,
        };
        (signals, backlogs)
    }

    /// Activates up to `want` cold or retired replicas (lowest id first).
    /// Each becomes routable after the provisioning delay, with an empty
    /// KV pool and a cold prefix cache (its next admission starts a fresh
    /// engine, so this falls out of the execution model).
    fn scale_up(&mut self, b: SimTime, want: usize) {
        let delay_s = self.plan.autoscaler.provisioning_delay_s;
        let ready_at = b + SimDuration::from_secs(delay_s);
        let mut activated = 0usize;
        for r in 0..self.n {
            if activated == want {
                break;
            }
            if matches!(self.life[r], Life::Cold | Life::Retired { .. }) {
                self.life[r] = Life::Active { since: ready_at };
                self.elastic.provisioning_s += delay_s;
                activated += 1;
                let replica = ReplicaId::from(r);
                if let Some(rec) = self.rec.as_deref_mut() {
                    rec.replica_activated(b, replica, ready_at);
                }
                self.scale_events.push(FleetScaleEvent {
                    at: b,
                    kind: FleetScaleKind::Activated { replica, ready_at },
                    active_after: self.active_count(),
                });
            }
        }
        if activated > 0 {
            self.elastic.scale_up_events += 1;
        }
    }

    /// Drains and retires up to `want` ready replicas. Victims are the
    /// ready actives with the smallest observed backlog (ties to the
    /// highest id — retire the newest). Each victim leaves the routable
    /// set at `b`, finishes everything already routed to it, and retires
    /// when its last request completes — unless a scheduled crash strikes
    /// it mid-drain, in which case it retires at the crash and the
    /// remainder becomes crash casualties.
    fn scale_down(&mut self, b: SimTime, want: usize, backlogs: &[u64]) {
        let mut ready: Vec<(u64, usize)> = (0..self.n)
            .filter(|&r| self.life[r].ready_at(b))
            .map(|r| (backlogs[r], r))
            .collect();
        ready.sort_by(|a, other| a.0.cmp(&other.0).then(other.1.cmp(&a.1)));
        let victims: Vec<usize> = ready.iter().take(want).map(|&(_, r)| r).collect();
        if victims.is_empty() {
            return;
        }
        self.elastic.scale_down_events += 1;
        for r in victims {
            let replica = ReplicaId::from(r);
            let Life::Active { since } = self.life[r] else {
                unreachable!("victims are selected among active replicas");
            };
            // Durably drop the router's state for the victim (affinity
            // pins must not resurrect on the retired replica).
            self.router.on_replica_removed(replica);
            let drain_end = self.drain(replica, b);
            let drain_s = drain_end.saturating_since(b).as_secs();
            if let Some(rec) = self.rec.as_deref_mut() {
                rec.replica_retired(drain_end, replica);
            }
            self.life[r] = Life::Retired { at: drain_end };
            self.active_spans_s[r] += drain_end.saturating_since(since).as_secs();
            self.elastic.drains_completed += 1;
            self.elastic.total_drain_s += drain_s;
            self.elastic.max_drain_s = self.elastic.max_drain_s.max(drain_s);
            self.scale_events.push(FleetScaleEvent {
                at: b,
                kind: FleetScaleKind::Retired { replica, drain_s },
                active_after: self.active_count(),
            });
        }
    }

    /// Drains a victim from `b` and returns the instant it retires: when
    /// its engine runs out of work, or at its first scheduled crash before
    /// then. A crash interrupts the drain: the remainder is settled as
    /// casualties, and the crash boundary itself later finds no live engine
    /// and skips.
    fn drain(&mut self, replica: ReplicaId, b: SimTime) -> SimTime {
        let r = replica.index();
        let Some(mut live) = self.slots[r].engine.take() else {
            return b;
        };
        let crash = self
            .plan
            .schedule
            .events()
            .iter()
            .filter(|e| e.replica == replica && e.crash > b)
            .map(|e| e.crash)
            .min();
        if let Some(crash) = crash {
            live.drive(|engine, sink| engine.advance_through(crash, sink));
            if !live.engine.signals().idle {
                self.crash_lifetime(replica, live, crash);
                return crash;
            }
        }
        live.drive(|engine, sink| engine.advance_to_end(sink));
        let finish = live.engine.signals().now;
        self.close_lifetime(r, live.end());
        finish.max(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FleetConfig, FleetEngine};
    use crate::systems::SystemKind;
    use loong_metrics::slo::{class_slo, SloSpec};
    use loong_sched::elastic::{AdmissionConfig, AutoscalerConfig};
    use loong_sched::reliability::RetryPolicy;
    use loong_sched::router::RouterPolicy;
    use loong_workload::datasets::DatasetKind;
    use loong_workload::failure::{FailureEvent, FailureSchedule};
    use loong_workload::stream::TraceStream;
    use loong_workload::trace::Trace;
    use std::collections::BTreeSet;

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
        engine.run(stream, plan, None).unwrap()
    }

    fn exactly_once(outcome: &FleetRun, trace: &Trace) {
        assert_eq!(outcome.total_requests(), trace.len());
        // The five ledgers are disjoint by id.
        let mut seen: BTreeSet<RequestId> = BTreeSet::new();
        for id in outcome
            .fleet
            .records
            .iter()
            .map(|r| r.id)
            .chain(outcome.fleet.rejected.iter().map(|r| r.0))
            .chain(outcome.failed.iter().map(|f| f.id))
            .chain(outcome.shed.iter().map(|s| s.id))
        {
            assert!(seen.insert(id), "{id:?} resolved twice");
        }
    }

    #[test]
    fn armed_idle_run_matches_plain_run() {
        let trace = small_trace(24, 3);
        let mut engine = fleet(2, RouterPolicy::RoundRobin);
        let plain = run(&mut engine, &trace, &FleetPlan::fixed(2)).fleet;
        let elastic = run(&mut engine, &trace, &FleetPlan::armed_idle(2));
        assert_eq!(plain.records, elastic.fleet.records);
        assert_eq!(plain.rejected, elastic.fleet.rejected);
        assert_eq!(plain.assignments, elastic.fleet.assignments);
        assert_eq!(plain.unfinished, elastic.fleet.unfinished);
        assert_eq!(plain.sim_time, elastic.fleet.sim_time);
        assert_eq!(plain.iterations, elastic.fleet.iterations);
        assert!(elastic.shed.is_empty());
        assert!(elastic.scale_events.is_empty());
        assert!(elastic.failed.is_empty());
        assert_eq!(elastic.elasticity.scale_up_events, 0);
        assert_eq!(elastic.elasticity.scale_down_events, 0);
        assert_eq!(elastic.elasticity.min_active_replicas, 2);
        assert_eq!(elastic.elasticity.max_active_replicas, 2);
        // Two replicas, active for the whole makespan.
        let expected = 2.0 * plain.sim_time.as_secs();
        assert!((elastic.elasticity.replica_seconds - expected).abs() < 1e-9);
    }

    #[test]
    fn scale_up_activates_cold_replicas_after_provisioning() {
        // One active replica, room for three more, a trace heavy enough to
        // blow through the backlog threshold at the first boundary.
        let trace = small_trace(120, 7);
        let mut scaler = AutoscalerConfig::overload_defaults(1, 4);
        scaler.control_interval_s = 5.0;
        scaler.cooldown_s = 0.0;
        scaler.scale_up_backlog_tokens = 2_000;
        scaler.scale_down_backlog_tokens = 500;
        let cfg = FleetPlan::new(scaler);
        let mut engine = fleet(4, RouterPolicy::JoinShortestQueue);
        let outcome = run(&mut engine, &trace, &cfg);
        exactly_once(&outcome, &trace);
        assert!(
            outcome.elasticity.scale_up_events >= 1,
            "burst must scale up"
        );
        let activation = outcome
            .scale_events
            .iter()
            .find_map(|e| match e.kind {
                FleetScaleKind::Activated { replica, ready_at } => Some((e.at, replica, ready_at)),
                _ => None,
            })
            .expect("at least one activation");
        let (at, replica, ready_at) = activation;
        assert_eq!(
            ready_at,
            at + SimDuration::from_secs(cfg.autoscaler.provisioning_delay_s),
            "cold replicas come up after the provisioning delay"
        );
        // Nothing routes to the cold replica before it is ready.
        for (i, &(_, rep)) in outcome.fleet.assignments.iter().enumerate() {
            if rep == replica {
                assert!(
                    outcome.route_instants[i] >= ready_at,
                    "routed to {replica} at {} before ready_at {ready_at}",
                    outcome.route_instants[i]
                );
            }
        }
        assert!(outcome.elasticity.provisioning_s > 0.0);
    }

    #[test]
    fn scale_down_drains_without_killing_requests() {
        // A front-loaded burst, then a long quiet tail (one straggler keeps
        // control boundaries alive): the fleet must shrink and every
        // request must still complete.
        let mut requests = small_trace(40, 11).requests;
        let straggler_id = RequestId(40);
        requests.push(Request::new(
            straggler_id,
            SimTime::from_secs(400.0),
            500,
            50,
        ));
        let trace = Trace::from_requests("burst then quiet", requests);
        let mut scaler = AutoscalerConfig::overload_defaults(1, 2);
        scaler.control_interval_s = 30.0;
        scaler.cooldown_s = 0.0;
        let cfg = FleetPlan::new(scaler).with_initial(2);
        let mut engine = fleet(2, RouterPolicy::RoundRobin);
        let outcome = run(&mut engine, &trace, &cfg);
        exactly_once(&outcome, &trace);
        assert!(
            outcome.elasticity.scale_down_events >= 1,
            "the quiet tail must scale down"
        );
        assert_eq!(
            outcome.elasticity.drains_completed,
            outcome
                .scale_events
                .iter()
                .filter(|e| matches!(e.kind, FleetScaleKind::Retired { .. }))
                .count() as u64
        );
        // No request was killed: nothing failed, nothing unfinished, and
        // every id completed (or was rejected by a replica's own engine).
        assert!(outcome.failed.is_empty());
        assert_eq!(outcome.fleet.unfinished, 0);
        assert_eq!(
            outcome.fleet.records.len() + outcome.fleet.rejected.len(),
            trace.len()
        );
        // Drained replicas accept no new routes after the drain decision.
        for event in &outcome.scale_events {
            if let FleetScaleKind::Retired { replica, .. } = event.kind {
                for (i, &(_, rep)) in outcome.fleet.assignments.iter().enumerate() {
                    if rep == replica {
                        assert!(
                            outcome.route_instants[i] < event.at,
                            "routed to retired {replica} at {} after drain at {}",
                            outcome.route_instants[i],
                            event.at
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn crash_during_drain_retires_at_the_crash_and_retries_the_rest() {
        // Two busy replicas; the autoscaler (aggressively tuned) drains one
        // at the first control boundary; a scheduled crash then strikes the
        // victim mid-drain. The drain must stop at the crash, the victim's
        // unfinished work must retry elsewhere, and nothing is lost.
        // Round-robin puts the long-decode pair on replica 0 and the
        // shorter pair on replica 1, so replica 1 (smaller backlog) is the
        // drain victim — still decoding well past the crash at 8 s.
        let requests = vec![
            Request::with_max_output(RequestId(0), SimTime::ZERO, 8_000, 2_000, 2_000),
            Request::with_max_output(RequestId(1), SimTime::from_secs(0.1), 4_000, 1_500, 1_500),
            Request::with_max_output(RequestId(2), SimTime::from_secs(0.2), 8_000, 2_000, 2_000),
            Request::with_max_output(RequestId(3), SimTime::from_secs(0.3), 4_000, 1_500, 1_500),
        ];
        let trace = Trace::from_requests("crash during drain", requests);
        let mut scaler = AutoscalerConfig::overload_defaults(1, 2);
        scaler.control_interval_s = 5.0;
        scaler.cooldown_s = 0.0;
        // Generous thresholds: at the first boundary both replicas are
        // under the down-threshold, so the drain decision fires while the
        // victim still has work in flight.
        scaler.scale_up_backlog_tokens = 100_000;
        scaler.scale_down_backlog_tokens = 50_000;
        let schedule = FailureSchedule::from_events(vec![FailureEvent::new(
            ReplicaId(1),
            SimTime::from_secs(8.0),
            SimTime::from_secs(9.0),
        )]);
        let cfg = FleetPlan::new(scaler)
            .with_initial(2)
            .with_schedule(schedule)
            .with_retry(RetryPolicy::exponential(3, 1.0));
        let mut engine = fleet(2, RouterPolicy::RoundRobin);
        let outcome = run(&mut engine, &trace, &cfg);
        exactly_once(&outcome, &trace);
        // The victim (replica 1: smaller backlog, then highest id on ties)
        // retired exactly at the crash instant.
        let retired = outcome
            .scale_events
            .iter()
            .find_map(|e| match e.kind {
                FleetScaleKind::Retired { replica, drain_s } => Some((e.at, replica, drain_s)),
                _ => None,
            })
            .expect("the drain decision must fire");
        let (at, victim, drain_s) = retired;
        assert_eq!(victim, ReplicaId(1));
        assert_eq!(at, SimTime::from_secs(5.0));
        assert!(
            (drain_s - 3.0).abs() < 1e-9,
            "drain runs from the decision at 5 s to the crash at 8 s, got {drain_s}"
        );
        // The interrupted work retried and completed: no terminal failures,
        // every request in the records.
        assert!(outcome.reliability.retries_scheduled >= 1);
        assert!(outcome.failed.is_empty());
        assert_eq!(outcome.fleet.records.len(), trace.len());
        assert!(outcome.reliability.recovered_requests >= 1);
    }

    #[test]
    fn saturated_fleet_sheds_best_effort_first() {
        // A single tiny-capacity replica under a heavy mixed burst: the
        // shedder must engage and best-effort traffic must bear it.
        let mut requests = Vec::new();
        for i in 0..30u64 {
            let class = if i % 3 == 0 {
                TrafficClass::BestEffort
            } else {
                TrafficClass::Interactive
            };
            requests.push(
                Request::with_max_output(
                    RequestId(i),
                    SimTime::from_secs(i as f64 * 0.05),
                    2_000,
                    200,
                    200,
                )
                .with_class(class),
            );
        }
        let trace = Trace::from_requests("saturating mixed burst", requests);
        let mut admission = AdmissionConfig::overload_defaults();
        admission.replica_capacity_tokens = 4_000;
        let cfg = FleetPlan::fixed(1).with_admission(admission);
        let mut engine = fleet(1, RouterPolicy::Passthrough);
        let outcome = run(&mut engine, &trace, &cfg);
        exactly_once(&outcome, &trace);
        assert!(!outcome.shed.is_empty(), "saturation must shed");
        assert!(outcome.elasticity.shed_best_effort >= 1);
        // Class priority: interactive is only ever deadline-rejected, never
        // shed while best-effort survives.
        for s in &outcome.shed {
            if s.class == TrafficClass::Interactive {
                assert_eq!(s.reason, ShedReason::DeadlineExceeded);
            }
        }
        let attainment = outcome.class_attainment(&SloSpec::default_for_lwm());
        assert_eq!(attainment.len(), 3);
    }

    #[test]
    fn class_slo_scales_every_bound() {
        let base = SloSpec {
            per_token_s: 0.1,
            input_s: 0.2,
            output_s: 0.3,
        };
        let best_effort = class_slo(&base, TrafficClass::BestEffort);
        assert!((best_effort.per_token_s - 0.4).abs() < 1e-12);
        assert!((best_effort.input_s - 0.8).abs() < 1e-12);
        assert!((best_effort.output_s - 1.2).abs() < 1e-12);
        let interactive = class_slo(&base, TrafficClass::Interactive);
        assert_eq!(interactive, base);
    }

    #[test]
    #[should_panic(expected = "provisioned at the autoscaler's max")]
    fn fleet_size_must_match_autoscaler_max() {
        let trace = small_trace(4, 1);
        let mut engine = fleet(2, RouterPolicy::RoundRobin);
        let _ = run(
            &mut engine,
            &trace,
            &FleetPlan::new(AutoscalerConfig::overload_defaults(1, 4)),
        );
    }
}
