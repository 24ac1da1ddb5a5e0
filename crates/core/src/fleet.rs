//! The fleet tier: many serving replicas behind a cluster router.
//!
//! LoongServe's elastic-sequence-parallel groups regroup *inside* one
//! replica — one node with its own global manager, unified KV pool and
//! eight GPUs. The paper's deployment setting (and the roadmap's "heavy
//! traffic from millions of users") adds a tier above that: a fleet of
//! such replicas behind a dispatcher, the same tier DistServe assumes
//! above its prefill/decode pools. [`FleetEngine`] is that tier.
//!
//! # The fleet run path
//!
//! [`FleetEngine::run`] is the one way a fleet runs. It pulls requests
//! lazily from a [`TraceStream`] (a materialised trace goes through
//! [`TraceStream::from_trace`]) and executes a [`FleetPlan`] — failure
//! injection (crash schedule, retry policy, circuit breaker) and fleet
//! control (autoscaler, admission) — as **eras** delimited by boundaries:
//! the schedule's crash instants, plus a control instant every
//! `control_interval_s` while arrivals remain when a controller can act.
//!
//! 1. **Route.** Inside an era the frontend routes every arrival —
//!    originals, behind the admission controller when armed, and retries
//!    whose backoff elapsed, which bypass it — interleaved by
//!    `(arrival, id)`. The candidates at the arrival instant are the
//!    replicas that are active, past provisioning, up per the schedule and
//!    not held open by the breaker; the [`Router`] picks among them with
//!    its sorted tie-break, over an incrementally maintained
//!    [`FleetLoadTracker`] (O(1) per assignment, O(replicas) per decision).
//!    If none qualifies, the request waits for the replica that becomes
//!    routable earliest (ties to the lowest id) and arrives there then.
//!    Routed requests wait in their replica's bucket.
//! 2. **Boundaries.** Each replica keeps one live [`ServingEngine`] per
//!    lifetime, built exactly as the single-engine path builds it. At a
//!    boundary `b` every replica admits its bucket and advances its engine
//!    through the events strictly before `b` — replicas share nothing, so
//!    on a bounded worker pool when the fleet is `parallel`. Then, at a
//!    crash instant, each crashing replica's engine processes `b` itself
//!    and gives up what it had not resolved as casualties
//!    ([`crate::reliability`]); at a control instant the fleet reads the
//!    closed window off the live engines and may scale up or drain
//!    ([`crate::elastic`]). At a shared instant crashes resolve first. A
//!    crash or a retirement ends a lifetime; the replica's next admission
//!    starts a fresh engine.
//! 3. **Finish.** Every replica admits its last bucket and runs its engine
//!    to the end. Each replica's lifetimes accumulate into its
//!    [`RunOutcome`], and the replicas, in replica-id order, into a
//!    [`FleetOutcome`]: records and rejections in request-id order,
//!    counters summed, simulated time maximised.
//!
//! A plain fleet is [`FleetPlan::fixed`]: no crash instant and no control
//! instant, so the run is one era — route everything, run every replica's
//! engine once, merge — and a 1-replica fleet under the passthrough router is the
//! bare engine bit for bit. Armed-but-idle plans, such as
//! [`FleetPlan::armed_idle`], reproduce it exactly (`tests/fleet_equivalence.rs`
//! pins the plain fleet; the tier suites pin their armed-idle plans to the
//! same goldens).
//!
//! # Exactly-once accounting
//!
//! Every request ends in exactly one of five ledgers: completed
//! (`fleet.records`), rejected by a replica's engine (`fleet.rejected`),
//! shed at the frontend, terminally failed after a crash, or unfinished
//! when an engine ran out of work without resolving it. [`FleetFootprint`]
//! measures what the fleet holds between boundaries. Every policy is
//! deterministic with sorted tie-breaking, so identically seeded runs are
//! bit-for-bit reproducible.

use crate::elastic::{FleetScaleEvent, ShedRequest};
use crate::engine::{RunOutcome, ServingEngine};
use crate::reliability::FailedRequest;
use crate::systems::{SystemKind, SystemUnderTest};
use loong_cluster::topology::ClusterSpec;
use loong_kvcache::prefix::PrefixCacheConfig;
use loong_metrics::cache::CacheStats;
use loong_metrics::elasticity::ElasticityStats;
use loong_metrics::fleet::FleetSummary;
use loong_metrics::pressure::PressureStats;
use loong_metrics::record::RequestRecord;
use loong_metrics::reliability::{availability_windows, ReliabilityStats, SlaWindow};
use loong_metrics::slo::{class_slo, SloSpec};
use loong_model::attention::AttentionCostPolicy;
use loong_model::config::ModelConfig;
use loong_sched::elastic::{AdmissionConfig, AdmissionController, Autoscaler, AutoscalerConfig};
use loong_sched::pressure::PressureMode;
use loong_sched::reliability::{
    healthy_candidates, CircuitBreaker, CircuitBreakerConfig, RetryPolicy,
};
use loong_sched::router::{FleetLoadTracker, RouteRequest, Router, RouterPolicy};
use loong_sched::types::Scheduler;
use loong_simcore::ids::{ReplicaId, RequestId};
use loong_simcore::pool::map_mut;
use loong_simcore::time::SimTime;
use loong_trace::{NoopSink, TraceConfig, TraceRecorder, TraceSink};
use loong_workload::failure::FailureSchedule;
use loong_workload::request::{Request, TrafficClass};
use loong_workload::stream::TraceStream;
use loong_workload::trace::Trace;
use std::collections::{BTreeMap, BTreeSet};
use std::iter::Peekable;

/// Static configuration of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of replicas. Each is a full serving system: its own cluster
    /// node(s), global manager and unified KV pool.
    pub replicas: usize,
    /// The serving system every replica runs (scheduler + parallelism
    /// shape). Fleets are homogeneous.
    pub system: SystemKind,
    /// The cluster owned by **each** replica (not shared): the paper's
    /// default is one 8-GPU A800 node per replica.
    pub cluster: ClusterSpec,
    /// The model served by every replica.
    pub model: ModelConfig,
    /// Seed of each replica's engine-internal randomness. Replicas use the
    /// same seed: they model identical hardware profiled identically, and
    /// replica 0's engine stays bit-for-bit the single-engine baseline.
    pub seed: u64,
    /// The routing policy assigning arriving requests to replicas.
    pub policy: RouterPolicy,
    /// Memory-pressure handling of every replica.
    pub pressure: PressureMode,
    /// The prefix-cache tier of every replica (`None` disables it). Pairs
    /// naturally with [`RouterPolicy::PrefixAffinity`], which keeps a
    /// conversation's turns on the replica retaining its prefix.
    pub prefix_cache: Option<PrefixCacheConfig>,
    /// Per-instance KV capacity override applied to every replica.
    pub kv_capacity_override: Option<u64>,
    /// Attention-cost policy of every replica's cost model (`Dense` keeps
    /// the fleet bit-for-bit on the pre-policy path).
    pub attention: AttentionCostPolicy,
    /// Run replicas on a bounded worker pool, capped at the host's
    /// available parallelism ([`loong_simcore::pool`]). Purely a
    /// wall-clock choice: replicas are independent and the pool merges in
    /// replica-id order, so the outcome is identical either way.
    pub parallel: bool,
}

impl FleetConfig {
    /// A fleet of `replicas` copies of the paper's single-node testbed
    /// (8× A800, LWM-1M-Text) under the given routing policy.
    pub fn paper_fleet(system: SystemKind, replicas: usize, policy: RouterPolicy) -> Self {
        let single = SystemUnderTest::paper_single_node(system);
        FleetConfig {
            replicas,
            system,
            cluster: single.cluster,
            model: single.model,
            seed: single.seed,
            policy,
            pressure: PressureMode::Off,
            prefix_cache: None,
            kv_capacity_override: None,
            attention: AttentionCostPolicy::Dense,
            parallel: false,
        }
    }

    /// The single-replica system equivalent to one replica of this fleet.
    pub(crate) fn replica_system(&self) -> SystemUnderTest {
        SystemUnderTest {
            kind: self.system,
            cluster: self.cluster.clone(),
            model: self.model.clone(),
            seed: self.seed,
            pressure: self.pressure,
            kv_capacity_override: self.kv_capacity_override,
            max_sim_time: None,
            prefix_cache: self.prefix_cache,
            attention: self.attention,
        }
    }
}

/// Deterministic frontend-memory ledger of a fleet run.
///
/// Counts *requests*, not bytes: a simulation-exact proxy that is
/// bit-for-bit reproducible across hosts, which RSS never is. The
/// benches report both — this ledger gates, RSS informs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetFootprint {
    /// Requests pulled from the stream over the whole run.
    pub streamed_requests: usize,
    /// Peak requests the fleet held: routed to a replica since its last
    /// advance, admitted to a replica engine but unresolved as of its last
    /// advance, or crash retries awaiting their backoff. Every boundary
    /// advances every replica, so under a boundary-rich schedule this is
    /// O(active + one era's routing + pending retries); with no boundary
    /// every bucket waits for the end and it is the stream length.
    pub peak_resident_requests: usize,
}

/// The outcome of one replica within a fleet run.
#[derive(Debug, Clone)]
pub struct ReplicaOutcome {
    /// The replica.
    pub replica: ReplicaId,
    /// Requests the router assigned to this replica.
    pub assigned: usize,
    /// The replica's own engine outcome over its sub-trace.
    pub outcome: RunOutcome,
}

/// The merged result of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Per-replica outcomes, in replica-id order.
    pub per_replica: Vec<ReplicaOutcome>,
    /// The replica each request was routed to, in trace order.
    pub assignments: Vec<(RequestId, ReplicaId)>,
    /// Completed requests across the fleet, sorted by request id.
    pub records: Vec<RequestRecord>,
    /// Rejected requests across the fleet, sorted by request id.
    pub rejected: Vec<(RequestId, String)>,
    /// Requests neither finished nor rejected when their replica's run
    /// ended, summed across replicas.
    pub unfinished: usize,
    /// Simulated makespan of the fleet: the slowest replica's run time
    /// (replicas run concurrently in simulated time).
    pub sim_time: SimTime,
    /// Iterations executed across all replicas.
    pub iterations: u64,
    /// Bytes moved by explicit KV migrations across all replicas.
    pub migration_bytes: f64,
    /// Scheduler invocations across all replicas.
    pub scheduler_calls: u64,
    /// Memory-pressure activity accumulated across replicas (counters sum;
    /// the outstanding-swapped high-water mark takes the per-replica max).
    pub pressure: PressureStats,
    /// Prefix-cache activity accumulated across replicas (counters sum;
    /// the retained high-water mark takes the per-replica max).
    pub cache: CacheStats,
}

impl FleetOutcome {
    /// Merges per-replica outcomes (in replica-id order): records and
    /// rejections sort by request id, counters sum in replica-id order.
    fn merge(per_replica: Vec<ReplicaOutcome>, assignments: Vec<(RequestId, ReplicaId)>) -> Self {
        let mut total = RunOutcome::default();
        for r in &per_replica {
            total.absorb(&r.outcome);
        }
        total.records.sort_by_key(|r| r.id);
        total.rejected.sort_by_key(|r| r.0);
        FleetOutcome {
            per_replica,
            assignments,
            records: total.records,
            rejected: total.rejected,
            unfinished: total.unfinished,
            sim_time: total.sim_time,
            iterations: total.iterations,
            migration_bytes: total.migration_bytes,
            scheduler_calls: total.scheduler_calls,
            pressure: total.pressure,
            cache: total.cache,
        }
    }

    /// Number of replicas that took part in the run.
    pub fn replicas(&self) -> usize {
        self.per_replica.len()
    }

    /// Total requests accounted for: completed + rejected + unfinished.
    pub fn total_requests(&self) -> usize {
        self.records.len() + self.rejected.len() + self.unfinished
    }

    /// Fleet-level metric summary: merged aggregate plus the per-replica
    /// breakdown.
    pub fn summary(
        &self,
        system: &str,
        workload: &str,
        request_rate: f64,
        slo: &SloSpec,
    ) -> FleetSummary {
        let replica_records: Vec<&[RequestRecord]> = self
            .per_replica
            .iter()
            .map(|r| r.outcome.records.as_slice())
            .collect();
        let mut summary = FleetSummary::from_replica_records(
            system,
            workload,
            request_rate,
            &replica_records,
            slo,
        );
        let per_replica_pressure: Vec<PressureStats> = self
            .per_replica
            .iter()
            .map(|r| r.outcome.pressure)
            .collect();
        summary.attach_pressure(&per_replica_pressure);
        let per_replica_cache: Vec<CacheStats> =
            self.per_replica.iter().map(|r| r.outcome.cache).collect();
        summary.attach_cache(&per_replica_cache);
        summary
    }
}

/// What a fleet run does beyond routing: failure injection (`schedule`,
/// `retry`, `breaker`) and fleet control (`autoscaler`, `admission`).
///
/// The fleet must be provisioned with `autoscaler.max_replicas` replicas;
/// the autoscaler decides how many of them are *active* at any instant,
/// the rest are cold. [`FleetPlan::validate`] checks a plan against a
/// fleet before the first request is pulled.
#[derive(Debug, Clone)]
pub struct FleetPlan {
    /// The target-tracking fleet autoscaler. [`AutoscalerConfig::fixed`]
    /// never fires.
    pub autoscaler: AutoscalerConfig,
    /// Replicas active (and routable) at t = 0. Must lie within the
    /// autoscaler's bounds.
    pub initial_replicas: usize,
    /// The frontend load shedder; `None` admits everything.
    pub admission: Option<AdmissionConfig>,
    /// The SLO against which control windows measure attainment (the
    /// autoscaler's scale-up signal).
    pub signal_slo: SloSpec,
    /// When replicas crash and recover. [`FailureSchedule::none`] injects
    /// nothing.
    pub schedule: FailureSchedule,
    /// What a crash casualty gets: [`RetryPolicy::none`] fails it
    /// terminally at the crash instant.
    pub retry: RetryPolicy,
    /// The per-replica circuit breaker; `None` routes purely on the
    /// schedule's up/down state.
    pub breaker: Option<CircuitBreakerConfig>,
    /// Width of the availability windows in the outcome's SLA series, in
    /// sim-seconds.
    pub sla_window_s: f64,
}

impl FleetPlan {
    /// A run under `autoscaler`, starting at its minimum size: no
    /// shedding, no failures, no retries, no breaker, 60 s availability
    /// windows.
    pub fn new(autoscaler: AutoscalerConfig) -> Self {
        FleetPlan {
            initial_replicas: autoscaler.min_replicas,
            autoscaler,
            admission: None,
            signal_slo: SloSpec::default_for_lwm(),
            schedule: FailureSchedule::none(),
            retry: RetryPolicy::none(),
            breaker: None,
            sla_window_s: 60.0,
        }
    }

    /// The plain fleet of `n` replicas: a fixed autoscaler, no admission
    /// and an empty schedule, so the run has no boundaries at all.
    pub fn fixed(n: usize) -> Self {
        FleetPlan::new(AutoscalerConfig::fixed(n))
    }

    /// The armed-but-idle control plan: an autoscaler pinned to exactly
    /// `n` replicas and an admission controller that can never shed.
    /// Control boundaries run on every window, with no possible effect —
    /// the run reproduces [`FleetPlan::fixed`] bit for bit.
    pub fn armed_idle(n: usize) -> Self {
        FleetPlan::fixed(n).with_admission(AdmissionConfig::never_sheds())
    }

    /// Arms the frontend load shedder.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = Some(admission);
        self
    }

    /// Sets the number of replicas active at t = 0.
    pub fn with_initial(mut self, initial_replicas: usize) -> Self {
        self.initial_replicas = initial_replicas;
        self
    }

    /// Injects failures from `schedule`.
    pub fn with_schedule(mut self, schedule: FailureSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the crash-casualty retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables the per-replica circuit breaker.
    pub fn with_breaker(mut self, breaker: CircuitBreakerConfig) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// Sets the SLO the control window measures attainment against.
    pub fn with_signal_slo(mut self, slo: SloSpec) -> Self {
        self.signal_slo = slo;
        self
    }

    /// Sets the availability-window width.
    pub fn with_sla_window(mut self, window_s: f64) -> Self {
        self.sla_window_s = window_s;
        self
    }

    /// Checks the plan against a fleet of `replicas`: the fleet is
    /// provisioned at the autoscaler's maximum, the initial size lies in
    /// its bounds, both controllers validate, the schedule strikes only
    /// replicas of the fleet, and every duration the run turns into sim
    /// time is finite and in range.
    pub fn validate(&self, replicas: usize) -> Result<(), String> {
        let scaler = &self.autoscaler;
        if replicas != scaler.max_replicas {
            return Err(format!(
                "the fleet must be provisioned at the autoscaler's max ({} replicas), \
                 got {replicas}",
                scaler.max_replicas
            ));
        }
        scaler.validate()?;
        if !(scaler.min_replicas..=replicas).contains(&self.initial_replicas) {
            return Err(format!(
                "initial size {} outside the autoscaler bounds {}..={replicas}",
                self.initial_replicas, scaler.min_replicas
            ));
        }
        if let Some(admission) = &self.admission {
            admission.validate()?;
        }
        if let Some(max) = self.schedule.max_replica() {
            if max.index() >= replicas {
                return Err(format!(
                    "failure schedule strikes {max}, but the fleet has {replicas} replicas"
                ));
            }
        }
        let non_negative = |x: f64| x.is_finite() && x >= 0.0;
        let positive = |x: f64| x.is_finite() && x > 0.0;
        let retry = &self.retry;
        if !non_negative(retry.backoff_base_s) || !non_negative(retry.backoff_factor) {
            return Err(format!(
                "retry backoff base and factor must be finite and non-negative, got {} and {}",
                retry.backoff_base_s, retry.backoff_factor
            ));
        }
        if let Some(b) = &self.breaker {
            if b.failure_threshold == 0 || !positive(b.window_s) || !non_negative(b.cooldown_s) {
                return Err(format!(
                    "circuit breaker needs a threshold of at least 1, a finite positive window \
                     and a finite non-negative cooldown, got {b:?}"
                ));
            }
        }
        if !positive(self.sla_window_s) {
            return Err(format!(
                "SLA window must be finite and positive, got {}",
                self.sla_window_s
            ));
        }
        Ok(())
    }
}

/// The result of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// The fleet outcome over the attempts that resolved inside a replica:
    /// completed records, engine rejections, per-replica breakdowns.
    /// Crash casualties are not `unfinished`: they live in the
    /// reliability ledger.
    pub fleet: FleetOutcome,
    /// Crash casualties that exhausted their retry budget, sorted by id.
    pub failed: Vec<FailedRequest>,
    /// Requests shed at the frontend, sorted by id.
    pub shed: Vec<ShedRequest>,
    /// Every scale event, in decision order.
    pub scale_events: Vec<FleetScaleEvent>,
    /// The effective start instant of each routing decision, parallel to
    /// `fleet.assignments` — what the drain proptests check "no new routes
    /// after retirement" against.
    pub route_instants: Vec<SimTime>,
    /// The whole-run elasticity ledger.
    pub elasticity: ElasticityStats,
    /// The whole-run reliability ledger.
    pub reliability: ReliabilityStats,
    /// Time-resolved availability series over `sla_window_s` windows.
    pub sla_windows: Vec<SlaWindow>,
    /// The frontend's residency ledger.
    pub footprint: FleetFootprint,
}

impl FleetRun {
    /// Total requests accounted for: completed + rejected + unfinished +
    /// terminally failed + shed. Equals the stream length for every plan
    /// (the exactly-once property).
    pub fn total_requests(&self) -> usize {
        self.fleet.total_requests() + self.failed.len() + self.shed.len()
    }

    /// Fleet-level metric summary with the reliability and elasticity
    /// ledgers attached.
    pub fn summary(
        &self,
        system: &str,
        workload: &str,
        request_rate: f64,
        slo: &SloSpec,
    ) -> FleetSummary {
        let mut summary = self.fleet.summary(system, workload, request_rate, slo);
        summary.attach_reliability(self.reliability, self.sla_windows.clone());
        summary.attach_elasticity(self.elasticity);
        summary
    }

    /// Per-class SLO attainment of the completed requests, judging each
    /// class against the base SLO scaled by its
    /// [`TrafficClass::slo_scale`], in shed order. The class is read off
    /// each record (the engine carries it through from the request), so no
    /// trace-wide index is needed.
    pub fn class_attainment(&self, base: &SloSpec) -> Vec<(TrafficClass, f64)> {
        TrafficClass::all()
            .into_iter()
            .map(|class| {
                let records: Vec<RequestRecord> = self
                    .fleet
                    .records
                    .iter()
                    .filter(|r| r.class == class)
                    .copied()
                    .collect();
                let slo = class_slo(base, class);
                (class, slo.attainment(&records))
            })
            .collect()
    }
}

/// A fleet of serving replicas behind a cluster router.
pub struct FleetEngine {
    config: FleetConfig,
    router: Router,
}

impl FleetEngine {
    /// Builds a fleet for the given configuration. [`FleetEngine::run`]
    /// checks the configuration before its run starts.
    pub fn new(config: FleetConfig) -> Self {
        let router = config.policy.build();
        FleetEngine { config, router }
    }

    /// The fleet's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The router's report label.
    pub fn router_name(&self) -> &'static str {
        self.config.policy.label()
    }

    /// Routes every request of `trace` in arrival order through the run
    /// path's routing step with every replica routable, returning the
    /// per-request replica assignment (indexing `trace.requests`) that
    /// [`FleetEngine::run`] under [`FleetPlan::fixed`] makes.
    ///
    /// Every call starts from a fresh router and load tracker, so routing
    /// is a pure function of the configuration and the trace: reusing one
    /// engine across traces cannot leak round-robin counters or probe-RNG
    /// state between runs.
    pub fn route(&mut self, trace: &Trace) -> Vec<usize> {
        let plan = FleetPlan::fixed(self.config.replicas);
        self.router = self.config.policy.build();
        let mut st = RunState::new(&self.config, &mut self.router, &plan, None);
        trace
            .requests
            .iter()
            .map(|req| st.pick(&route_request(req)).0.index())
            .collect()
    }

    /// Runs the fleet over `stream` under `plan`, with every replica, crash,
    /// retry and scale event observed by `recorder` when one is given. The
    /// recorder only receives copies of already-made decisions, so a traced
    /// run is decision-for-decision the untraced one; it is finalised at
    /// the fleet makespan. See the module docs for the execution model.
    ///
    /// Returns an error, before any request is pulled, when
    /// [`FleetPlan::validate`] rejects the plan for this fleet or
    /// [`SystemUnderTest::validate`] rejects the system every replica runs.
    pub fn run(
        &mut self,
        stream: TraceStream,
        plan: &FleetPlan,
        recorder: Option<&mut TraceRecorder>,
    ) -> Result<FleetRun, String> {
        plan.validate(self.config.replicas)?;
        // Replica engines are built mid-run, on pool workers, where an
        // invalid system would panic.
        self.config.replica_system().validate()?;
        let mut source = stream.peekable();
        self.router = self.config.policy.build();
        let mut st = RunState::new(&self.config, &mut self.router, plan, recorder);

        // Crash instants from the schedule; control instants every
        // `control_interval_s` while arrivals (or pending retries) remain,
        // but only when a controller could act.
        let crash_times = plan.schedule.crash_times();
        let control_on = plan.autoscaler.is_elastic() || plan.admission.is_some();
        let interval = plan.autoscaler.control_interval_s;
        let (mut ci, mut k) = (0usize, 1u64);
        loop {
            let more_work = source.peek().is_some() || !st.pending.is_empty();
            let next_control =
                (control_on && more_work).then(|| SimTime::from_secs(k as f64 * interval));
            let next_crash = crash_times.get(ci).copied();
            let Some(b) = next_crash.into_iter().chain(next_control).min() else {
                break;
            };
            st.route_until(&mut source, Some(b));
            if next_crash == Some(b) {
                st.crash_boundary(b);
                ci += 1;
            }
            if next_control == Some(b) {
                st.control_boundary(b);
                k += 1;
            }
        }
        st.route_until(&mut source, None);
        // The drained stream may still own a materialised trace's buffer;
        // free it before the engines run to the end.
        drop(source);
        Ok(st.finish())
    }

    /// [`FleetEngine::run`] under [`FleetPlan::fixed`], untraced — the
    /// name the benchmark harness in `perfbench/` calls.
    pub fn run_stream(&mut self, stream: TraceStream) -> (FleetOutcome, FleetFootprint) {
        let run = self.run(stream, &FleetPlan::fixed(self.config.replicas), None);
        let run = run.expect("the fixed plan fits its own fleet");
        (run.fleet, run.footprint)
    }

    /// [`FleetEngine::run`] untraced — the name the benchmark harness in
    /// `perfbench/` calls. Panics on an invalid plan.
    pub fn run_elastic_stream(
        &mut self,
        stream: TraceStream,
        plan: &FleetPlan,
    ) -> (FleetRun, FleetFootprint) {
        let run = self.run(stream, plan, None).expect("valid fleet plan");
        let footprint = run.footprint;
        (run, footprint)
    }

    /// [`FleetEngine::run`] traced — the name the benchmark harness in
    /// `perfbench/` calls. Panics on an invalid plan.
    pub fn run_elastic_stream_traced(
        &mut self,
        stream: TraceStream,
        plan: &FleetPlan,
        recorder: &mut TraceRecorder,
    ) -> (FleetRun, FleetFootprint) {
        let run = self
            .run(stream, plan, Some(recorder))
            .expect("valid fleet plan");
        let footprint = run.footprint;
        (run, footprint)
    }
}

/// The router's view of a request.
fn route_request(req: &Request) -> RouteRequest {
    RouteRequest {
        id: req.id,
        arrival: req.arrival,
        input_len: req.input_len,
        max_output_len: req.max_output_len,
        conversation: req.conversation,
    }
}

/// Lifecycle of one fleet slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Life {
    /// Provisioned but never activated: no capacity cost, not routable.
    Cold,
    /// Active. Routable from `since` (activation instant, or the end of
    /// the provisioning delay for a scale-up).
    Active { since: SimTime },
    /// Drained and retired at `at`; re-activatable by a later scale-up.
    Retired { at: SimTime },
}

impl Life {
    /// Whether the slot is routable at `t`: active and past provisioning.
    pub(crate) fn ready_at(self, t: SimTime) -> bool {
        matches!(self, Life::Active { since } if since <= t)
    }
}

/// Mutable state of one fleet run, threaded through the era loop. The
/// crash boundary lives in [`crate::reliability`], the control boundary in
/// [`crate::elastic`].
pub(crate) struct RunState<'a> {
    pub(crate) plan: &'a FleetPlan,
    pub(crate) n: usize,
    /// One replica's system: every lifetime's engine is built from it.
    system: SystemUnderTest,
    pub(crate) parallel: bool,
    pub(crate) router: &'a mut Router,
    pub(crate) rec: Option<&'a mut TraceRecorder>,
    pub(crate) life: Vec<Life>,
    tracker: FleetLoadTracker,
    pub(crate) breaker: Option<CircuitBreaker>,
    pub(crate) admission: Option<AdmissionController>,
    pub(crate) autoscaler: Autoscaler,
    /// Each replica's execution state, by replica id.
    pub(crate) slots: Vec<Slot>,
    /// Every routing decision in decision order; retried requests appear
    /// once per attempt.
    assignments: Vec<(RequestId, ReplicaId)>,
    route_instants: Vec<SimTime>,
    /// Attempts assigned per replica over the whole run.
    assigned: Vec<usize>,
    /// Retries waiting for their backoff to elapse, keyed by
    /// (re-arrival, id) — the deterministic interleave order with original
    /// arrivals.
    pub(crate) pending: BTreeMap<(SimTime, RequestId), Request>,
    pub(crate) retries_used: BTreeMap<RequestId, u32>,
    pub(crate) casualty_ids: BTreeSet<RequestId>,
    pub(crate) failed: Vec<FailedRequest>,
    pub(crate) shed: Vec<ShedRequest>,
    pub(crate) stats: ReliabilityStats,
    pub(crate) elastic: ElasticityStats,
    pub(crate) scale_events: Vec<FleetScaleEvent>,
    /// Requests currently held for the fleet: routed since their replica's
    /// last advance, admitted but unresolved as of it, or retries awaiting
    /// their backoff.
    resident: usize,
    footprint: FleetFootprint,
    /// Fleet-wide unresolved backlog measured at the last control
    /// boundary; the admission controller's saturation baseline.
    pub(crate) last_observed_backlog: u64,
    /// Worst-case tokens routed since that observation — the running
    /// correction that lets admission react *between* boundaries.
    pub(crate) routed_since_observation: u64,
    /// Accumulated active span per replica (activation to retirement), in
    /// sim-seconds; still-active spans are closed at the makespan.
    pub(crate) active_spans_s: Vec<f64>,
}

impl<'a> RunState<'a> {
    /// Fresh state for a validated `plan` on the fleet of `config`.
    fn new(
        config: &FleetConfig,
        router: &'a mut Router,
        plan: &'a FleetPlan,
        rec: Option<&'a mut TraceRecorder>,
    ) -> Self {
        let n = config.replicas;
        let initial = plan.initial_replicas;
        RunState {
            plan,
            n,
            system: config.replica_system(),
            parallel: config.parallel,
            router,
            rec,
            life: (0..n)
                .map(|r| {
                    if r < initial {
                        Life::Active {
                            since: SimTime::ZERO,
                        }
                    } else {
                        Life::Cold
                    }
                })
                .collect(),
            tracker: FleetLoadTracker::new(n),
            breaker: plan.breaker.map(|cfg| CircuitBreaker::new(cfg, n)),
            admission: plan.admission.map(AdmissionController::new),
            autoscaler: Autoscaler::new(plan.autoscaler),
            slots: (0..n).map(|_| Slot::default()).collect(),
            assignments: Vec::new(),
            route_instants: Vec::new(),
            assigned: vec![0; n],
            pending: BTreeMap::new(),
            retries_used: BTreeMap::new(),
            casualty_ids: BTreeSet::new(),
            failed: Vec::new(),
            shed: Vec::new(),
            stats: ReliabilityStats {
                crashes: plan.schedule.events().len() as u64,
                downtime_s: plan.schedule.total_downtime().as_secs(),
                ..ReliabilityStats::default()
            },
            elastic: ElasticityStats {
                min_active_replicas: initial as u64,
                max_active_replicas: initial as u64,
                ..ElasticityStats::default()
            },
            scale_events: Vec::new(),
            resident: 0,
            footprint: FleetFootprint::default(),
            last_observed_backlog: 0,
            routed_since_observation: 0,
            active_spans_s: vec![0.0; n],
        }
    }

    pub(crate) fn grow_resident(&mut self) {
        self.resident += 1;
        let peak = &mut self.footprint.peak_resident_requests;
        *peak = (*peak).max(self.resident);
    }

    /// Advances every replica through the instants strictly before `b`,
    /// admitting what was routed to it since its last advance — on the
    /// worker pool when the fleet is parallel.
    pub(crate) fn advance_all(&mut self, b: SimTime) {
        let before: usize = self.slots.iter().map(Slot::held).sum();
        let (system, retried) = (&self.system, &self.retries_used);
        let trace = self.rec.as_ref().map(|rec| rec.config());
        map_slots(&mut self.slots, self.parallel, |slot| {
            slot.advance(system, trace, retried, Some(b))
        });
        let after: usize = self.slots.iter().map(Slot::held).sum();
        self.resident -= before - after;
    }

    /// Ends replica `r`'s engine lifetime: its recording joins the run's,
    /// its outcome the replica's ledger, and whatever it still held leaves
    /// the residency count.
    pub(crate) fn close_lifetime(&mut self, r: usize, (outcome, child): LifetimeEnd) {
        if let (Some(rec), Some(child)) = (self.rec.as_deref_mut(), child) {
            rec.merge_child(ReplicaId::from(r), child);
        }
        let slot = &mut self.slots[r];
        slot.ended.absorb(&outcome);
        self.resident -= slot.unresolved;
        slot.unresolved = 0;
    }

    /// Routes every arrival strictly before `end` (all of them when `end`
    /// is `None`): source requests behind the admission controller and
    /// pending retries, which bypass it, interleaved by (arrival, id). The
    /// source is pulled lazily: nothing beyond the era boundary is ever
    /// materialised.
    fn route_until(&mut self, source: &mut Peekable<TraceStream>, end: Option<SimTime>) {
        let in_era = |t: SimTime| end.is_none_or(|e| t < e);
        loop {
            let original = source
                .peek()
                .map(|req| (req.arrival, req.id))
                .filter(|&(at, _)| in_era(at));
            let retry = self
                .pending
                .first_key_value()
                .map(|(&key, _)| key)
                .filter(|&(at, _)| in_era(at));
            // The earlier of the two by (arrival, id); an original never
            // shares its id with a pending retry, so the order is total.
            match (original, retry) {
                (None, None) => break,
                (original, Some(key)) if original.is_none_or(|o| key < o) => {
                    let retry_req = self.pending.remove(&key).expect("key just seen");
                    self.resident -= 1;
                    self.route_attempt(retry_req);
                }
                _ => {
                    let req = source.next().expect("peeked above");
                    self.footprint.streamed_requests += 1;
                    if !self.admit(&req) {
                        continue;
                    }
                    self.route_attempt(req);
                }
            }
        }
    }

    /// Routes one attempt and parks it in its replica's bucket.
    fn route_attempt(&mut self, req: Request) {
        let (replica, start) = self.pick(&route_request(&req));
        self.routed_since_observation = self
            .routed_since_observation
            .saturating_add(req.input_len + req.max_output_len);
        let mut placed = req;
        placed.arrival = start;
        self.assignments.push((placed.id, replica));
        self.route_instants.push(start);
        self.assigned[replica.index()] += 1;
        self.slots[replica.index()].bucket.push(placed);
        self.grow_resident();
    }

    /// The routing step: picks the replica and start instant of one
    /// attempt at its arrival instant. The router chooses among the
    /// replicas that are active, past provisioning, up per the schedule
    /// and not held open by the breaker; when none is, the attempt waits
    /// for the active replica that becomes routable earliest —
    /// provisioning, schedule recovery and breaker cooldown all count —
    /// ties to the lowest id.
    fn pick(&mut self, req: &RouteRequest) -> (ReplicaId, SimTime) {
        let t = req.arrival;
        let (life, schedule, breaker) = (&self.life, &self.plan.schedule, &self.breaker);
        let candidates = healthy_candidates(self.n, |r| {
            !life[r.index()].ready_at(t)
                || schedule.is_down(r, t)
                || breaker.as_ref().is_some_and(|b| b.is_open(r, t))
        });
        let (replica, start) = if candidates.is_empty() {
            let mut best: Option<(SimTime, ReplicaId)> = None;
            for (r, l) in life.iter().enumerate() {
                if let Life::Active { since } = *l {
                    let rid = ReplicaId::from(r);
                    let mut ready = schedule.next_up(rid, t.max(since));
                    if let Some(b) = breaker {
                        ready = ready.max(b.open_until(rid));
                    }
                    if best.is_none_or(|(earliest, _)| ready < earliest) {
                        best = Some((ready, rid));
                    }
                }
            }
            let (ready, rid) = best.expect("the autoscaler keeps at least min_replicas active");
            (rid, ready.max(t))
        } else {
            (self.router.route(req, self.tracker.loads(), &candidates), t)
        };
        assert!(
            replica.index() < self.n,
            "router returned out-of-range {replica}"
        );
        self.tracker.on_assign(replica, req);
        (replica, start)
    }

    /// Runs every replica's engine to the end and closes its lifetime — on
    /// the worker pool when the fleet is parallel, each engine dropped in
    /// its own job — then merges and closes the ledgers.
    fn finish(mut self) -> FleetRun {
        let (system, retried) = (&self.system, &self.retries_used);
        let trace = self.rec.as_ref().map(|rec| rec.config());
        let ends = map_slots(&mut self.slots, self.parallel, |slot| {
            slot.advance(system, trace, retried, None);
            slot.engine.take().map(LiveEngine::end)
        });
        for (r, end) in ends.into_iter().enumerate() {
            if let Some(end) = end {
                self.close_lifetime(r, end);
            }
        }
        let per_replica: Vec<ReplicaOutcome> = (0..self.n)
            .map(|r| ReplicaOutcome {
                replica: ReplicaId::from(r),
                assigned: self.assigned[r],
                outcome: std::mem::take(&mut self.slots[r].ended),
            })
            .collect();
        let fleet = FleetOutcome::merge(per_replica, self.assignments);
        self.failed.sort_by_key(|f| f.id);
        self.shed.sort_by_key(|s| s.id);

        self.stats.recovered_requests = self
            .casualty_ids
            .iter()
            .filter(|id| fleet.records.binary_search_by_key(*id, |r| r.id).is_ok())
            .count() as u64;
        if let Some(breaker) = &self.breaker {
            self.stats.breaker_opens = breaker.opens();
        }
        let failure_instants: Vec<SimTime> = self.failed.iter().map(|f| f.at).collect();
        let sla_windows =
            availability_windows(self.plan.sla_window_s, &fleet.records, &failure_instants);

        // Replica-seconds: every span from activation (routable) to
        // retirement; replicas still active close their span at the fleet
        // makespan. The denominator of SLO-goodput per replica-second.
        for (span, life) in self.active_spans_s.iter_mut().zip(&self.life) {
            if let Life::Active { since } = *life {
                *span += fleet.sim_time.saturating_since(since).as_secs();
            }
        }
        self.elastic.replica_seconds = self.active_spans_s.iter().sum();
        if let Some(rec) = self.rec {
            rec.finalize(fleet.sim_time);
        }
        FleetRun {
            fleet,
            failed: self.failed,
            shed: self.shed,
            scale_events: self.scale_events,
            route_instants: self.route_instants,
            elasticity: self.elastic,
            reliability: self.stats,
            sla_windows,
            footprint: self.footprint,
        }
    }
}

/// A lifetime's outcome and its recording, when the run is traced.
pub(crate) type LifetimeEnd = (RunOutcome, Option<TraceRecorder>);

/// One replica's execution state in a fleet run.
#[derive(Default)]
pub(crate) struct Slot {
    /// Requests routed here since the last advance, with their effective
    /// arrival instants.
    bucket: Vec<Request>,
    /// The engine of the current lifetime: from the first admission after a
    /// (re)start until a crash, a retirement or the end of the run.
    pub(crate) engine: Option<LiveEngine>,
    /// Requests the engine had admitted but not resolved as of its last
    /// advance.
    unresolved: usize,
    /// What the replica's ended lifetimes resolved.
    ended: RunOutcome,
}

impl Slot {
    /// Requests this replica holds for the fleet.
    fn held(&self) -> usize {
        self.bucket.len() + self.unresolved
    }

    /// Admits the bucket — starting a lifetime when none is live — and
    /// advances the engine through the instants strictly before `end`, or
    /// to the end of its work when `end` is `None`.
    fn advance(
        &mut self,
        system: &SystemUnderTest,
        trace: Option<TraceConfig>,
        retried: &BTreeMap<RequestId, u32>,
        end: Option<SimTime>,
    ) {
        let mut requests = std::mem::take(&mut self.bucket);
        if self.engine.is_none() {
            if requests.is_empty() {
                return;
            }
            // A lifetime's first bucket sizes the schedulers that tune
            // themselves to their workload (the SplitFuse chunk).
            let first = Trace::from_requests("", requests);
            self.engine = Some(LiveEngine {
                engine: system.build_send_engine(Some(&first)),
                rec: trace.map(TraceRecorder::new),
            });
            requests = first.requests;
        }
        let live = self.engine.as_mut().expect("a lifetime is live");
        for req in requests {
            if let Some(rec) = live.rec.as_mut().filter(|_| retried.contains_key(&req.id)) {
                rec.note_retried(req.id);
            }
            live.engine.admit(req);
        }
        live.drive(|engine, sink| match end {
            Some(b) => engine.advance_until(b, sink),
            None => engine.advance_to_end(sink),
        });
        self.unresolved = live.engine.signals().unresolved;
    }
}

/// A replica's live engine, with its lifetime's own recording: lifetimes
/// run on the worker pool, so each records apart and the run absorbs the
/// recording, in replica order, when the lifetime ends.
pub(crate) struct LiveEngine {
    pub(crate) engine: ServingEngine<dyn Scheduler + Send>,
    rec: Option<TraceRecorder>,
}

impl LiveEngine {
    /// Runs `op` on the engine with the lifetime's sink.
    pub(crate) fn drive(
        &mut self,
        op: impl FnOnce(&mut ServingEngine<dyn Scheduler + Send>, &mut dyn TraceSink),
    ) {
        match &mut self.rec {
            Some(rec) => op(&mut self.engine, rec),
            None => op(&mut self.engine, &mut NoopSink),
        }
    }

    /// Closes the lifetime.
    pub(crate) fn end(mut self) -> LifetimeEnd {
        (self.engine.finish(), self.rec)
    }
}

/// Runs `job` on every slot, on the worker pool when `parallel`, returning
/// the results in replica order.
fn map_slots<R: Send>(
    slots: &mut [Slot],
    parallel: bool,
    job: impl Fn(&mut Slot) -> R + Sync,
) -> Vec<R> {
    if parallel {
        map_mut(slots, job)
    } else {
        slots.iter_mut().map(job).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::WorkloadSpec;
    use loong_workload::datasets::DatasetKind;

    fn small_trace(count: usize, seed: u64) -> Trace {
        WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(8.0, count, seed)
    }

    /// The plain fleet's outcome over a materialised trace.
    fn run_plain(fleet: &mut FleetEngine, trace: &Trace) -> FleetOutcome {
        let plan = FleetPlan::fixed(fleet.config().replicas);
        let run = fleet.run(TraceStream::from_trace(trace.clone()), &plan, None);
        run.expect("valid plan").fleet
    }

    #[test]
    fn fleet_accounts_for_every_request() {
        let config = FleetConfig::paper_fleet(SystemKind::LoongServe, 2, RouterPolicy::RoundRobin);
        let mut fleet = FleetEngine::new(config);
        let trace = small_trace(24, 3);
        let outcome = run_plain(&mut fleet, &trace);
        assert_eq!(outcome.replicas(), 2);
        assert_eq!(outcome.total_requests(), 24);
        assert_eq!(outcome.assignments.len(), 24);
        assert_eq!(
            outcome
                .per_replica
                .iter()
                .map(|r| r.assigned)
                .sum::<usize>(),
            24
        );
        // Round-robin over an even count splits exactly in half.
        assert_eq!(outcome.per_replica[0].assigned, 12);
        assert_eq!(outcome.per_replica[1].assigned, 12);
        assert!(outcome.records.windows(2).all(|w| w[0].id < w[1].id));
        // `route` makes exactly the run's routing decisions.
        let routed: Vec<usize> = outcome.assignments.iter().map(|a| a.1.index()).collect();
        assert_eq!(fleet.route(&trace), routed);
    }

    #[test]
    fn parallel_and_serial_replica_execution_agree() {
        let trace = small_trace(20, 7);
        let run = |parallel: bool| {
            let mut config = FleetConfig::paper_fleet(
                SystemKind::LoongServe,
                3,
                RouterPolicy::JoinShortestQueue,
            );
            config.parallel = parallel;
            run_plain(&mut FleetEngine::new(config), &trace)
        };
        let serial = run(false);
        let parallel = run(true);
        assert_eq!(serial.records, parallel.records);
        assert_eq!(serial.rejected, parallel.rejected);
        assert_eq!(serial.iterations, parallel.iterations);
        assert_eq!(serial.sim_time, parallel.sim_time);
    }

    #[test]
    fn fleet_summary_merges_and_breaks_down() {
        let config = FleetConfig::paper_fleet(SystemKind::LoongServe, 2, RouterPolicy::RoundRobin);
        let mut fleet = FleetEngine::new(config);
        let trace = small_trace(16, 5);
        let outcome = run_plain(&mut fleet, &trace);
        let summary = outcome.summary(
            "LoongServe x2",
            "ShareGPT",
            8.0,
            &SloSpec::default_for_lwm(),
        );
        assert_eq!(summary.replicas(), 2);
        assert_eq!(
            summary.fleet.completed,
            summary
                .per_replica
                .iter()
                .map(|s| s.completed)
                .sum::<usize>()
        );
        assert_eq!(summary.fleet.completed, outcome.records.len());
    }

    #[test]
    fn reusing_one_engine_reproduces_the_run() {
        // 21 % 2 != 0: a round-robin counter surviving the first run would
        // shift the second run's assignments by one; a power-of-two probe
        // stream surviving would shift every probe pair.
        let trace = small_trace(21, 13);
        for policy in [
            RouterPolicy::RoundRobin,
            RouterPolicy::PowerOfTwoChoices { seed: 5 },
        ] {
            let mut fleet =
                FleetEngine::new(FleetConfig::paper_fleet(SystemKind::LoongServe, 2, policy));
            let a = run_plain(&mut fleet, &trace);
            let b = run_plain(&mut fleet, &trace);
            assert_eq!(a.assignments, b.assignments, "{policy:?}");
            assert_eq!(a.records, b.records, "{policy:?}");
        }
    }

    #[test]
    fn zero_replica_fleet_is_rejected() {
        // Once panicked in `FleetEngine::new`.
        let config = FleetConfig {
            replicas: 0,
            ..FleetConfig::paper_fleet(SystemKind::LoongServe, 1, RouterPolicy::Passthrough)
        };
        let stream = TraceStream::from_trace(small_trace(4, 1));
        let err = FleetEngine::new(config)
            .run(stream, &FleetPlan::fixed(0), None)
            .expect_err("a fleet needs at least one replica");
        assert_eq!(
            err,
            "replica bounds must satisfy 1 <= min <= max, got 0..=0"
        );
    }

    #[test]
    fn gpuless_nodes_are_rejected_before_the_run() {
        // Once panicked in `FleetEngine::new`.
        let err = run_edited(|c| c.cluster.gpus_per_node = 0).expect_err("no GPUs");
        assert_eq!(err, "nodes must have at least one GPU");
    }

    #[test]
    fn unsupported_pressure_mode_is_rejected_before_the_run() {
        for system in [
            SystemKind::DeepSpeedMii,
            SystemKind::LightLlmSplitFuse,
            SystemKind::DistServe,
            SystemKind::StaticHybrid,
        ] {
            let config = FleetConfig {
                pressure: PressureMode::Recompute,
                parallel: true,
                ..FleetConfig::paper_fleet(system, 2, RouterPolicy::RoundRobin)
            };
            let stream = TraceStream::from_trace(small_trace(4, 1));
            let err = FleetEngine::new(config)
                .run(stream, &FleetPlan::fixed(2), None)
                .expect_err("no pressure-aware scheduler");
            assert_eq!(
                err,
                format!("{} has no pressure-aware scheduler", system.label())
            );
        }
    }

    /// A 2-replica fleet run whose configuration `edit` has changed.
    fn run_edited(edit: impl FnOnce(&mut FleetConfig)) -> Result<FleetRun, String> {
        let mut config =
            FleetConfig::paper_fleet(SystemKind::LoongServe, 2, RouterPolicy::RoundRobin);
        edit(&mut config);
        let stream = TraceStream::from_trace(small_trace(8, 1));
        FleetEngine::new(config).run(stream, &FleetPlan::fixed(2), None)
    }

    #[test]
    fn invalid_model_is_rejected_before_the_run() {
        // Once panicked mid-run, when the first replica engine was built.
        let err = run_edited(|c| c.model.num_layers = 0).expect_err("invalid model");
        assert!(
            err.contains("layers/hidden/heads must be positive"),
            "{err}"
        );
    }

    #[test]
    fn tp_that_does_not_divide_the_node_is_rejected_before_the_run() {
        // LoongServe's TP=2 on a 1-GPU node once panicked building the
        // instance registry.
        let err = run_edited(|c| c.cluster = ClusterSpec::single_node_a800(1))
            .expect_err("TP=2 does not fit one GPU");
        assert_eq!(err, "LoongServe: tp=2 must divide the 1 GPUs per node");
    }

    #[test]
    fn disaggregation_without_two_instances_is_rejected_before_the_run() {
        // DistServe on a 1-GPU node once panicked splitting one instance
        // into a prefill and a decode half.
        let err = run_edited(|c| {
            c.system = SystemKind::DistServe;
            c.cluster = ClusterSpec::single_node_a800(1);
        })
        .expect_err("one instance cannot be split");
        assert!(err.contains("needs at least two instances, got 1"), "{err}");
    }
}
