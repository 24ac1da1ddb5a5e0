//! Per-layer measurement from outside the simulator.
//!
//! Every number here comes from timing the benchmark's own calls into
//! public APIs: `FleetEngine::route`, `ServingEngine::{new, run_traced}`
//! with a timing [`Scheduler`] decorator and a timing [`TraceSink`] around
//! the recorder, a replay of the captured batch shapes through
//! `CostModel::{prefill_cost, decode_cost}`, and `SelfProfile` windows. The
//! harness records a span around each call; spans stay in memory and are
//! written as Chrome trace-event JSON when the run ends.

use crate::workload::replica_system;
use loong_trace::{AdmitInfo, Gauges};
use loongserve::prelude::*;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Every Nth prefill action's batch shape is captured for the replay.
const PREFILL_STRIDE: u64 = 4;
/// Every Nth decode action's batch shape is captured for the replay.
const DECODE_STRIDE: u64 = 256;
/// Captured shapes kept per kind.
const MAX_SHAPES: usize = 4_096;

/// One harness span: a timed call into a layer.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    replica: Option<usize>,
}

/// The harness's span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span, and returns its result with the span's length in seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        replica: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        self.open.push(idx);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            replica,
        });
        let start = Instant::now();
        let value = f();
        let secs = start.elapsed().as_secs_f64();
        self.spans[idx].end_ns = self.now_ns();
        self.open.pop();
        (value, secs)
    }

    /// Opens a span that encloses later [`Spans::time`] calls.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            replica: None,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the span `idx` opened by [`Spans::enter`].
    pub fn exit(&mut self, idx: usize) {
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Chrome trace-event JSON (loadable in Perfetto): one complete event
    /// per span, with its parent index and replica as args.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{},\"replica\":{}}}}}",
                s.name,
                s.replica.unwrap_or(0),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                opt(s.parent),
                opt(s.replica),
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// What the timing scheduler decorator saw.
#[derive(Debug, Default)]
pub struct SchedStats {
    /// Scheduler invocations.
    pub calls: u64,
    /// Wall nanoseconds inside the wrapped scheduler.
    pub sched_ns: u64,
    /// Wall nanoseconds of the decorator's own bookkeeping.
    pub harness_ns: u64,
    /// Sum over calls of the pending-queue length.
    pub pending_sum: u64,
    /// Decode actions issued.
    pub decode_actions: u64,
    /// Sum of decode batch sizes.
    pub decode_batch_sum: u64,
    /// Prefill actions issued.
    pub prefill_actions: u64,
    /// Sum of prefill group sizes (degree of parallelism).
    pub prefill_dop_sum: u64,
    /// Sum over calls of the view's KV utilisation.
    pub kv_util_sum: f64,
    /// Highest KV utilisation seen.
    pub kv_util_peak: f64,
    /// Captured prefill shapes: prompt lengths and group size.
    pub prefill_shapes: Vec<(Vec<u64>, usize)>,
    /// Captured decode shapes: context lengths, group size and masters.
    pub decode_shapes: Vec<(Vec<u64>, usize, usize)>,
}

impl SchedStats {
    fn absorb(&mut self, other: SchedStats) {
        self.calls += other.calls;
        self.sched_ns += other.sched_ns;
        self.harness_ns += other.harness_ns;
        self.pending_sum += other.pending_sum;
        self.decode_actions += other.decode_actions;
        self.decode_batch_sum += other.decode_batch_sum;
        self.prefill_actions += other.prefill_actions;
        self.prefill_dop_sum += other.prefill_dop_sum;
        self.kv_util_sum += other.kv_util_sum;
        self.kv_util_peak = self.kv_util_peak.max(other.kv_util_peak);
        self.prefill_shapes.extend(other.prefill_shapes);
        self.decode_shapes.extend(other.decode_shapes);
        self.prefill_shapes.truncate(MAX_SHAPES);
        self.decode_shapes.truncate(MAX_SHAPES);
    }

    fn observe(&mut self, view: &SchedulerView<'_>, actions: &[Action]) {
        self.calls += 1;
        self.pending_sum += view.pending.len() as u64;
        let util = view.kv_utilization();
        self.kv_util_sum += util;
        self.kv_util_peak = self.kv_util_peak.max(util);
        for action in actions {
            match action {
                Action::Prefill {
                    instances,
                    requests,
                    ..
                } => {
                    if self.prefill_actions.is_multiple_of(PREFILL_STRIDE)
                        && self.prefill_shapes.len() < MAX_SHAPES
                    {
                        let lens = requests
                            .iter()
                            .filter_map(|id| view.pending.iter().find(|p| p.id == *id))
                            .map(|p| p.input_len)
                            .collect();
                        self.prefill_shapes.push((lens, instances.len()));
                    }
                    self.prefill_actions += 1;
                    self.prefill_dop_sum += instances.len() as u64;
                }
                Action::Decode {
                    instances,
                    masters,
                    requests,
                } => {
                    if self.decode_actions.is_multiple_of(DECODE_STRIDE)
                        && self.decode_shapes.len() < MAX_SHAPES
                    {
                        let context: HashMap<RequestId, u64> = view
                            .decoding
                            .iter()
                            .map(|d| (d.id, d.context_len))
                            .collect();
                        let lens = requests
                            .iter()
                            .filter_map(|id| context.get(id).copied())
                            .collect();
                        self.decode_shapes
                            .push((lens, instances.len(), masters.len()));
                    }
                    self.decode_actions += 1;
                    self.decode_batch_sum += requests.len() as u64;
                }
                _ => {}
            }
        }
    }
}

/// A [`Scheduler`] decorator that times the wrapped scheduler and records
/// what it was shown and what it decided.
struct TimingScheduler {
    inner: Box<dyn Scheduler>,
    stats: Rc<RefCell<SchedStats>>,
}

impl Scheduler for TimingScheduler {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn schedule(&mut self, view: &SchedulerView<'_>) -> Vec<Action> {
        let start = Instant::now();
        let actions = self.inner.schedule(view);
        let decided = Instant::now();
        let mut stats = self.stats.borrow_mut();
        stats.observe(view, &actions);
        stats.sched_ns += (decided - start).as_nanos() as u64;
        stats.harness_ns += decided.elapsed().as_nanos() as u64;
        actions
    }

    fn scaling_events(&self) -> &[ScalingEvent] {
        self.inner.scaling_events()
    }
}

/// A [`TraceSink`] that times every call into the wrapped recorder.
struct TimingSink<'a> {
    inner: &'a mut TraceRecorder,
    ns: u64,
}

impl TimingSink<'_> {
    fn timed(&mut self, f: impl FnOnce(&mut TraceRecorder)) {
        let start = Instant::now();
        f(self.inner);
        self.ns += start.elapsed().as_nanos() as u64;
    }
}

impl TraceSink for TimingSink<'_> {
    fn on_admitted(&mut self, at: SimTime, info: AdmitInfo) {
        self.timed(|r| r.on_admitted(at, info));
    }
    fn on_phase(&mut self, at: SimTime, id: RequestId, phase: SpanPhase) {
        self.timed(|r| r.on_phase(at, id, phase));
    }
    fn on_terminal(&mut self, at: SimTime, id: RequestId, terminal: Terminal) {
        self.timed(|r| r.on_terminal(at, id, terminal));
    }
    fn on_preempted(&mut self, at: SimTime, id: RequestId) {
        self.timed(|r| r.on_preempted(at, id));
    }
    fn on_cache_adopt(&mut self, at: SimTime, id: RequestId, tokens: u64) {
        self.timed(|r| r.on_cache_adopt(at, id, tokens));
    }
    fn on_cache_evict(&mut self, at: SimTime, entries: u64, tokens: u64) {
        self.timed(|r| r.on_cache_evict(at, entries, tokens));
    }
    fn on_gauges(&mut self, at: SimTime, gauges: Gauges) {
        self.timed(|r| r.on_gauges(at, gauges));
    }
}

/// A static fleet run decomposed into its layer calls.
pub struct Decomposition {
    /// The merged outcome, comparable with the fleet's own untraced run.
    pub outcome: FleetOutcome,
    /// The recorder every replica's sink fed.
    pub recorder: TraceRecorder,
    /// Wall seconds of `FleetEngine::route`.
    pub route_s: f64,
    /// Wall seconds of every `ServingEngine::new`.
    pub engine_new_s: f64,
    /// Wall seconds of every `run_traced`.
    pub run_s: f64,
    /// Wall nanoseconds inside the recorder.
    pub sink_ns: u64,
    /// Scheduling points the replicas executed.
    pub sched_points: u64,
    /// The scheduler decorator's observations over every replica.
    pub sched: SchedStats,
}

impl Decomposition {
    /// Wall seconds of the whole decomposed run.
    pub fn wall_s(&self) -> f64 {
        self.route_s + self.engine_new_s + self.run_s
    }

    /// Engine self time: run wall minus scheduler, sink and decorator.
    pub fn engine_self_s(&self) -> f64 {
        let others_ns = self.sched.sched_ns + self.sched.harness_ns + self.sink_ns;
        (self.run_s - others_ns as f64 * 1e-9).max(0.0)
    }
}

/// Runs `config`'s static fleet over `trace` call by call: route, split,
/// then per replica an engine built with `ServingEngine::new` from the
/// fleet's engine configuration, its scheduler wrapped in the timing
/// decorator, run with `run_traced` into a timing sink around a recorder.
pub fn decompose(config: &FleetConfig, trace: &Trace, spans: &mut Spans) -> Decomposition {
    let top = spans.enter("decompose");
    let n = config.replicas;
    let mut fleet = FleetEngine::new(config.clone());
    let (assignment, route_s) = spans.time("FleetEngine::route", None, || fleet.route(trace));
    let subs = trace.split_by_assignment(n, &assignment);
    let system = replica_system(config);
    let engine_config = engine_config(&system);
    let instance_ids = InstanceRegistry::build(&system.cluster, engine_config.tp).all_ids();

    let trace_config = TraceConfig::default();
    let mut recorder = TraceRecorder::new(trace_config);
    let mut sched = SchedStats::default();
    let (mut engine_new_s, mut run_s, mut sink_ns, mut sched_points) = (0.0, 0.0, 0u64, 0u64);
    let mut per_replica = Vec::with_capacity(n);
    for (r, sub) in subs.iter().enumerate() {
        let stats = Rc::new(RefCell::new(SchedStats::default()));
        let scheduler = Box::new(TimingScheduler {
            inner: system.kind.build_scheduler(&instance_ids, Some(sub)),
            stats: Rc::clone(&stats),
        });
        let (mut engine, new_s) = spans.time("ServingEngine::new", Some(r), || {
            ServingEngine::new(engine_config.clone(), scheduler)
        });
        let mut child = TraceRecorder::new(trace_config);
        let mut sink = TimingSink {
            inner: &mut child,
            ns: 0,
        };
        let profile = SelfProfile::start();
        let (outcome, secs) = spans.time("ServingEngine::run_traced", Some(r), || {
            engine.run_traced(sub, &mut sink)
        });
        sched_points += profile.report().counters.sched_points;
        sink_ns += sink.ns;
        engine_new_s += new_s;
        run_s += secs;
        recorder.merge_child(ReplicaId::from(r), child);
        drop(engine);
        let stats = Rc::try_unwrap(stats)
            .expect("the engine that shared the stats is dropped")
            .into_inner();
        sched.absorb(stats);
        per_replica.push(ReplicaOutcome {
            replica: ReplicaId::from(r),
            assigned: sub.len(),
            outcome,
        });
    }
    let assignments = trace
        .requests
        .iter()
        .zip(&assignment)
        .map(|(req, &r)| (req.id, ReplicaId::from(r)))
        .collect();
    let outcome = merge(per_replica, assignments);
    recorder.finalize(outcome.sim_time);
    spans.exit(top);
    Decomposition {
        outcome,
        recorder,
        route_s,
        engine_new_s,
        run_s,
        sink_ns,
        sched_points,
        sched,
    }
}

/// The engine configuration `SystemUnderTest::build_engine` gives each
/// replica (no memory-pressure tier: every workload runs with it off).
fn engine_config(system: &SystemUnderTest) -> EngineConfig {
    assert_eq!(
        system.pressure,
        PressureMode::Off,
        "workloads run without memory pressure"
    );
    EngineConfig {
        cluster: system.cluster.clone(),
        tp: system.kind.tp(system.cluster.gpus_per_node),
        model: system.model.clone(),
        workspace_fraction: 0.10,
        sib_noise: 0.01,
        seed: system.seed,
        max_sim_time: system.max_sim_time,
        host_swap: None,
        kv_capacity_override: system.kv_capacity_override,
        prefix_cache: system.prefix_cache,
        attention: system.attention,
    }
}

/// Merges per-replica outcomes the way the fleet does: records and
/// rejections by request id, counters summed, makespan maximised.
fn merge(
    per_replica: Vec<ReplicaOutcome>,
    assignments: Vec<(RequestId, ReplicaId)>,
) -> FleetOutcome {
    let mut out = FleetOutcome {
        per_replica: Vec::new(),
        assignments,
        records: Vec::new(),
        rejected: Vec::new(),
        unfinished: 0,
        sim_time: SimTime::ZERO,
        iterations: 0,
        migration_bytes: 0.0,
        scheduler_calls: 0,
        pressure: PressureStats::default(),
        cache: CacheStats::default(),
    };
    for r in &per_replica {
        let o = &r.outcome;
        out.records.extend(o.records.iter().copied());
        out.rejected.extend(o.rejected.iter().cloned());
        out.unfinished += o.unfinished;
        out.sim_time = out.sim_time.max(o.sim_time);
        out.iterations += o.iterations;
        out.migration_bytes += o.migration_bytes;
        out.scheduler_calls += o.scheduler_calls;
        out.pressure.merge(&o.pressure);
        out.cache.merge(&o.cache);
    }
    out.records.sort_by_key(|r| r.id);
    out.rejected.sort_by_key(|r| r.0);
    out.per_replica = per_replica;
    out
}

/// Replays the captured batch shapes through the fleet's cost model and
/// returns the mean wall nanoseconds per `prefill_cost` and `decode_cost`
/// call. Each replay repeats until it has run for at least `min_s`.
pub fn replay_cost_model(config: &FleetConfig, sched: &SchedStats, min_s: f64) -> (f64, f64) {
    let system = replica_system(config);
    let tp = system.kind.tp(system.cluster.gpus_per_node);
    let cost = CostModel::builder(system.model.clone())
        .gpu(system.cluster.gpu.clone())
        .attention(system.attention)
        .build();
    let link = system.cluster.intra_node_link;
    let timed = |calls_per_pass: usize, pass: &dyn Fn() -> f64| -> f64 {
        if calls_per_pass == 0 {
            return 0.0;
        }
        let start = Instant::now();
        let mut passes = 0u64;
        let mut sink = 0.0;
        while passes == 0 || start.elapsed().as_secs_f64() < min_s {
            sink += pass();
            passes += 1;
        }
        black_box(sink);
        start.elapsed().as_secs_f64() * 1e9 / (passes as f64 * calls_per_pass as f64)
    };
    let prefill = timed(sched.prefill_shapes.len(), &|| {
        sched
            .prefill_shapes
            .iter()
            .map(|(lens, sp)| {
                cost.prefill_cost(black_box(lens), ParallelConfig::new(tp, *sp), link)
                    .total()
            })
            .sum()
    });
    let decode = timed(sched.decode_shapes.len(), &|| {
        sched
            .decode_shapes
            .iter()
            .map(|(lens, sp, masters)| {
                cost.decode_cost(
                    black_box(lens),
                    ParallelConfig::new(tp, *sp),
                    *masters,
                    link,
                )
                .total()
            })
            .sum()
    });
    (prefill, decode)
}
