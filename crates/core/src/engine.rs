//! The serving engine: a discrete-event simulation of one serving system.
//!
//! The engine owns everything a real serving frontend plus cluster would
//! own — the request lifecycle, the elastic instances, the unified KV pool,
//! and the clock — and delegates *policy* to a [`Scheduler`]. At every
//! scheduling point (a request arrival while resources are idle, or an
//! iteration/migration completing) it builds a
//! [`SchedulerView`](loong_sched::types::SchedulerView), executes the
//! returned [`Action`]s through the ESP mechanisms, and advances the clock
//! by the cost model's predicted iteration latencies.
//!
//! The engine is live: requests are admitted as they are routed and the
//! clock moves only when the engine is advanced, so a fleet keeps one
//! engine per replica lifetime and advances it from boundary to boundary.
//! Advancing in pieces reproduces advancing in one go bit for bit, because
//! an advance to `b` stops short of the events at `b` and admitted arrivals
//! always enter an instant's batch ahead of the work completing then.
//!
//! The same engine runs LoongServe and every baseline; only the scheduler
//! and the tensor-parallel degree of the elastic instances differ.

use loong_cluster::gpu::LinkSpec;
use loong_cluster::memory::{HostMemoryBudget, MemoryBudget};
use loong_cluster::topology::ClusterSpec;
use loong_esp::decode::{execute_decode, DecodeBuffer};
use loong_esp::instance::InstanceRegistry;
use loong_esp::prefill::execute_prefill;
use loong_esp::scaling::migrate_request;
use loong_kvcache::placement::PlacementStrategy;
use loong_kvcache::prefix::{PrefixCacheConfig, PrefixDemand};
use loong_kvcache::unified::UnifiedKvPool;
use loong_metrics::cache::CacheStats;
use loong_metrics::pressure::PressureStats;
use loong_metrics::record::RequestRecord;
use loong_model::attention::AttentionCostPolicy;
use loong_model::config::ModelConfig;
use loong_model::roofline::{CostModel, ParallelConfig};
use loong_model::sib::ScalingInfoBase;
use loong_sched::types::{
    Action, DecodeRepeat, DecodingRequest, PendingRequest, ScalingEvent, Scheduler, ViewScratch,
};
use loong_simcore::events::EventQueue;
use loong_simcore::ids::{ConversationId, InstanceId, RequestId};
use loong_simcore::profile;
use loong_simcore::rng::SimRng;
use loong_simcore::table::RequestTable;
use loong_simcore::time::{SimDuration, SimTime};
use loong_trace::{AdmitInfo, Gauges, NoopSink, SpanPhase, Terminal, TraceSink};
use loong_workload::request::Request;
use loong_workload::trace::Trace;

/// Static configuration of a serving-engine run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The simulated cluster.
    pub cluster: ClusterSpec,
    /// Tensor-parallel degree of each elastic instance.
    pub tp: usize,
    /// The model being served.
    pub model: ModelConfig,
    /// Fraction of GPU memory reserved for activations and buffers.
    pub workspace_fraction: f64,
    /// Measurement noise injected when profiling the SIB.
    pub sib_noise: f64,
    /// Seed for all engine-internal randomness.
    pub seed: u64,
    /// Hard cap on simulated time; requests still in flight when it is
    /// reached are dropped from the records. `None` means no cap.
    pub max_sim_time: Option<SimDuration>,
    /// The host-DRAM KV swap tier. `None` (the default) disables it: no
    /// host pool exists and swap actions are rejected, keeping every run
    /// bit-for-bit on the pre-subsystem path.
    pub host_swap: Option<HostSwapConfig>,
    /// Per-instance KV slot capacity override for overload experiments;
    /// `None` computes the capacity from the memory budget as always.
    pub kv_capacity_override: Option<u64>,
    /// The prefix-cache tier. `None` (the default) disables it: finished
    /// requests release their KV exactly as before and no lookup, retention
    /// or eviction code runs, keeping every run bit-for-bit on the
    /// pre-tier path.
    pub prefix_cache: Option<PrefixCacheConfig>,
    /// Attention-cost policy the run's cost model prices attention with.
    /// `Dense` (the default) keeps every run bit-for-bit on the pre-policy
    /// path; the sparse policies model LServe-style attention kernels.
    pub attention: AttentionCostPolicy,
}

/// Configuration of the host-DRAM KV swap tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSwapConfig {
    /// Host pool capacity in KV token slots (cluster-wide).
    pub capacity_tokens: u64,
    /// The device↔host link swap transfers are costed on (PCIe).
    pub link: LinkSpec,
}

impl HostSwapConfig {
    /// Sizes the tier from the cluster's per-node DRAM: half the total host
    /// memory across nodes (see [`HostMemoryBudget`]), divided by the
    /// model's whole-footprint KV bytes per token.
    pub fn from_cluster(cluster: &ClusterSpec, model: &ModelConfig) -> Self {
        let budget = HostMemoryBudget::new(
            cluster.host_memory_bytes * cluster.nodes as f64,
            model.kv_bytes_per_token(),
        );
        HostSwapConfig {
            capacity_tokens: budget.kv_slot_capacity(),
            link: cluster.host_link,
        }
    }
}

impl EngineConfig {
    /// KV slot capacity of one elastic instance under this configuration.
    pub fn instance_kv_capacity(&self) -> u64 {
        let budget = MemoryBudget::new(
            &self.cluster.gpu,
            self.model.weight_bytes_per_gpu(self.tp),
            self.workspace_fraction,
            self.model.kv_bytes_per_token_per_gpu(self.tp),
        );
        budget.kv_slot_capacity()
    }
}

/// Per-request dynamic state inside the engine: the one record of where a
/// request is in its lifecycle.
#[derive(Debug, Clone, PartialEq)]
enum Phase {
    /// Waiting in the pending queue; `prefilled` prompt tokens already
    /// processed by chunked-prefill iterations.
    Pending { prefilled: u64 },
    /// A full prefill iteration is in flight.
    Prefilling,
    /// In the decode phase, ready for the next iteration.
    DecodeReady { generated: u64 },
    /// A decode iteration is in flight.
    Decoding { generated: u64 },
    /// KV is being migrated between instances.
    Migrating { generated: u64 },
    /// KV is being copied to the host swap tier (D2H transfer in flight).
    SwappingOut { generated: u64 },
    /// Fully parked on the host swap tier, waiting for pressure to clear.
    Swapped { generated: u64 },
    /// KV is being restored from the host swap tier (H2D in flight).
    SwappingIn { generated: u64 },
    /// All output tokens produced.
    Finished,
    /// Rejected by the scheduler.
    Rejected,
}

#[derive(Debug, Clone)]
struct RequestState {
    request: Request,
    phase: Phase,
    prefill_start: Option<SimTime>,
    first_token: Option<SimTime>,
    preemptions: u32,
    /// Decode checkpoint of a preempt-and-recompute eviction: output tokens
    /// generated before the KV was discarded. The next prefill recomputes
    /// the KV of prompt *and* checkpointed tokens (vLLM's recompute
    /// semantics) and decoding resumes here rather than restarting — zero
    /// for never-preempted requests.
    resume_generated: u64,
    /// Prompt tokens adopted from the prefix cache at prefill dispatch;
    /// their KV was renamed in place, so the prefill processes (and is
    /// charged for) only the remaining suffix. Reset to zero by a
    /// preempt-and-recompute eviction, which discards the adopted KV along
    /// with everything else. Always zero with the tier disabled.
    reused: u64,
    /// True while the request may still adopt its conversation's cached
    /// prefix: set at arrival for conversation-tagged requests when the
    /// tier is enabled, cleared at its first prefill dispatch (hit or
    /// miss) or rejection. Mirrors one waiter pin in the prefix cache.
    waiting: bool,
}

impl RequestState {
    /// The prompt the next prefill must process: the original input plus
    /// any checkpointed output tokens whose KV a preemption discarded,
    /// minus tokens adopted from the prefix cache.
    fn effective_input(&self) -> u64 {
        self.request.input_len + self.resume_generated - self.reused
    }

    /// The declared output bound still ahead of the checkpoint; shrinks
    /// after a preemption so `effective_input + remaining_max_output` is
    /// invariant across evictions (admission reservations stay stable).
    fn remaining_max_output(&self) -> u64 {
        self.request
            .max_output_len
            .saturating_sub(self.resume_generated)
    }
}

/// Builds the scheduler-view entry for a pending request.
///
/// With the prefix cache enabled, the advertised `input_len` is the
/// *uncached suffix*: the prompt tokens a prefill would actually have to
/// process after adopting the conversation's retained prefix. Re-matching
/// here — at every scheduling point — is what lets a follow-up that arrived
/// while its previous turn was still decoding start hitting the cache the
/// moment that turn finishes. Admission (KV reservation and the batching
/// DP budget) therefore prices the suffix, not the full prompt; the cached
/// tokens are already allocated in the pool. With the tier disabled the
/// lookup short-circuits to zero and the entry is bit-for-bit the old one.
fn pending_entry(s: &RequestState, prefilled: u64, pool: &UnifiedKvPool) -> PendingRequest {
    let cached = if s.waiting {
        let conversation = s
            .request
            .conversation
            .expect("waiting requests have a conversation");
        pool.prefix_match_len(conversation, s.effective_input())
    } else {
        0
    };
    PendingRequest {
        id: s.request.id,
        input_len: s.effective_input() - cached,
        prefilled_len: prefilled,
        max_output_len: s.remaining_max_output(),
    }
}

/// Builds the scheduler-view entry for decode-ready request `id`, which has
/// generated `generated` tokens.
fn decoding_entry(
    id: RequestId,
    s: &RequestState,
    generated: u64,
    now: SimTime,
) -> DecodingRequest {
    DecodingRequest {
        id,
        context_len: s.request.input_len + generated,
        generated,
        decode_time_s: s
            .first_token
            .map(|ft| now.saturating_since(ft).as_secs())
            .unwrap_or(0.0),
    }
}

/// How many live requests are pending and how many decode-ready: a
/// view's queue depth and decode batch, kept where phases change.
#[derive(Debug, Default)]
struct PhaseCounts {
    pending: usize,
    decode_ready: usize,
}

impl PhaseCounts {
    /// The count a request in `phase` adds to, if any.
    fn of(&mut self, phase: &Phase) -> Option<&mut usize> {
        match phase {
            Phase::Pending { .. } => Some(&mut self.pending),
            Phase::DecodeReady { .. } => Some(&mut self.decode_ready),
            _ => None,
        }
    }
}

/// Running mean of finished requests' decode latencies (the `AvgLat_d` term
/// of Eq. 2), maintained as a sum + count instead of re-summing an
/// unbounded vector at every scheduling point. Values are accumulated in
/// finish order, which is exactly the order the old full re-sum visited
/// them, so the floating-point result is bit-for-bit identical.
#[derive(Debug, Default)]
struct DecodeLatencyStats {
    sum: f64,
    count: u64,
}

impl DecodeLatencyStats {
    fn record(&mut self, latency_s: f64) {
        self.sum += latency_s;
        self.count += 1;
    }

    fn average(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// An iteration, migration or transfer in flight, queued at its
/// completion instant.
#[derive(Debug)]
enum Work {
    Prefill {
        instances: Vec<InstanceId>,
        requests: Vec<RequestId>,
    },
    Decode {
        instances: Vec<InstanceId>,
        requests: Vec<RequestId>,
    },
    ChunkedPrefill {
        instances: Vec<InstanceId>,
        prefill_request: RequestId,
        /// Prompt tokens processed once this iteration completes.
        prefilled_after: u64,
        decode_requests: Vec<RequestId>,
    },
    Migration {
        request: RequestId,
    },
    /// A preemption teardown: the KV was already freed at action time; the
    /// (epsilon-length) event only guarantees another scheduling point sees
    /// the freed slots.
    Preempt,
    SwapOut {
        request: RequestId,
    },
    SwapIn {
        request: RequestId,
    },
}

/// The result of one engine run.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// Completed requests with full lifecycle timestamps.
    pub records: Vec<RequestRecord>,
    /// Requests the scheduler rejected, with reasons.
    pub rejected: Vec<(RequestId, String)>,
    /// Requests neither finished nor rejected when the run ended (overload
    /// or simulated-time cap).
    pub unfinished: usize,
    /// Scaling events reported by the scheduler.
    pub scaling_events: Vec<ScalingEvent>,
    /// The last instant the run processed; never past a simulated-time cap.
    pub sim_time: SimTime,
    /// Number of iterations executed (prefill + decode + chunked).
    pub iterations: u64,
    /// Bytes moved by explicit KV migrations.
    pub migration_bytes: f64,
    /// Scheduling points processed. Each is one scheduler call, but for a
    /// certified repeat, which re-issues a decode without calling it
    /// (`loong_simcore::profile` counts the calls made).
    pub scheduler_calls: u64,
    /// Memory-pressure activity: preempt-and-recompute evictions, swap
    /// traffic and stall time. All-zero whenever the run never crossed a
    /// pressure watermark.
    pub pressure: PressureStats,
    /// Prefix-cache activity: lookups, adoptions, reused tokens, saved
    /// prefill seconds and evictions. All-zero whenever the tier is
    /// disabled.
    pub cache: CacheStats,
    /// Total prompt tokens processed by prefill and chunked-prefill
    /// iterations. With the prefix cache enabled this counts only the
    /// uncached suffixes, so on a multi-turn trace it is strictly smaller
    /// than the cache-off figure (the reuse-correctness property pins
    /// this). Fully determined by the iteration stream the golden digests
    /// already pin, so it is not folded into them.
    pub prefilled_tokens: u64,
}

impl RunOutcome {
    /// Folds `other` into this outcome: records, rejections and scaling
    /// events append, counters sum, the pressure and cache ledgers merge and
    /// `sim_time` takes the later end. A replica's engine lifetimes and a
    /// fleet's replicas both accumulate through here.
    pub fn absorb(&mut self, other: &RunOutcome) {
        self.records.extend_from_slice(&other.records);
        self.rejected.extend_from_slice(&other.rejected);
        self.unfinished += other.unfinished;
        self.scaling_events.extend_from_slice(&other.scaling_events);
        self.sim_time = self.sim_time.max(other.sim_time);
        self.iterations += other.iterations;
        self.migration_bytes += other.migration_bytes;
        self.scheduler_calls += other.scheduler_calls;
        self.pressure.merge(&other.pressure);
        self.cache.merge(&other.cache);
        self.prefilled_tokens += other.prefilled_tokens;
    }
}

/// What an observer may read from a live engine between advances.
#[derive(Debug, Clone, Copy)]
pub struct EngineSignals<'a> {
    /// The last instant processed (zero before the first).
    pub now: SimTime,
    /// True when nothing is left to happen: no arrival ahead, no work in
    /// flight.
    pub idle: bool,
    /// Admitted requests neither completed nor rejected, including those
    /// whose arrival is still ahead.
    pub unresolved: usize,
    /// Their worst-case demand: prompt plus maximum output tokens, summed.
    pub backlog_tokens: u64,
    /// Completed requests, in completion order.
    pub completed: &'a [RequestRecord],
}

/// The state of one run: everything admitting and advancing mutates.
struct Live {
    pool: UnifiedKvPool,
    table: RequestTable<RequestState>,
    /// Admitted arrivals by (instant, admission order). They queue apart
    /// from the work so that at any instant they enter the batch ahead of
    /// the work completing then, however late they were admitted — the
    /// order a whole trace admitted up front produces.
    arrivals: EventQueue<RequestId>,
    /// Work in flight, by completion instant.
    work: EventQueue<Work>,
    /// Per instance id: whether no work occupies it. A claim clears the
    /// flag and its work's completion sets it again, so one scheduling
    /// point's actions can claim each idle instance once.
    idle: Vec<bool>,
    counts: PhaseCounts,
    /// The outcome so far: records in completion order, `unfinished` the
    /// admitted requests not yet resolved, `sim_time` the last instant
    /// processed.
    out: RunOutcome,
    /// Worst-case demand of the unresolved requests: prompt plus maximum
    /// output tokens, summed.
    backlog_tokens: u64,
    decode_stats: DecodeLatencyStats,
    // Reusable per-point buffers: the steady-state loop never allocates
    // them again.
    scratch: ViewScratch,
    /// The batch of the action being applied: `(id, tokens)`, the tokens
    /// to prefill or the context to decode over.
    batch: Vec<(RequestId, u64)>,
    /// `execute_decode`'s per-master counts.
    decode_buffer: DecodeBuffer,
    /// The masters of a certified repeat, written by the scheduler.
    masters: Vec<InstanceId>,
    #[cfg(debug_assertions)]
    audit: audit::ViewAudit,
}

impl Live {
    fn new(config: &EngineConfig, num_instances: usize) -> Self {
        let capacity = config
            .kv_capacity_override
            .unwrap_or_else(|| config.instance_kv_capacity());
        let mut pool = UnifiedKvPool::new(num_instances, capacity);
        if let Some(host) = &config.host_swap {
            pool.enable_host_tier(host.capacity_tokens);
        }
        if config.prefix_cache.is_some() {
            pool.enable_prefix_cache();
        }
        Live {
            pool,
            table: RequestTable::new(),
            arrivals: EventQueue::new(),
            work: EventQueue::new(),
            idle: vec![true; num_instances],
            counts: PhaseCounts::default(),
            out: RunOutcome::default(),
            backlog_tokens: 0,
            decode_stats: DecodeLatencyStats::default(),
            scratch: ViewScratch::new(),
            batch: Vec::new(),
            decode_buffer: DecodeBuffer::default(),
            masters: Vec::new(),
            #[cfg(debug_assertions)]
            audit: audit::ViewAudit::default(),
        }
    }

    fn phase(&self, id: RequestId) -> Option<&Phase> {
        self.table.get(id).map(|s| &s.phase)
    }

    /// Sets a request's phase, retiring it from the table's live list when the
    /// phase is terminal.
    ///
    /// Every phase write in the engine goes through here: the table's live list,
    /// filtered by phase, is the *only* source of the scheduler view's
    /// pending/decoding/swapped lists, and it must drop a request exactly when
    /// the request finishes or is rejected, so a direct `phase =` write of a
    /// terminal phase would leave a resolved request listed (the debug-build
    /// view audit would catch it). The pending and decode-ready counts change
    /// here too.
    ///
    /// It is also the tracing chokepoint: each write emits the matching
    /// lifecycle event into the [`TraceSink`] *after* the decision is already
    /// made, so sinks observe every transition but can influence none. Engine
    /// phases map onto trace spans many-to-one — the per-iteration
    /// `DecodeReady`/`Decoding` cycle all maps to [`SpanPhase::Decode`] — and
    /// the emission is elided here whenever the span phase does not change:
    /// recorders would coalesce the repeat anyway, and the decode loop cycles
    /// phases every iteration, so skipping the no-op emission keeps the
    /// tracing overhead proportional to *span* transitions, not engine
    /// iterations. Terminal phases become [`Terminal`] events rather than
    /// spans and are always emitted.
    fn set_phase(&mut self, id: RequestId, phase: Phase, now: SimTime, sink: &mut dyn TraceSink) {
        /// The span a non-terminal engine phase belongs to.
        fn span_of(phase: &Phase) -> Option<SpanPhase> {
            match phase {
                Phase::Pending { .. } => Some(SpanPhase::Queued),
                Phase::Prefilling => Some(SpanPhase::Prefill),
                Phase::DecodeReady { .. } | Phase::Decoding { .. } => Some(SpanPhase::Decode),
                Phase::Migrating { .. } => Some(SpanPhase::Migrate),
                Phase::SwappingOut { .. } => Some(SpanPhase::SwapOut),
                Phase::Swapped { .. } => Some(SpanPhase::SwappedOut),
                Phase::SwappingIn { .. } => Some(SpanPhase::SwapIn),
                Phase::Finished | Phase::Rejected => None,
            }
        }

        let state = self.table.get_mut(id).expect("known request");
        let terminal = match &phase {
            Phase::Finished => Some(Terminal::Completed),
            Phase::Rejected => Some(Terminal::Rejected),
            other => {
                let span = span_of(other).expect("non-terminal phase has a span");
                if span_of(&state.phase) != Some(span) {
                    sink.on_phase(now, id, span);
                }
                None
            }
        };
        if let Some(n) = self.counts.of(&state.phase) {
            *n -= 1;
        }
        if let Some(n) = self.counts.of(&phase) {
            *n += 1;
        }
        state.phase = phase;
        if let Some(terminal) = terminal {
            sink.on_terminal(now, id, terminal);
            self.table.retire(id);
        }
    }

    /// The next instant anything happens.
    fn next_instant(&self) -> Option<SimTime> {
        match (self.arrivals.peek_time(), self.work.peek_time()) {
            (Some(a), Some(w)) => Some(a.min(w)),
            (a, w) => a.or(w),
        }
    }

    /// An arrival fires. Requests become visible to the scheduler only now:
    /// admission assigns the rank that orders the table's live list.
    fn arrive(&mut self, id: RequestId, now: SimTime, sink: &mut dyn TraceSink) {
        self.table.admit(id);
        // Requests arrive pending.
        self.counts.pending += 1;
        let s = self.table.get_mut(id).expect("known request");
        sink.on_admitted(
            now,
            AdmitInfo {
                id,
                class: s.request.class,
                conversation: s.request.conversation,
                input_len: s.request.input_len,
                output_len: s.request.output_len,
            },
        );
        if let Some(conversation) = s
            .request
            .conversation
            .filter(|_| self.pool.prefix_enabled())
        {
            // Pin the conversation's (current or future) entry until this
            // request's first prefill.
            s.waiting = true;
            self.pool.prefix_waiter_add(conversation);
        }
        #[cfg(debug_assertions)]
        self.audit.on_arrival(id);
    }

    /// Books `id` as resolved: completed or rejected.
    fn resolve(&mut self, id: RequestId) {
        let r = &self.table.get(id).expect("known request").request;
        self.out.unfinished -= 1;
        self.backlog_tokens -= r.input_len + r.max_output_len;
    }

    /// Ends a request's wait for its conversation's cached prefix (at its
    /// first prefill dispatch, or its rejection), returning the
    /// conversation when it was waiting.
    fn drop_waiter(&mut self, id: RequestId) -> Option<ConversationId> {
        let s = self.table.get_mut(id).expect("known request");
        if !s.waiting {
            return None;
        }
        s.waiting = false;
        let conversation = s
            .request
            .conversation
            .expect("waiting requests have a conversation");
        self.pool.prefix_waiter_drop(conversation);
        Some(conversation)
    }

    /// Atomic match → reuse at a request's first prefill dispatch: a
    /// waiting request consults the prefix index exactly once, and a hit
    /// renames the cached slots to it in place. Returns the prompt and the
    /// adopted tokens on a hit.
    fn adopt_prefix(
        &mut self,
        id: RequestId,
        now: SimTime,
        sink: &mut dyn TraceSink,
    ) -> Option<(u64, u64)> {
        let conversation = self.drop_waiter(id)?;
        self.out.cache.lookups += 1;
        let s = self.table.get_mut(id).expect("known request");
        let prompt = s.effective_input();
        let tokens = self.pool.prefix_adopt(id, conversation, prompt)?;
        s.reused = tokens;
        self.out.cache.hits += 1;
        self.out.cache.reused_tokens += tokens;
        sink.on_cache_adopt(now, id, tokens);
        Some((prompt, tokens))
    }

    /// With the prefix cache on, evicts retained entries until `instances`
    /// have room for `tokens`.
    fn evict_for(
        &mut self,
        instances: &[InstanceId],
        tokens: u64,
        now: SimTime,
        sink: &mut dyn TraceSink,
    ) {
        if self.pool.prefix_enabled() {
            let evicted = self.pool.prefix_evict_for_instances(instances, tokens);
            self.note_evictions(evicted, now, sink);
        }
    }

    /// Books a prefix-cache eviction of `(entries, tokens)`.
    fn note_evictions(
        &mut self,
        (entries, tokens): (u64, u64),
        now: SimTime,
        sink: &mut dyn TraceSink,
    ) {
        self.out.cache.evicted_entries += entries;
        self.out.cache.evicted_tokens += tokens;
        if entries > 0 {
            sink.on_cache_evict(now, entries, tokens);
        }
    }

    /// Prefix-cache housekeeping ahead of the view, so the scheduler sees
    /// the post-eviction free slots: watermark eviction keeps retained KV
    /// from crowding out admission, and head-of-queue headroom eviction
    /// guarantees the FCFS head can always reserve at least what it could
    /// reserve with the tier disabled (the no-livelock argument: cached
    /// entries can never starve the head, so cache-on runs complete
    /// whatever cache-off runs complete).
    fn evict_for_head(&mut self, now: SimTime, sink: &mut dyn TraceSink) {
        if !self.pool.prefix_enabled() {
            return;
        }
        let head = self.table.iter_live().find_map(|(_, s)| match s.phase {
            Phase::Pending { .. } => Some(PrefixDemand {
                conversation: if s.waiting {
                    s.request.conversation
                } else {
                    None
                },
                remaining_input: s.effective_input(),
                reserve_output: s.remaining_max_output().max(1),
            }),
            _ => None,
        });
        let evicted = self.pool.prefix_evict_point(head);
        self.note_evictions(evicted, now, sink);
    }

    /// Assembles the scheduler view in one pass over the table's live list —
    /// requests in admission order, instances in id order, identical to a
    /// full rebuild. Where KV lives is not copied: schedulers read it from
    /// the pool.
    fn fill_view(&mut self, now: SimTime) {
        let (table, pool, scratch) = (&self.table, &self.pool, &mut self.scratch);
        scratch.clear();
        for (id, s) in table.iter_live() {
            match s.phase {
                Phase::Pending { prefilled } => {
                    scratch.pending.push(pending_entry(s, prefilled, pool))
                }
                Phase::DecodeReady { generated } => {
                    scratch.decoding.push(decoding_entry(id, s, generated, now))
                }
                Phase::Swapped { .. } => scratch.swapped.push(id),
                _ => {}
            }
        }
        scratch.idle.extend(
            self.idle
                .iter()
                .enumerate()
                .filter(|&(_, &idle)| idle)
                .map(|(i, _)| InstanceId::from(i)),
        );
    }

    /// Samples the point's gauges: the lengths a view's pending and
    /// decoding lists have, and the pool's active utilisation.
    fn emit_gauges(&self, now: SimTime, sink: &mut dyn TraceSink) {
        sink.on_gauges(
            now,
            Gauges {
                queue_depth: self.counts.pending as u64,
                batch_size: self.counts.decode_ready as u64,
                kv_utilization: self.pool.active_utilization(),
            },
        );
    }

    /// Whether every one of `instances` is still idle. Between the view and
    /// the actions only claims change the idle flags, so this is "idle in
    /// the view and claimed by no earlier action of this point".
    fn claimable(&self, instances: &[InstanceId]) -> bool {
        instances
            .iter()
            .all(|i| self.idle.get(i.index()) == Some(&true))
    }

    /// Marks `instances` busy; their work completes at `done`.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn claim(&mut self, instances: &[InstanceId], done: SimTime) {
        for inst in instances {
            self.idle[inst.index()] = false;
        }
        #[cfg(debug_assertions)]
        self.audit.on_claim(instances, done);
    }

    /// Keeps the decode-ready subset of `ids` in place and fills the batch
    /// buffer with them and their context lengths, in the same order.
    fn decode_batch(&mut self, ids: &mut Vec<RequestId>) {
        let (table, batch) = (&self.table, &mut self.batch);
        batch.clear();
        ids.retain(|&id| match table.get(id) {
            Some(s) => match s.phase {
                Phase::DecodeReady { generated } => {
                    batch.push((id, s.request.input_len + generated));
                    true
                }
                _ => false,
            },
            None => false,
        });
    }

    /// Moves a decode-ready request into its in-flight decode iteration.
    fn start_decoding(&mut self, id: RequestId, now: SimTime, sink: &mut dyn TraceSink) {
        if let Some(&Phase::DecodeReady { generated }) = self.phase(id) {
            self.set_phase(id, Phase::Decoding { generated }, now, sink);
        }
    }

    /// The prefill of `id` produced its first output token — or, after a
    /// recompute eviction, rebuilt the KV up to the checkpoint so decoding
    /// resumes there.
    fn prefilled(&mut self, id: RequestId, now: SimTime, sink: &mut dyn TraceSink) {
        let s = self.table.get_mut(id).expect("known request");
        s.first_token.get_or_insert(now);
        let generated = s.resume_generated.max(1);
        if s.request.output_len <= generated {
            self.finish_request(id, now, sink);
        } else {
            self.set_phase(id, Phase::DecodeReady { generated }, now, sink);
        }
    }

    /// Applies the effects of a completed piece of work, updating request
    /// phases and the idle flags as it goes. A decode iteration whose
    /// members all remain decode-ready hands back its instances and
    /// requests: the group's decode may repeat.
    fn complete(
        &mut self,
        work: Work,
        now: SimTime,
        sink: &mut dyn TraceSink,
    ) -> Option<(Vec<InstanceId>, Vec<RequestId>)> {
        match work {
            Work::Prefill {
                instances,
                requests,
            } => {
                self.release(&instances);
                for id in requests {
                    self.prefilled(id, now, sink);
                }
            }
            Work::Decode {
                instances,
                requests,
            } => {
                self.release(&instances);
                let mut ready = true;
                for &id in &requests {
                    ready &= self.advance_decode(id, now, sink);
                }
                return ready.then_some((instances, requests));
            }
            Work::ChunkedPrefill {
                instances,
                prefill_request,
                prefilled_after,
                decode_requests,
            } => {
                self.release(&instances);
                let effective_input = self
                    .table
                    .get(prefill_request)
                    .expect("known request")
                    .effective_input();
                let prefilled = prefilled_after.min(effective_input);
                if prefilled >= effective_input {
                    self.prefilled(prefill_request, now, sink);
                } else {
                    let phase = Phase::Pending { prefilled };
                    self.set_phase(prefill_request, phase, now, sink);
                }
                for id in decode_requests {
                    self.advance_decode(id, now, sink);
                }
            }
            // The phase was reset at action time; the event only forced a
            // scheduling point.
            Work::Preempt => {}
            // A request has one piece of work in flight at a time, so its
            // phase names the transfer that just landed.
            Work::Migration { request } | Work::SwapOut { request } | Work::SwapIn { request } => {
                let landed = match self.phase(request) {
                    Some(&(Phase::Migrating { generated } | Phase::SwappingIn { generated })) => {
                        Phase::DecodeReady { generated }
                    }
                    Some(&Phase::SwappingOut { generated }) => Phase::Swapped { generated },
                    _ => return None,
                };
                self.set_phase(request, landed, now, sink);
            }
        }
        None
    }

    /// Marks the instances of a completed iteration idle again.
    fn release(&mut self, instances: &[InstanceId]) {
        for inst in instances {
            self.idle[inst.index()] = true;
        }
    }

    /// One decode iteration completed for `id`: emit a token, finishing the
    /// request if that was the last one. Returns whether it is decode-ready
    /// again.
    fn advance_decode(&mut self, id: RequestId, now: SimTime, sink: &mut dyn TraceSink) -> bool {
        let s = self.table.get(id).expect("known request");
        if let Phase::Decoding { generated } = s.phase {
            let generated = generated + 1;
            if generated >= s.request.output_len {
                self.finish_request(id, now, sink);
                false
            } else {
                self.set_phase(id, Phase::DecodeReady { generated }, now, sink);
                true
            }
        } else {
            false
        }
    }

    fn finish_request(&mut self, id: RequestId, now: SimTime, sink: &mut dyn TraceSink) {
        self.resolve(id);
        let state = self.table.get(id).expect("known request");
        let first_token = state
            .first_token
            .expect("finished requests produced a first token");
        let request = &state.request;
        self.out.records.push(RequestRecord {
            id,
            arrival: request.arrival,
            input_len: request.input_len,
            output_len: request.output_len,
            prefill_start: state
                .prefill_start
                .expect("finished requests started prefill"),
            first_token,
            finish: now,
            preemptions: state.preemptions,
            class: request.class,
        });
        let conversation = request.conversation;
        self.set_phase(id, Phase::Finished, now, sink);
        self.decode_stats
            .record(now.saturating_since(first_token).as_secs());
        // With the prefix cache enabled, a conversation turn's full context
        // (prompt + generated KV) is retained in place — it is exactly the
        // shared history the next turn's prompt extends. Everything else
        // releases as before.
        match conversation {
            Some(conversation) if self.pool.prefix_enabled() => {
                let retained = self.pool.prefix_retain(id, conversation, now);
                if retained > 0 {
                    let total = self.pool.prefix().expect("enabled").retained_tokens();
                    self.out.cache.retained_tokens_high_water =
                        self.out.cache.retained_tokens_high_water.max(total);
                }
            }
            _ => {
                self.pool.release(id);
            }
        }
    }
}

/// The serving engine: one serving system, live.
///
/// Requests are [`admit`](ServingEngine::admit)ted as they are routed; the
/// clock moves only when the engine is asked to advance
/// ([`advance_until`](ServingEngine::advance_until) and its inclusive and
/// open-ended siblings); [`signals`](ServingEngine::signals) reads its state
/// in between; a crash [takes](ServingEngine::take_unresolved) whatever it
/// had not resolved; [`finish`](ServingEngine::finish) closes the run into
/// a [`RunOutcome`]. [`ServingEngine::run`] is the one-shot case: admit a
/// whole trace, advance to the end, finish.
///
/// `S` is the scheduler's type — `dyn Scheduler` by default. A fleet, whose
/// replica engines move between worker threads, uses
/// `dyn Scheduler + Send`.
pub struct ServingEngine<S: ?Sized = dyn Scheduler> {
    config: EngineConfig,
    registry: InstanceRegistry,
    cost_model: CostModel,
    sib: ScalingInfoBase,
    live: Live,
    scheduler: Box<S>,
}

impl<S: Scheduler + ?Sized> ServingEngine<S> {
    /// Builds an engine for the given configuration and scheduling policy.
    ///
    /// The SIB is profiled immediately (as the real system does offline)
    /// over the parallel configurations reachable with the configured
    /// tensor-parallel degree.
    pub fn new(config: EngineConfig, scheduler: Box<S>) -> Self {
        config.cluster.validate().expect("valid cluster");
        config.model.validate().expect("valid model");
        let registry = InstanceRegistry::build(&config.cluster, config.tp);
        let cost_model = CostModel::builder(config.model.clone())
            .gpu(config.cluster.gpu.clone())
            .attention(config.attention)
            .build();
        let mut rng = SimRng::seed(config.seed);
        let configs: Vec<ParallelConfig> = (1..=registry.num_instances())
            .map(|sp| ParallelConfig::new(config.tp, sp))
            .collect();
        let sib = ScalingInfoBase::profile(
            &cost_model,
            &configs,
            config.cluster.intra_node_link,
            config.sib_noise,
            &mut rng,
        );
        let live = Live::new(&config, registry.num_instances());
        ServingEngine {
            config,
            registry,
            cost_model,
            sib,
            live,
            scheduler,
        }
    }

    /// The instance registry used by this engine.
    pub fn registry(&self) -> &InstanceRegistry {
        &self.registry
    }

    /// Runs the engine over a trace and returns the outcome.
    ///
    /// Equivalent to [`ServingEngine::run_traced`] with a [`NoopSink`]
    /// (and bit-for-bit identical to it with *any* sink — sinks observe,
    /// they cannot steer).
    pub fn run(&mut self, trace: &Trace) -> RunOutcome {
        self.run_traced(trace, &mut NoopSink)
    }

    /// Admits the whole trace, advances to the end — or through
    /// `max_sim_time` when one is set — and finishes, emitting every
    /// request lifecycle edge, cache event and scheduling-point gauge into
    /// `sink`.
    pub fn run_traced(&mut self, trace: &Trace, sink: &mut dyn TraceSink) -> RunOutcome {
        for req in &trace.requests {
            self.admit(req.clone());
        }
        match self.config.max_sim_time {
            Some(cap) => self.advance_through(SimTime::ZERO + cap, sink),
            None => self.advance_to_end(sink),
        }
        self.finish()
    }

    /// Admits a routed request. It joins the batch at its arrival instant,
    /// ahead of the work completing then, in admission order among the
    /// requests arriving with it.
    ///
    /// # Panics
    ///
    /// Panics if the arrival lies before the last instant processed.
    pub fn admit(&mut self, request: Request) {
        let live = &mut self.live;
        assert!(
            request.arrival >= live.out.sim_time,
            "{} arrives at {:?}, before the engine's clock {:?}",
            request.id,
            request.arrival,
            live.out.sim_time
        );
        live.out.unfinished += 1;
        live.backlog_tokens += request.input_len + request.max_output_len;
        live.arrivals.push(request.arrival, request.id);
        let id = request.id;
        live.table.insert(
            id,
            RequestState {
                request,
                phase: Phase::Pending { prefilled: 0 },
                prefill_start: None,
                first_token: None,
                preemptions: 0,
                resume_generated: 0,
                reused: 0,
                waiting: false,
            },
        );
    }

    /// Processes every scheduling point strictly before `end`. Events at
    /// `end` itself wait, so requests admitted afterwards for `end` still
    /// join that instant's batch: advancing in pieces reproduces advancing
    /// in one go.
    pub fn advance_until(&mut self, end: SimTime, sink: &mut dyn TraceSink) {
        self.advance(sink, |t| t < end);
    }

    /// Processes every scheduling point at or before `end` — a cap or a
    /// crash: work completing at `end` still counts.
    pub fn advance_through(&mut self, end: SimTime, sink: &mut dyn TraceSink) {
        self.advance(sink, |t| t <= end);
    }

    /// Processes scheduling points until nothing is left to happen.
    pub fn advance_to_end(&mut self, sink: &mut dyn TraceSink) {
        self.advance(sink, |_| true);
    }

    /// Processes the scheduling points `go` admits, then hands their count,
    /// the scheduler calls made at them and the events they popped to
    /// [`profile`] in one go.
    fn advance(&mut self, sink: &mut dyn TraceSink, go: impl Fn(SimTime) -> bool) {
        let (mut points, mut calls, mut events) = (0u64, 0u64, 0u64);
        while let Some(now) = self.live.next_instant().filter(|&t| go(t)) {
            let (popped, called) = self.step(now, sink);
            events += popped;
            calls += u64::from(called);
            points += 1;
        }
        profile::add_sched_points(points);
        profile::add_sched_calls(calls);
        profile::add_events_popped(events);
    }

    /// The observable state between advances.
    pub fn signals(&self) -> EngineSignals<'_> {
        let live = &self.live;
        EngineSignals {
            now: live.out.sim_time,
            idle: live.next_instant().is_none(),
            unresolved: live.out.unfinished,
            backlog_tokens: live.backlog_tokens,
            completed: &live.out.records,
        }
    }

    /// A crash: removes every admitted request not yet completed or
    /// rejected — queued, running, or with its arrival still ahead — and
    /// returns them in id order, dropping the work in flight with them. It
    /// ends the engine's useful life; [`ServingEngine::finish`] then
    /// reports only what was resolved.
    pub fn take_unresolved(&mut self) -> Vec<Request> {
        let live = &mut self.live;
        live.arrivals.clear();
        live.work.clear();
        live.out.unfinished = 0;
        live.backlog_tokens = 0;
        live.counts = PhaseCounts::default();
        let ids: Vec<RequestId> = live
            .table
            .iter()
            .filter(|(_, s)| !matches!(s.phase, Phase::Finished | Phase::Rejected))
            .map(|(id, _)| id)
            .collect();
        ids.into_iter()
            .map(|id| live.table.remove(id).expect("listed above").request)
            .collect()
    }

    /// Closes the run: the outcome of every request admitted since the last
    /// finish, with `sim_time` the last instant processed. The engine then
    /// starts afresh; the scheduler, and with it its scaling-event log,
    /// carries over.
    pub fn finish(&mut self) -> RunOutcome {
        let fresh = Live::new(&self.config, self.registry.num_instances());
        let mut out = std::mem::replace(&mut self.live, fresh).out;
        out.records.sort_by_key(|r| r.id);
        out.scaling_events = self.scheduler.scaling_events().to_vec();
        out
    }

    /// One scheduling point at `now`: the instant's arrivals, then the work
    /// completing at it, prefix-cache housekeeping, the gauges, and either
    /// one scheduler call and its actions or a certified repeat. Returns the
    /// events it popped and whether it called the scheduler.
    ///
    /// Every scheduler-view input is maintained incrementally — the
    /// [`RequestTable`]'s live list, the idle instance flags, the KV
    /// residency index, running latency stats — so one point costs
    /// O(active requests + actions) instead of O(all requests ever seen).
    /// Debug builds shadow every view with a naive full-scan rebuild and
    /// assert equality.
    ///
    /// A point whose one event is a decode iteration completing, with
    /// every member decode-ready again, nothing pending and no other
    /// request decode-ready, offers the scheduler the repeat
    /// ([`Scheduler::certify_repeat`]). If it certifies it, the point
    /// re-issues the decode with the scheduler's masters and builds no view;
    /// debug builds still call the scheduler and assert it decides the same.
    fn step(&mut self, now: SimTime, sink: &mut dyn TraceSink) -> (u64, bool) {
        let live = &mut self.live;
        live.out.sim_time = now;
        // `scheduler_calls` counts scheduling points, certified or not.
        live.out.scheduler_calls += 1;
        let mut events = 0u64;
        while live.arrivals.peek_time() == Some(now) {
            let id = live.arrivals.pop().expect("peeked").payload;
            live.arrive(id, now, sink);
            events += 1;
        }
        let mut group = None;
        while live.work.peek_time() == Some(now) {
            let work = live.work.pop().expect("peeked").payload;
            group = live.complete(work, now, sink);
            events += 1;
        }
        live.evict_for_head(now, sink);
        live.emit_gauges(now, sink);
        let repeat = group.filter(|(instances, requests)| {
            events == 1 && self.certifies_repeat(instances, requests)
        });
        let live = &mut self.live;
        if cfg!(debug_assertions) || repeat.is_none() {
            live.fill_view(now);
        }
        #[cfg(debug_assertions)]
        live.audit.check(live, &self.registry, now);
        let Some((instances, requests)) = repeat else {
            let view = live.scratch.view(
                now,
                &live.pool,
                &self.registry,
                &self.cost_model,
                &self.sib,
                live.decode_stats.average(),
            );
            let actions = self.scheduler.schedule(&view);
            for action in actions {
                self.apply(action, now, sink);
            }
            return (events, true);
        };
        #[cfg(debug_assertions)]
        self.check_repeat(&instances, &requests, now);
        let masters = std::mem::take(&mut self.live.masters);
        self.decode(instances, &masters, requests, now, sink);
        self.live.masters = masters;
        (events, false)
    }

    /// The engine's part of a repeat's certificate — nothing pending, and
    /// no decode-ready request outside the group, whose members all are —
    /// then the scheduler's, which writes the masters into `Live::masters`.
    fn certifies_repeat(&mut self, instances: &[InstanceId], requests: &[RequestId]) -> bool {
        let live = &mut self.live;
        if live.counts.pending > 0 || live.counts.decode_ready != requests.len() {
            return false;
        }
        let table = &live.table;
        let rank = |id| table.rank(id).expect("decode-ready requests are admitted");
        let repeat = DecodeRepeat {
            instances,
            requests,
            rank: &rank,
            pool: &live.pool,
            registry: &self.registry,
            cost_model: &self.cost_model,
        };
        self.scheduler.certify_repeat(&repeat, &mut live.masters)
    }

    /// Debug builds hold a certified repeat to the scheduler's own
    /// decision: called on the point's view, it must return exactly the
    /// re-issued decode and log no scaling event.
    #[cfg(debug_assertions)]
    fn check_repeat(&mut self, instances: &[InstanceId], requests: &[RequestId], now: SimTime) {
        let live = &self.live;
        let view = live.scratch.view(
            now,
            &live.pool,
            &self.registry,
            &self.cost_model,
            &self.sib,
            live.decode_stats.average(),
        );
        let logged = self.scheduler.scaling_events().len();
        let actions = self.scheduler.schedule(&view);
        let repeat = Action::Decode {
            instances: instances.to_vec(),
            masters: live.masters.clone(),
            requests: requests.to_vec(),
        };
        assert_eq!(
            actions,
            [repeat],
            "the decode certified to repeat at {now:?} is not the scheduler's decision"
        );
        assert_eq!(
            self.scheduler.scaling_events().len(),
            logged,
            "the scheduler scaled at {now:?}, where it certified a repeat"
        );
    }

    /// Executes one scheduler action through the ESP mechanisms. Actions
    /// that no longer fit the state — an instance already claimed at this
    /// point, a request that moved on, a batch the pool cannot hold — are
    /// skipped.
    fn apply(&mut self, action: Action, now: SimTime, sink: &mut dyn TraceSink) {
        let live = &mut self.live;
        match action {
            Action::Reject { request, reason } => {
                if !matches!(live.phase(request), Some(Phase::Pending { .. })) {
                    return;
                }
                live.drop_waiter(request);
                live.set_phase(request, Phase::Rejected, now, sink);
                live.resolve(request);
                live.out.rejected.push((request, reason));
            }
            Action::Prefill {
                instances,
                mut requests,
                retain_on,
            } => {
                if !live.claimable(&instances) {
                    return;
                }
                // Only the pending requests form the batch; any other request
                // the action lists keeps its phase.
                requests.retain(|&id| matches!(live.phase(id), Some(Phase::Pending { .. })));
                if requests.is_empty() {
                    return;
                }
                // Atomic match → reuse: each untouched request consults the
                // prefix index exactly once, at the moment its prefill is
                // dispatched, and a hit renames the cached slots to it in
                // place. The prefill then processes (and the cost model
                // charges) only the uncached suffix — recompute evictions
                // still re-prefill their checkpointed tokens too.
                live.batch.clear();
                // Per-request (suffix, adopted) pairs of this batch's cache
                // hits, for cost accounting below.
                let mut adopted: Vec<(u64, u64)> = Vec::new();
                for &id in &requests {
                    if let Some((prompt, tokens)) = live.adopt_prefix(id, now, sink) {
                        adopted.push((prompt - tokens, tokens));
                    }
                    let s = live.table.get(id).expect("known request");
                    live.batch.push((id, s.effective_input()));
                }
                // Admission counted reclaimable slots as free; make good on
                // it before placing the retained KV.
                let needed: u64 = live.batch.iter().map(|&(_, tokens)| tokens).sum();
                live.evict_for(&retain_on, needed, now, sink);
                // Suffix prefills still attend over their adopted context:
                // charge the extra attention the plain suffix cost omits
                // (zero when nothing was adopted), exactly as the chunked
                // path spans its chunk over the processed prefix.
                let mut context_surcharge_s = 0.0f64;
                if !adopted.is_empty() {
                    let parallel = ParallelConfig::new(self.registry.tp(), instances.len());
                    let link = self.registry.link_between(&instances);
                    for &(suffix, reused) in &adopted {
                        context_surcharge_s += self
                            .cost_model
                            .cached_context_attention_s(suffix, reused, parallel);
                    }
                    // Saved-prefill accounting: what prefilling the adopted
                    // tokens would have cost on this group, batched per
                    // request (attention is quadratic, so lumping them would
                    // overstate the saving).
                    let adopted_lens: Vec<u64> =
                        adopted.iter().map(|&(_, tokens)| tokens).collect();
                    live.out.cache.saved_prefill_s += self
                        .cost_model
                        .prefill_cost(&adopted_lens, parallel, link)
                        .total();
                }
                let Ok(cost) = execute_prefill(
                    &instances,
                    &live.batch,
                    &retain_on,
                    &self.cost_model,
                    &self.registry,
                    &mut live.pool,
                ) else {
                    return;
                };
                live.out.iterations += 1;
                live.out.prefilled_tokens += needed;
                let done = now + SimDuration::from_secs(cost.total() + context_surcharge_s);
                live.claim(&instances, done);
                for &id in &requests {
                    live.set_phase(id, Phase::Prefilling, now, sink);
                    let s = live.table.get_mut(id).expect("known request");
                    s.prefill_start.get_or_insert(now);
                }
                live.work.push(
                    done,
                    Work::Prefill {
                        instances,
                        requests,
                    },
                );
            }
            Action::Decode {
                instances,
                masters,
                requests,
            } => self.decode(instances, &masters, requests, now, sink),
            Action::ChunkedPrefill {
                instances,
                prefill_request,
                chunk_tokens,
                mut decode_requests,
            } => {
                if !live.claimable(&instances) {
                    return;
                }
                let Some(&Phase::Pending { prefilled }) = live.phase(prefill_request) else {
                    return;
                };
                // First chunk of an untouched request: the same atomic match
                // → reuse as the full-prefill path.
                if let Some((_, tokens)) = live.adopt_prefix(prefill_request, now, sink) {
                    let parallel = ParallelConfig::new(self.registry.tp(), instances.len());
                    let link = self.registry.link_between(&instances);
                    live.out.cache.saved_prefill_s += self
                        .cost_model
                        .prefill_cost(&[tokens], parallel, link)
                        .total();
                }
                let state = live.table.get(prefill_request).expect("known request");
                let reused = state.reused;
                let chunk = chunk_tokens.min(state.effective_input() - prefilled);
                if chunk == 0 {
                    return;
                }
                let needed = chunk + decode_requests.len() as u64;
                live.evict_for(&instances, needed, now, sink);
                // Reserve KV for the chunk on the executing instances.
                if live
                    .pool
                    .place(
                        prefill_request,
                        chunk,
                        &instances,
                        PlacementStrategy::PackMostFree,
                    )
                    .is_err()
                {
                    return;
                }
                live.decode_batch(&mut decode_requests);
                let decode_lens: Vec<u64> = live.batch.iter().map(|&(_, len)| len).collect();
                // Append the decode tokens on the first instance; the fused
                // decode step advances only the requests that got a slot.
                let master = instances[0];
                decode_requests.retain(|&id| live.pool.append(id, master, 1).is_ok());
                let parallel = ParallelConfig::new(self.registry.tp(), instances.len());
                let link = self.registry.link_between(&instances);
                // Adopted tokens are real context: the chunk's attention
                // still spans them, it just skips their KV computation (zero
                // extra term when reused = 0).
                let cost = self.cost_model.chunked_prefill_cost(
                    chunk,
                    prefilled + reused,
                    &decode_lens,
                    parallel,
                    link,
                );
                live.out.iterations += 1;
                live.out.prefilled_tokens += chunk;
                let done = now + SimDuration::from_secs(cost.total());
                live.claim(&instances, done);
                let s = live.table.get_mut(prefill_request).expect("known request");
                s.prefill_start.get_or_insert(now);
                live.set_phase(prefill_request, Phase::Prefilling, now, sink);
                for &id in &decode_requests {
                    live.start_decoding(id, now, sink);
                }
                live.work.push(
                    done,
                    Work::ChunkedPrefill {
                        instances,
                        prefill_request,
                        prefilled_after: prefilled + chunk,
                        decode_requests,
                    },
                );
            }
            Action::Migrate { request, targets } => {
                let Some(&Phase::DecodeReady { generated }) = live.phase(request) else {
                    return;
                };
                let tokens = live.pool.tokens_of(request);
                live.evict_for(&targets, tokens, now, sink);
                let Ok(summary) = migrate_request(
                    request,
                    &targets,
                    &mut live.pool,
                    &self.cost_model,
                    &self.registry,
                ) else {
                    return;
                };
                live.out.migration_bytes += summary.total_bytes;
                live.set_phase(request, Phase::Migrating { generated }, now, sink);
                live.table
                    .get_mut(request)
                    .expect("known request")
                    .preemptions += 1;
                let done = now + SimDuration::from_secs(summary.time_s.max(1e-6));
                live.work.push(done, Work::Migration { request });
            }
            Action::Preempt { request } => {
                let Some(&Phase::DecodeReady { generated }) = live.phase(request) else {
                    return;
                };
                // Discard the KV and send the request back to the pending
                // queue; it keeps its admission rank, so it re-prefills in
                // FCFS position once pressure clears. The checkpoint makes
                // the next prefill recompute prompt + generated KV and
                // decoding resume in place, so each output token is
                // generated exactly once (vLLM's recompute semantics).
                live.pool.release(request);
                sink.on_preempted(now, request);
                live.set_phase(request, Phase::Pending { prefilled: 0 }, now, sink);
                let state = live.table.get_mut(request).expect("known request");
                state.resume_generated = generated;
                // Any adopted prefix KV was just discarded with the rest;
                // the recompute prefill covers it again.
                state.reused = 0;
                state.preemptions += 1;
                live.out.pressure.preemptions += 1;
                // Freeing memory schedules no work of its own; the epsilon
                // event guarantees a next scheduling point that sees the
                // freed slots.
                live.work
                    .push(now + SimDuration::from_secs(1e-6), Work::Preempt);
            }
            Action::SwapOut { request } => {
                let Some(&Phase::DecodeReady { generated }) = live.phase(request) else {
                    return;
                };
                let Some(host) = &self.config.host_swap else {
                    return;
                };
                let Ok(tokens) = live.pool.swap_out(request) else {
                    return;
                };
                // Device slots free immediately (the DMA drains
                // asynchronously); the request itself stalls for the D2H
                // transfer before it is parked.
                let bytes = tokens as f64 * self.cost_model.kv_bytes_per_token();
                let transfer_s = host.link.transfer_time(bytes).max(1e-6);
                live.set_phase(request, Phase::SwappingOut { generated }, now, sink);
                let pressure = &mut live.out.pressure;
                pressure.swap_out_events += 1;
                pressure.swap_out_bytes += bytes;
                pressure.swap_stall_s += transfer_s;
                pressure.max_outstanding_swapped_tokens = pressure
                    .max_outstanding_swapped_tokens
                    .max(live.pool.total_swapped());
                let done = now + SimDuration::from_secs(transfer_s);
                live.work.push(done, Work::SwapOut { request });
            }
            Action::SwapIn { request, targets } => {
                let Some(&Phase::Swapped { generated }) = live.phase(request) else {
                    return;
                };
                let Some(host) = &self.config.host_swap else {
                    return;
                };
                let tokens = live.pool.swapped_tokens_of(request);
                live.evict_for(&targets, tokens, now, sink);
                let Ok(tokens) =
                    live.pool
                        .swap_in(request, &targets, PlacementStrategy::PackMostFree)
                else {
                    return;
                };
                // Device slots are reserved now (no oversubscription while
                // the H2D transfer is in flight); the request resumes
                // decoding when it completes.
                let bytes = tokens as f64 * self.cost_model.kv_bytes_per_token();
                let transfer_s = host.link.transfer_time(bytes).max(1e-6);
                live.set_phase(request, Phase::SwappingIn { generated }, now, sink);
                live.out.pressure.swap_in_events += 1;
                live.out.pressure.swap_in_bytes += bytes;
                live.out.pressure.swap_stall_s += transfer_s;
                let done = now + SimDuration::from_secs(transfer_s);
                live.work.push(done, Work::SwapIn { request });
            }
        }
    }

    /// Executes a decode action, scheduled or a certified repeat: one
    /// iteration of `requests` on `instances` with the given masters, or
    /// nothing if the state no longer fits it.
    fn decode(
        &mut self,
        instances: Vec<InstanceId>,
        masters: &[InstanceId],
        mut requests: Vec<RequestId>,
        now: SimTime,
        sink: &mut dyn TraceSink,
    ) {
        let live = &mut self.live;
        if !live.claimable(&instances) {
            return;
        }
        live.decode_batch(&mut requests);
        if requests.is_empty() {
            return;
        }
        // Each batched request appends one token on a master, so headroom
        // must exist on the master set specifically — summing free slots
        // over the whole group could see room on non-master instances, skip
        // eviction, and leave a cache-crowded master stalling its decodes
        // (the pressure rescue path defers to this eviction for
        // prefix-crowded instances).
        live.evict_for(masters, requests.len() as u64, now, sink);
        let Ok(cost) = execute_decode(
            &instances,
            masters,
            &live.batch,
            &self.cost_model,
            &self.registry,
            &mut live.pool,
            &mut live.decode_buffer,
        ) else {
            return;
        };
        live.out.iterations += 1;
        let done = now + SimDuration::from_secs(cost.total());
        live.claim(&instances, done);
        for &id in &requests {
            live.start_decoding(id, now, sink);
        }
        live.work.push(
            done,
            Work::Decode {
                instances,
                requests,
            },
        );
    }
}

/// Debug-build shadow of the incrementally maintained scheduler-view state.
///
/// Every scheduling point, [`ViewAudit::check`] rebuilds the view the slow
/// way, from records of its own — the pending/decoding/swapped lists by a
/// full scan over an append-only arrival log, the idle list by comparing its
/// own busy-until record of claims with the clock — and asserts the scratch
/// buffers match element for element. The pool's residency index, which
/// schedulers read KV placement from, must pass its own invariant check.
/// Compiled only with debug assertions, so release builds (and benches) pay
/// nothing; `cargo test` exercises it on every engine run, including the
/// view-equivalence proptest over random traces.
#[cfg(debug_assertions)]
mod audit {
    use super::*;
    use std::collections::BTreeMap;

    #[derive(Default)]
    pub(super) struct ViewAudit {
        /// Arrival log, in event order: the old engine's `arrived` vector.
        arrived: Vec<RequestId>,
        /// Per claimed instance, when its latest claim's work completes.
        busy_until: BTreeMap<InstanceId, SimTime>,
    }

    impl ViewAudit {
        pub(super) fn on_arrival(&mut self, id: RequestId) {
            self.arrived.push(id);
        }

        pub(super) fn on_claim(&mut self, instances: &[InstanceId], done: SimTime) {
            for &inst in instances {
                self.busy_until.insert(inst, done);
            }
        }

        pub(super) fn check(&self, live: &Live, registry: &InstanceRegistry, now: SimTime) {
            let (table, pool, scratch) = (&live.table, &live.pool, &live.scratch);
            table
                .check_invariants()
                .expect("request-table live list consistent");
            for (id, s) in table.iter_live() {
                assert!(
                    !matches!(s.phase, Phase::Finished | Phase::Rejected),
                    "request {id} is {:?} but still listed live",
                    s.phase
                );
            }
            pool.check_invariants()
                .expect("kv-pool residency index consistent");

            // Eviction-disjointness: prefix retention only ever holds KV of
            // *finished* requests, so cached entries and the active working
            // set (the requests pressure policies may victimise) can never
            // overlap.
            if let Some(cache) = pool.prefix() {
                for (conversation, entry) in cache.entries() {
                    let owner = table.get(entry.owner).expect("cached owners are known");
                    assert!(
                        matches!(owner.phase, Phase::Finished),
                        "prefix entry for {conversation} retains KV of {} which is {:?}, not finished",
                        entry.owner,
                        owner.phase
                    );
                }
            }

            let naive_pending: Vec<PendingRequest> = self
                .arrived
                .iter()
                .filter_map(|&id| {
                    let s = table.get(id)?;
                    match s.phase {
                        Phase::Pending { prefilled } => Some(pending_entry(s, prefilled, pool)),
                        _ => None,
                    }
                })
                .collect();
            assert_eq!(
                scratch.pending, naive_pending,
                "incremental pending view diverged from full-scan rebuild"
            );

            let naive_decoding: Vec<DecodingRequest> = self
                .arrived
                .iter()
                .filter_map(|&id| {
                    let s = table.get(id)?;
                    match s.phase {
                        Phase::DecodeReady { generated } => {
                            Some(decoding_entry(id, s, generated, now))
                        }
                        _ => None,
                    }
                })
                .collect();
            assert_eq!(
                scratch.decoding, naive_decoding,
                "incremental decoding view diverged from full-scan rebuild"
            );

            let naive_swapped: Vec<RequestId> = self
                .arrived
                .iter()
                .copied()
                .filter(|&id| {
                    table
                        .get(id)
                        .is_some_and(|s| matches!(s.phase, Phase::Swapped { .. }))
                })
                .collect();
            assert_eq!(
                scratch.swapped, naive_swapped,
                "incremental swapped view diverged from full-scan rebuild"
            );
            assert_eq!(
                (live.counts.pending, live.counts.decode_ready),
                (naive_pending.len(), naive_decoding.len()),
                "pending and decode-ready counts diverged from full-scan rebuild"
            );

            // The old engine re-filtered every instance against `busy_until`
            // with a time comparison; the engine instead clears an
            // instance's idle flag on a claim and sets it on completion.
            // Equivalence also proves no instance whose work ended (end
            // time <= now) stays busy at a scheduling point.
            let naive_idle: Vec<InstanceId> = registry
                .all_ids()
                .into_iter()
                .filter(|i| self.busy_until.get(i).is_none_or(|&t| t <= now))
                .collect();
            assert_eq!(
                scratch.idle, naive_idle,
                "incremental idle flags diverged from busy_until re-filter"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::{SystemKind, SystemUnderTest};
    use loong_sched::types::SchedulerView;
    use loong_workload::arrival::ArrivalProcess;
    use loong_workload::datasets::DatasetKind;

    fn small_trace(rate: f64, count: usize, seed: u64) -> Trace {
        let mut rng = SimRng::seed(seed);
        Trace::generate(
            DatasetKind::ShareGpt,
            ArrivalProcess::Poisson { rate },
            count,
            &mut rng,
        )
    }

    fn engine_for(kind: SystemKind) -> ServingEngine {
        SystemUnderTest::paper_single_node(kind).build_engine(None)
    }

    #[test]
    fn instance_kv_capacity_is_plausible_for_lwm_on_a800() {
        let config = SystemUnderTest::paper_single_node(SystemKind::LoongServe).engine_config();
        let capacity = config.instance_kv_capacity();
        // Two 80 GB GPUs minus weights and workspace at 256 KiB/token/GPU:
        // a few hundred thousand tokens.
        assert!(
            capacity > 150_000 && capacity < 400_000,
            "capacity {capacity}"
        );
    }

    #[test]
    fn empty_trace_finishes_immediately() {
        let mut engine = engine_for(SystemKind::LoongServe);
        let outcome = engine.run(&Trace::from_requests("empty", vec![]));
        assert!(outcome.records.is_empty());
        assert_eq!(outcome.unfinished, 0);
        assert_eq!(outcome.iterations, 0);
    }

    #[test]
    fn single_request_lifecycle_timestamps_are_ordered() {
        let mut engine = engine_for(SystemKind::LoongServe);
        let request = Request::new(RequestId(0), SimTime::from_secs(1.0), 5_000, 20);
        let outcome = engine.run(&Trace::from_requests("single", vec![request]));
        assert_eq!(outcome.records.len(), 1);
        let r = &outcome.records[0];
        assert!(r.validate().is_ok());
        assert!(r.prefill_start >= SimTime::from_secs(1.0));
        assert!(r.first_token > r.prefill_start);
        assert!(r.finish > r.first_token);
        // 20 output tokens need 19 decode iterations plus the prefill.
        assert_eq!(outcome.iterations, 20);
    }

    #[test]
    fn scheduler_name_is_exposed() {
        let engine = engine_for(SystemKind::Vllm);
        assert!(engine.scheduler.name().contains("vLLM"));
        assert_eq!(engine.registry().num_instances(), 1);
    }

    #[test]
    fn concurrent_requests_share_the_cluster() {
        let mut engine = engine_for(SystemKind::LoongServe);
        let trace = small_trace(10.0, 30, 5);
        let outcome = engine.run(&trace);
        assert_eq!(
            outcome.records.len() + outcome.unfinished + outcome.rejected.len(),
            30
        );
        assert!(
            outcome.records.len() >= 28,
            "almost all short requests should finish"
        );
        assert!(outcome.scheduler_calls > 0);
        assert!(outcome.sim_time > SimTime::ZERO);
    }

    #[test]
    fn capped_runs_report_no_instant_past_the_cap() {
        // `sim_time` is the last instant processed, never the instant of
        // the first batch past the cap: nothing runs there.
        let trace = small_trace(8.0, 40, 41);
        for cap_s in [0.5, 1.0, 2.5] {
            let mut engine = engine_for(SystemKind::LoongServe);
            engine.config.max_sim_time = Some(SimDuration::from_secs(cap_s));
            let outcome = engine.run(&trace);
            assert!(outcome.unfinished > 0, "the {cap_s} s cap must bite");
            assert!(
                outcome.sim_time <= SimTime::from_secs(cap_s),
                "a {cap_s} s cap reported sim_time {:?}",
                outcome.sim_time
            );
        }
    }

    /// LoongServe, with a decode-ready request appended to every prefill
    /// action it emits.
    struct ListsDecodeReadyInPrefills {
        inner: Box<dyn Scheduler>,
        injected: usize,
    }

    impl Scheduler for ListsDecodeReadyInPrefills {
        fn name(&self) -> String {
            self.inner.name()
        }

        fn schedule(&mut self, view: &SchedulerView<'_>) -> Vec<Action> {
            let mut actions = self.inner.schedule(view);
            if let Some(ready) = view.decoding.first() {
                for action in &mut actions {
                    if let Action::Prefill { requests, .. } = action {
                        requests.push(ready.id);
                        self.injected += 1;
                    }
                }
            }
            actions
        }

        fn scaling_events(&self) -> &[ScalingEvent] {
            self.inner.scaling_events()
        }
    }

    #[test]
    fn a_prefill_action_changes_only_the_requests_it_prefills() {
        // A decode-ready request listed in a prefill action is not part of
        // its batch, so it must keep decoding as if it were not listed.
        let trace = small_trace(10.0, 40, 5);
        let plain = engine_for(SystemKind::LoongServe).run(&trace);
        let base = engine_for(SystemKind::LoongServe);
        let config = base.config.clone();
        let wrapped = ListsDecodeReadyInPrefills {
            inner: base.scheduler,
            injected: 0,
        };
        let mut engine = ServingEngine::new(config, Box::new(wrapped));
        let outcome = engine.run(&trace);
        assert!(engine.scheduler.injected > 0, "the wrapper never injected");
        assert_eq!(outcome.records, plain.records);
        assert_eq!(outcome.iterations, plain.iterations);
        assert_eq!(outcome.prefilled_tokens, plain.prefilled_tokens);
        assert_eq!(outcome.scheduler_calls, plain.scheduler_calls);
    }

    #[test]
    fn identical_engines_produce_identical_outcomes() {
        let trace = small_trace(5.0, 20, 9);
        let mut a = engine_for(SystemKind::LoongServe);
        let mut b = engine_for(SystemKind::LoongServe);
        let oa = a.run(&trace);
        let ob = b.run(&trace);
        assert_eq!(oa.records, ob.records);
        assert_eq!(oa.iterations, ob.iterations);
    }
}
