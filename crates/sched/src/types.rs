//! The scheduler interface shared by LoongServe and every baseline.
//!
//! The serving engine (in the `loongserve` crate) owns the simulation loop:
//! it tracks request state, executes iterations, and advances the clock. At
//! every scheduling point — a request arrival while resources are idle, or a
//! parallel group finishing an iteration — it hands the scheduler a
//! [`SchedulerView`] of the current state and receives a list of
//! [`Action`]s to execute. Re-forming batches and groups from scratch at
//! every scheduling point is exactly the iteration-granularity flexibility
//! ESP exploits; static baselines simply return the same shapes every time.
//!
//! Most points re-issue the decode that just completed. A scheduler may
//! certify such a repeat ([`Scheduler::certify_repeat`]), and the engine
//! then re-issues the decode without building a view or calling
//! [`Scheduler::schedule`].

use loong_esp::instance::InstanceRegistry;
use loong_kvcache::unified::UnifiedKvPool;
use loong_model::roofline::CostModel;
use loong_model::sib::ScalingInfoBase;
use loong_simcore::ids::{InstanceId, RequestId};
use loong_simcore::time::SimTime;

/// A request waiting in the pending queue (prefill not yet started, or only
/// partially processed by a chunked-prefill baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingRequest {
    /// The request.
    pub id: RequestId,
    /// Prompt tokens the prefill still has to process. With the prefix
    /// cache enabled this is the *uncached suffix* (re-matched at every
    /// scheduling point), so admission reservations and the batching DP
    /// budget price only the work a prefill would actually do; without it,
    /// the full prompt as before.
    pub input_len: u64,
    /// Prompt tokens already processed by previous chunked-prefill
    /// iterations (zero for untouched requests).
    pub prefilled_len: u64,
    /// User-declared bound on the output length, used for admission control.
    pub max_output_len: u64,
}

impl PendingRequest {
    /// Prompt tokens still to be processed.
    pub fn remaining_prefill(&self) -> u64 {
        self.input_len - self.prefilled_len
    }
}

/// A request in the decode phase that is ready for its next iteration (not
/// currently executing). The instances holding its KV are the pool's
/// record: `view.pool.locations_ref(id)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodingRequest {
    /// The request.
    pub id: RequestId,
    /// Current context length (prompt + generated) in tokens.
    pub context_len: u64,
    /// Output tokens generated so far.
    pub generated: u64,
    /// Time already spent in the decode phase, in seconds (used by the
    /// dispatching gain/cost estimate, Eq. 2).
    pub decode_time_s: f64,
}

/// Everything a scheduler may observe when making a decision.
///
/// Where KV lives is read from `pool`, the one record of it: the instances
/// holding a request's KV (`pool.locations_ref`, sorted by instance id),
/// its tokens on one instance (`pool.tokens_on`) and the tokens it has
/// parked on the host tier (`pool.swapped_tokens_of`).
pub struct SchedulerView<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// Pending requests in FCFS order.
    pub pending: &'a [PendingRequest],
    /// Decode-phase requests ready for their next iteration.
    pub decoding: &'a [DecodingRequest],
    /// Requests parked on the host swap tier, in admission order. Always
    /// empty when the host tier is disabled.
    pub swapped: &'a [RequestId],
    /// Instances with no iteration in flight, sorted by id.
    pub idle_instances: &'a [InstanceId],
    /// The unified KV pool (read-only).
    pub pool: &'a UnifiedKvPool,
    /// The elastic-instance registry.
    pub registry: &'a InstanceRegistry,
    /// The roofline cost model.
    pub cost_model: &'a CostModel,
    /// The scaling information base (the fitted prefill models).
    pub sib: &'a ScalingInfoBase,
    /// Mean normalised decode latency of finished requests so far (the
    /// `AvgLat_d` term of Eq. 2); zero until the first request finishes.
    pub avg_decode_latency_s: f64,
}

/// Reusable buffers for assembling a [`SchedulerView`] at every scheduling
/// point.
///
/// The engine builds the `pending`/`decoding`/`swapped`/`idle` slices
/// thousands of times per simulated second; owning the vectors
/// across scheduling points keeps the steady-state loop free of per-point
/// allocations. The entries are plain values — KV placement stays in the
/// pool — so [`ViewScratch::clear`] only resets lengths, keeping capacity.
#[derive(Debug, Default)]
pub struct ViewScratch {
    /// Pending requests, in arrival order.
    pub pending: Vec<PendingRequest>,
    /// Decode-ready requests, in arrival order.
    pub decoding: Vec<DecodingRequest>,
    /// Swapped-out requests, in arrival order.
    pub swapped: Vec<RequestId>,
    /// Idle instances, sorted by id.
    pub idle: Vec<InstanceId>,
}

impl ViewScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears every buffer, retaining capacity for reuse.
    pub fn clear(&mut self) {
        self.pending.clear();
        self.decoding.clear();
        self.swapped.clear();
        self.idle.clear();
    }

    /// Assembles a [`SchedulerView`] over the current buffer contents.
    #[allow(clippy::too_many_arguments)]
    pub fn view<'a>(
        &'a self,
        now: SimTime,
        pool: &'a UnifiedKvPool,
        registry: &'a InstanceRegistry,
        cost_model: &'a CostModel,
        sib: &'a ScalingInfoBase,
        avg_decode_latency_s: f64,
    ) -> SchedulerView<'a> {
        SchedulerView {
            now,
            pending: &self.pending,
            decoding: &self.decoding,
            swapped: &self.swapped,
            idle_instances: &self.idle,
            pool,
            registry,
            cost_model,
            sib,
            avg_decode_latency_s,
        }
    }
}

impl SchedulerView<'_> {
    /// Free KV slots across a set of instances.
    pub fn free_slots_on(&self, instances: &[InstanceId]) -> u64 {
        instances
            .iter()
            .map(|&i| self.pool.instance(i).free())
            .sum()
    }

    /// Device KV pool utilisation of the **active working set** in
    /// `[0, 1]` — the primary pressure signal watermark policies compare
    /// against. Retained prefix-cache entries are excluded: they are
    /// reclaimable on demand (the engine evicts them before committing any
    /// placement that needs their slots), so counting them as used would
    /// pause admission on a full cache while pinning the very requests
    /// whose prefills would shrink it. Identical to the raw device
    /// utilisation when the prefix tier is disabled.
    pub fn kv_utilization(&self) -> f64 {
        self.pool.active_utilization()
    }

    /// Reclaimable (retained prefix-cache) slots on a set of instances.
    /// Admission may treat these as free; the engine evicts as needed at
    /// execution. Always zero when the prefix tier is disabled.
    pub fn reclaimable_slots_on(&self, instances: &[InstanceId]) -> u64 {
        instances
            .iter()
            .map(|&i| self.pool.prefix_retained_on(i))
            .sum()
    }

    /// Free slots on the host swap tier (zero when the tier is disabled).
    pub fn host_free_slots(&self) -> u64 {
        self.pool.host().map(|h| h.free()).unwrap_or(0)
    }
}

/// One scheduling decision for the engine to execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Run a full prefill iteration for `requests` on `instances`, retaining
    /// the resulting KV on `retain_on` (proactive scale-down when
    /// `retain_on` is a strict subset).
    Prefill {
        /// Instances forming the prefill parallel group.
        instances: Vec<InstanceId>,
        /// Requests to prefill (must currently be pending and untouched).
        requests: Vec<RequestId>,
        /// Instances on which the KV is retained for the decode phase.
        retain_on: Vec<InstanceId>,
    },
    /// Run one decode iteration for `requests` on `instances` with the given
    /// master set.
    Decode {
        /// Instances forming the decode parallel group. Must include every
        /// instance holding KV of the batch's requests.
        instances: Vec<InstanceId>,
        /// Master instances (subset of `instances`).
        masters: Vec<InstanceId>,
        /// Requests to advance by one token.
        requests: Vec<RequestId>,
    },
    /// Run a mixed chunked-prefill iteration (SplitFuse-style baselines): a
    /// chunk of `chunk_tokens` prompt tokens of `prefill_request` is fused
    /// with one decode step for `decode_requests`.
    ChunkedPrefill {
        /// Instances forming the group.
        instances: Vec<InstanceId>,
        /// The request whose prompt is being chunked.
        prefill_request: RequestId,
        /// Number of prompt tokens to process this iteration.
        chunk_tokens: u64,
        /// Decode-phase requests fused into the same iteration.
        decode_requests: Vec<RequestId>,
    },
    /// Migrate all KV of `request` onto `targets` (an instance drain or a
    /// disaggregation hand-off). The request stalls for the transfer; the
    /// instances are not claimed, because the copy overlaps their
    /// computation on a separate stream.
    Migrate {
        /// The request whose KV moves.
        request: RequestId,
        /// The destination instances.
        targets: Vec<InstanceId>,
    },
    /// Reject a request the system cannot serve (e.g. it exceeds the KV
    /// capacity available under the system's placement constraints).
    Reject {
        /// The rejected request.
        request: RequestId,
        /// Human-readable reason recorded in the run report.
        reason: String,
    },
    /// Evict a decode-phase request under memory pressure by discarding its
    /// KV cache entirely; the request re-enters the pending queue and is
    /// recomputed from the prompt (the vLLM-style recompute policy).
    Preempt {
        /// The evicted request (must be decode-ready).
        request: RequestId,
    },
    /// Evict a decode-phase request to the host-DRAM swap tier; its KV is
    /// preserved and restored — no recompute — once pressure clears. The
    /// engine charges the D2H transfer on the PCIe host link.
    SwapOut {
        /// The evicted request (must be decode-ready).
        request: RequestId,
    },
    /// Restore a swapped-out request's KV from the host tier onto `targets`
    /// (the engine plans the token-level placement). The engine charges the
    /// H2D transfer on the PCIe host link.
    SwapIn {
        /// The request to restore (must be swapped out).
        request: RequestId,
        /// Candidate instances for the restored KV placement.
        targets: Vec<InstanceId>,
    },
}

/// A decode group whose iteration just completed, offered back to its
/// scheduler at a point where a view would list nothing pending and
/// exactly the group's members as decode-ready (see
/// [`Scheduler::certify_repeat`]).
pub struct DecodeRepeat<'a> {
    /// The completed decode's instances, now idle again.
    pub instances: &'a [InstanceId],
    /// Its requests, in the completed action's order: every one
    /// decode-ready again, and no other request is.
    pub requests: &'a [RequestId],
    /// A member's admission rank. A view lists decode-ready requests in
    /// ascending rank.
    pub rank: &'a dyn Fn(RequestId) -> u64,
    /// The unified KV pool (read-only).
    pub pool: &'a UnifiedKvPool,
    /// The elastic-instance registry.
    pub registry: &'a InstanceRegistry,
    /// The roofline cost model.
    pub cost_model: &'a CostModel,
}

/// Kinds of elastic scaling events, counted for Figure 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingEventKind {
    /// A decode group grew (memory- or compute-triggered).
    ScaleUp,
    /// A prefill group proactively shrank at the prefill/decode boundary.
    ProactiveScaleDown,
}

/// A timestamped scaling event emitted by a scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingEvent {
    /// When the decision was made.
    pub at: SimTime,
    /// What kind of scaling occurred.
    pub kind: ScalingEventKind,
    /// Change in the number of instances involved (positive for scale-up).
    pub delta_instances: i64,
}

/// The scheduling policy interface.
pub trait Scheduler {
    /// Human-readable name used in reports (e.g. "LoongServe", "vLLM").
    fn name(&self) -> String;

    /// Produces the actions to take given the current view. Called whenever
    /// resources free up or new work arrives, except at a point whose
    /// decision this scheduler certified would repeat
    /// ([`Scheduler::certify_repeat`]); returning no actions means "wait
    /// for the next event".
    fn schedule(&mut self, view: &SchedulerView<'_>) -> Vec<Action>;

    /// Certifies that at this point [`Scheduler::schedule`] would return
    /// exactly one action, `Action::Decode` of `repeat`'s instances and
    /// requests in their order, and log no scaling event, writing that
    /// decode's masters into `masters` (cleared first). The engine then
    /// re-issues the decode without building a view or calling `schedule`.
    ///
    /// The engine asks only at a point with no arrival whose one completed
    /// work is `repeat`'s decode iteration, with every member decode-ready
    /// again, nothing pending and no other request decode-ready. Whatever
    /// else `schedule` would read — KV placement, free slots, swapped
    /// requests, its own configuration — the certificate must cover.
    /// Release builds skip `schedule` at a certified point, so the call
    /// it stands for must change no state that any later decision reads
    /// (buffers that every call refills are fine): a scheduler whose
    /// calls carry state forward, such as a sticky routing table, must
    /// refuse wherever the call would change it. Debug builds call
    /// `schedule` at every certified point as well and assert that it
    /// returns the re-issued decode, which cannot see such state diverge
    /// later; `tests/certified_repeats.rs` compares whole runs in release.
    ///
    /// The default refuses, so a scheduler is called at every point until
    /// it opts in, and a decorator that does not forward this method keeps
    /// its inner scheduler on the calling path.
    fn certify_repeat(&self, repeat: &DecodeRepeat<'_>, masters: &mut Vec<InstanceId>) -> bool {
        let _ = (repeat, masters);
        false
    }

    /// Scaling events recorded so far (Figure 13b). Baselines that never
    /// scale return an empty slice.
    fn scaling_events(&self) -> &[ScalingEvent] {
        &[]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_remaining_prefill() {
        let p = PendingRequest {
            id: RequestId(0),
            input_len: 100,
            prefilled_len: 30,
            max_output_len: 64,
        };
        assert_eq!(p.remaining_prefill(), 70);
    }

    #[test]
    fn scaling_event_kinds_compare() {
        let e = ScalingEvent {
            at: SimTime::ZERO,
            kind: ScalingEventKind::ScaleUp,
            delta_instances: 1,
        };
        assert_eq!(e.kind, ScalingEventKind::ScaleUp);
        assert_ne!(e.kind, ScalingEventKind::ProactiveScaleDown);
    }
}
