//! The static-parallelism baselines the paper compares against (§7.1).
//!
//! All baselines run on the same simulated substrate as LoongServe (same
//! cost model, same KV pool semantics, same workload traces); only the
//! scheduling policy and parallelism shape differ, which isolates the
//! contribution of elastic sequence parallelism exactly the way the paper's
//! evaluation does.
//!
//! One [`BaselineScheduler`] serves them all, over the fixed groups of a
//! [`Layout`]. At every scheduling point it rejects what the layout can
//! never place (`reject_oversized`, which the LoongServe manager calls
//! too), admits pending requests first-come first-served onto a prefill
//! group, and decodes each ready request on the instance holding its KV.
//!
//! * [`Layout::PerInstance`] — vLLM (TP=8; with several nodes, one engine
//!   per node) and the "w/o ESP (TP=2) x 4" ablation of Figure 12. Each
//!   instance is an engine with a strict locality constraint (a request's
//!   whole KV on one instance), requests route to the instance with the
//!   most free KV, prefill takes priority over decode, and requests no
//!   single instance can hold are rejected — the fragmentation weakness
//!   §2.4 highlights. The only layout that handles memory pressure.
//! * [`Layout::Chunked`] — DeepSpeed-MII (Dynamic SplitFuse) and LightLLM
//!   w/ SplitFuse (SARATHI): each iteration fuses one fixed-size chunk of
//!   a prompt with the decode tokens of the running requests. Chunking
//!   bounds the interference of long prompts on decoding, but makes the
//!   prefill itself much less efficient for very long prompts, and
//!   interference remains when the prefill-to-decode token ratio is high.
//! * [`Layout::Disaggregated`] — DistServe: one half of the instances
//!   prefills, the other decodes, and each request's KV migrates between
//!   them at the phase boundary. No interference, but (§7.2) each phase
//!   uses half the GPUs, every request pays a migration, and the longest
//!   admissible request is bounded by one half's memory — why DistServe
//!   runs out of memory on LV-Eval and Mixed.
//! * [`Layout::OneGroup`] — the "w/o ESP (TP=2, SP=4)" ablation of Figure
//!   12: every batch, prefill or decode, runs on all instances as one
//!   group of fixed degree, isolating the contribution of elasticity from
//!   that of sequence parallelism itself.

use crate::pressure::{
    admission_budget, admission_paused, admission_reserve, pressure_actions_with_rescue,
    PressureMode, HIGH_WATERMARK, LOW_WATERMARK, OUTPUT_RESERVE_FACTOR,
};
use crate::types::{Action, PendingRequest, Scheduler, SchedulerView};
use loong_model::roofline::ParallelConfig;
use loong_simcore::ids::{InstanceId, RequestId};
use std::collections::{BTreeMap, HashMap};

/// The fixed parallel groups a static baseline serves on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Layout {
    /// Every instance is an independent engine that prefills whole prompts.
    PerInstance,
    /// Every instance is an independent engine that fuses a chunk of
    /// `chunk_tokens` prompt tokens with its resident decodes.
    Chunked {
        /// Prompt tokens fused into each iteration.
        chunk_tokens: u64,
    },
    /// Prefill instances hand each request's KV to decode instances.
    Disaggregated {
        /// The instances dedicated to the prefill phase.
        prefill: Vec<InstanceId>,
        /// The instances dedicated to the decode phase.
        decode: Vec<InstanceId>,
    },
    /// All instances form one sequence-parallel group, so nothing is
    /// scheduled, not even a rejection, until every instance is idle.
    OneGroup,
}

impl Layout {
    /// The chunk size used when no workload-specific tuning is supplied
    /// (DeepSpeed-MII's default is 2 Ki tokens).
    pub const DEFAULT_CHUNK_TOKENS: u64 = 2048;

    /// SARATHI's ideal chunk size for a workload, as the paper tunes its
    /// LightLLM baseline (§7.1): the chunk that spreads a mean-length
    /// prompt over the mean number of decode iterations, i.e.
    /// `mean_input / mean_output`, clamped to a practical range.
    ///
    /// # Panics
    ///
    /// Panics if either mean is not positive.
    pub fn ideal_chunk_tokens(mean_input_len: f64, mean_output_len: f64) -> u64 {
        assert!(
            mean_input_len > 0.0 && mean_output_len > 0.0,
            "means must be positive"
        );
        let ratio = mean_input_len / mean_output_len;
        (ratio.round() as u64).clamp(256, 65_536)
    }

    /// Splits `instances` evenly: the first half prefills, the second half
    /// decodes (with the paper's TP=4, one instance each per node). Errs
    /// with fewer than two instances.
    pub fn disaggregated(instances: &[InstanceId]) -> Result<Layout, String> {
        if instances.len() < 2 {
            return Err(format!(
                "prefill-decode disaggregation needs at least two instances, got {}",
                instances.len()
            ));
        }
        let (prefill, decode) = instances.split_at(instances.len() / 2);
        Ok(Layout::Disaggregated {
            prefill: prefill.to_vec(),
            decode: decode.to_vec(),
        })
    }
}

/// A static-parallelism baseline: the shared stages over one [`Layout`].
#[derive(Debug, Clone)]
pub struct BaselineScheduler {
    name: String,
    layout: Layout,
    /// Pending requests already routed to an instance by the per-instance
    /// and chunked layouts (sticky routing, so a request is not bounced
    /// between instances while it waits).
    routing: HashMap<RequestId, InstanceId>,
    /// Memory-pressure handling. `Off` (the default) keeps the
    /// conservative full-output reservation and never emits pressure
    /// actions — the golden-pinned behaviour.
    pressure: PressureMode,
}

impl BaselineScheduler {
    /// Creates the baseline with a report label such as `"vLLM (TP=8)"`.
    ///
    /// # Panics
    ///
    /// Panics if a chunked layout has a zero chunk size.
    pub fn new(name: impl Into<String>, layout: Layout) -> Self {
        if let Layout::Chunked { chunk_tokens } = layout {
            assert!(chunk_tokens > 0, "chunk size must be positive");
        }
        BaselineScheduler {
            name: name.into(),
            layout,
            routing: HashMap::new(),
            pressure: PressureMode::Off,
        }
    }

    /// Sets the memory-pressure handling. Any mode but
    /// [`PressureMode::Off`] means optimistic admission (the prompt plus
    /// one slot, none of the output bound), watermark-driven victim
    /// eviction, and (for the swap policy) re-admission from the host
    /// tier. Errs, naming the baseline, when such a mode is asked of
    /// any layout but [`Layout::PerInstance`].
    pub fn with_pressure(mut self, pressure: PressureMode) -> Result<Self, String> {
        if pressure != PressureMode::Off && self.layout != Layout::PerInstance {
            return Err(format!("{} has no pressure-aware scheduler", self.name));
        }
        self.pressure = pressure;
        Ok(self)
    }
}

impl Scheduler for BaselineScheduler {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn schedule(&mut self, view: &SchedulerView<'_>) -> Vec<Action> {
        let mut actions = Vec::new();
        let (routing, pressure) = (&mut self.routing, self.pressure);
        let largest = |instances: &[InstanceId]| {
            let capacities = instances.iter().map(|&i| view.pool.instance(i).capacity());
            capacities.max().unwrap_or(0)
        };
        match &self.layout {
            Layout::PerInstance => {
                let limit = largest(&view.registry.all_ids());
                let note = " (locality constraint)";
                reject_oversized(view, limit, "a single instance", note, &mut actions);
                per_instance(view, routing, pressure, &mut actions);
            }
            Layout::Chunked { chunk_tokens } => {
                let limit = largest(&view.registry.all_ids());
                reject_oversized(view, limit, "a single instance", "", &mut actions);
                chunked(view, routing, *chunk_tokens, limit, &mut actions);
            }
            Layout::Disaggregated { prefill, decode } => {
                // A request must fit one prefill *and* one decode instance.
                let limit = largest(prefill).min(largest(decode));
                let half = "each disaggregated half";
                reject_oversized(view, limit, half, "", &mut actions);
                disaggregated(view, prefill, decode, limit, &mut actions);
            }
            Layout::OneGroup => {
                let all = view.registry.all_ids();
                if view.idle_instances.len() == all.len() {
                    let limit = view.pool.total_capacity();
                    reject_oversized(view, limit, "the cluster", "", &mut actions);
                    one_group(view, all, limit, &mut actions);
                }
            }
        }
        actions
    }
}

/// Rejects every pending request whose prompt plus declared output needs
/// more than `limit` KV slots, the most its system can ever place for one
/// request. The reason reads "request needs N KV slots but `holder` only
/// has `limit`", followed by `note`.
pub(crate) fn reject_oversized(
    view: &SchedulerView<'_>,
    limit: u64,
    holder: &str,
    note: &str,
    actions: &mut Vec<Action>,
) {
    for p in view.pending {
        let needed = p.input_len + p.max_output_len;
        if needed > limit {
            actions.push(Action::Reject {
                request: p.id,
                reason: format!(
                    "request needs {needed} KV slots but {holder} only has {limit}{note}"
                ),
            });
        }
    }
}

/// Prompt tokens past which a prefill on `sp` instances gains no
/// throughput: admission stops adding requests to a batch there.
fn saturation(view: &SchedulerView<'_>, sp: usize) -> u64 {
    let parallel = ParallelConfig::new(view.registry.tp(), sp);
    view.cost_model.prefill_saturation_tokens(parallel)
}

/// FCFS admission onto one group: the `pending` requests, oldest first,
/// within `limit` that the group's `free` KV slots can hold (each reserving
/// prompt plus declared output), until the batch reaches `saturation`.
fn admit_fcfs<'p>(
    pending: impl IntoIterator<Item = &'p PendingRequest>,
    limit: u64,
    mut free: u64,
    saturation: u64,
) -> Vec<RequestId> {
    let mut tokens = 0u64;
    let mut batch = Vec::new();
    for p in pending {
        let needed = p.input_len + p.max_output_len;
        if needed > limit || tokens >= saturation || needed > free {
            continue;
        }
        free -= needed;
        tokens += p.input_len;
        batch.push(p.id);
    }
    batch
}

/// The decode-ready requests, in FCFS order, whose KV starts on `inst`
/// (the lowest-id instance holding it).
fn decoding_on<'v>(
    view: &'v SchedulerView<'_>,
    inst: InstanceId,
) -> impl Iterator<Item = RequestId> + 'v {
    let starts_on = move |id: &RequestId| {
        view.pool
            .locations_ref(*id)
            .first()
            .is_some_and(|&(i, _)| i == inst)
    };
    view.decoding.iter().map(|d| d.id).filter(starts_on)
}

/// A whole-prompt prefill of `requests` on `group`, which keeps the KV.
fn prefill_on(group: Vec<InstanceId>, requests: Vec<RequestId>) -> Action {
    Action::Prefill {
        instances: group.clone(),
        requests,
        retain_on: group,
    }
}

/// One decode iteration of `requests` on `group`, every member a master.
fn decode_on(group: Vec<InstanceId>, requests: Vec<RequestId>) -> Action {
    Action::Decode {
        instances: group.clone(),
        masters: group,
        requests,
    }
}

/// The instance with the most free KV slots among those `fits` accepts
/// (the lowest id on ties). Reclaimable retained prefixes count as free:
/// the engine evicts them at commit.
fn most_free(
    view: &SchedulerView<'_>,
    fits: impl Fn(InstanceId, u64) -> bool,
) -> Option<InstanceId> {
    let mut best: Option<(InstanceId, u64)> = None;
    for &(inst, free) in &view.pool.free_slots() {
        let free = free + view.pool.prefix_retained_on(inst);
        if fits(inst, free) && best.is_none_or(|(_, b)| free > b) {
            best = Some((inst, free));
        }
    }
    best.map(|(inst, _)| inst)
}

/// [`Layout::PerInstance`]: route, admit per instance, then decode on the
/// idle instances no prefill took.
fn per_instance(
    view: &SchedulerView<'_>,
    routing: &mut HashMap<RequestId, InstanceId>,
    pressure: PressureMode,
    actions: &mut Vec<Action>,
) {
    // Memory-pressure handling (when enabled): evict victims above the
    // high watermark, re-admit swapped requests below the low one, and
    // pause new admissions while pressured. With the tier disabled this
    // whole block is skipped and scheduling is bit-for-bit the
    // golden-pinned baseline.
    let pressured = pressure != PressureMode::Off;
    let mut admit = true;
    let mut budget_left = u64::MAX;
    if pressured {
        let mut pa = pressure_actions_with_rescue(view, pressure);
        // Strict locality: a restored KV cache must land whole on one
        // instance (this layout decodes each request on the single
        // instance holding its KV), so rewrite the generic multi-target
        // swap-ins to the emptiest instance with room — or defer the
        // re-admission if no single instance fits yet. The oversize
        // reject bounds a request's demand by one instance's capacity, so
        // a deferred swap-in always fits eventually.
        pa.retain_mut(|a| {
            let Action::SwapIn { request, targets } = a else {
                return true;
            };
            let tokens = view.pool.swapped_tokens_of(*request);
            // Keep high-watermark headroom on the chosen replica (an empty
            // replica always qualifies) so the restored request does not
            // immediately re-create the pressure that evicted it.
            let target = most_free(view, |inst, free| {
                let pool_i = view.pool.instance(inst);
                let used = pool_i.used() - view.pool.prefix_retained_on(inst);
                let head = (HIGH_WATERMARK * pool_i.capacity() as f64).floor() as u64;
                free >= tokens && (used + tokens <= head || used == 0)
            });
            *targets = target.into_iter().collect();
            target.is_some()
        });
        actions.extend(pa);
        admit = !admission_paused(view);
        budget_left = admission_budget(view);
    }

    // Route pending requests and gather per-instance prefill batches:
    // (admission budget, prompt tokens, requests) per instance.
    let saturation = saturation(view, 1);
    let mut batches: BTreeMap<InstanceId, (u64, u64, Vec<RequestId>)> = BTreeMap::new();
    for req in view.pending.iter().take_while(|_| admit) {
        // KV slots reserved at admission: the full declared output without
        // pressure handling, the optimistic reservation with it.
        let needed = if pressured {
            admission_reserve(req.input_len, req.max_output_len, OUTPUT_RESERVE_FACTOR)
        } else {
            req.input_len + req.max_output_len
        };
        // Stick with a previous routing decision, else pick the instance
        // with the most free KV slots. Under pressure handling routing is
        // recomputed every round instead: a sticky assignment made while a
        // replica was emptiest can pin a request to a replica that
        // pressure later filled, starving it while other replicas drain.
        let sticky = routing.get(&req.id).filter(|_| !pressured);
        let Some(inst) = sticky
            .copied()
            .or_else(|| most_free(view, |_, free| free >= needed))
        else {
            continue;
        };
        if !pressured {
            routing.insert(req.id, inst);
        }
        if !view.idle_instances.contains(&inst) {
            continue;
        }
        // Under pressure, per-instance admission stops at the low
        // watermark: the [low, high] band is decode-growth headroom here
        // exactly as it is pool-globally, so a re-admitted eviction victim
        // cannot refill its replica to 100% and recreate the stall it was
        // evicted to clear.
        let pool_i = view.pool.instance(inst);
        let reclaimable = view.pool.prefix_retained_on(inst);
        let (budget, tokens, batch) = batches.entry(inst).or_insert_with(|| {
            let budget = if pressured {
                let target = (LOW_WATERMARK * pool_i.capacity() as f64).floor() as u64;
                target.saturating_sub(pool_i.used() - reclaimable)
            } else {
                pool_i.free() + reclaimable
            };
            (budget, 0, Vec::new())
        });
        // A completely empty instance admits its first request of the
        // round on physical capacity alone: the watermark budget would
        // otherwise starve any request larger than the low-watermark band
        // forever, even with the whole replica drained. A sole resident
        // always fits to completion (the oversize reject bounds input +
        // max_output by one instance's capacity).
        let empty_bypass = *tokens == 0 && pool_i.used() - reclaimable == 0;
        let affordable = (needed <= *budget && needed <= budget_left)
            || (empty_bypass && needed <= pool_i.free() + reclaimable);
        if *tokens >= saturation || !affordable {
            continue;
        }
        *budget = budget.saturating_sub(needed);
        budget_left = budget_left.saturating_sub(needed);
        *tokens += req.input_len;
        batch.push(req.id);
    }
    let mut used: Vec<InstanceId> = Vec::new();
    for (inst, (_, _, requests)) in batches {
        if !requests.is_empty() {
            used.push(inst);
            actions.push(prefill_on(vec![inst], requests));
        }
    }

    // Decode on the remaining idle instances (prefill has priority).
    for &inst in view.idle_instances.iter().filter(|i| !used.contains(i)) {
        let mut requests: Vec<RequestId> = decoding_on(view, inst).collect();
        // Under optimistic admission an instance can hold fewer free
        // slots than ready residents; decode the FCFS-oldest subset that
        // fits, rather than emitting a batch whose plan fails wholesale
        // and advances nobody. (Pressure off keeps the full batch:
        // conservative reservation guarantees the slots.)
        if pressured {
            let free = view.pool.instance(inst).free() + view.pool.prefix_retained_on(inst);
            requests.truncate(free as usize);
        }
        if !requests.is_empty() {
            actions.push(decode_on(vec![inst], requests));
        }
    }
}

/// [`Layout::Chunked`]: one fused iteration per idle instance, the oldest
/// pending request's next chunk plus every ready decode resident there.
fn chunked(
    view: &SchedulerView<'_>,
    routing: &mut HashMap<RequestId, InstanceId>,
    chunk_tokens: u64,
    limit: u64,
    actions: &mut Vec<Action>,
) {
    for &inst in view.idle_instances {
        let free = view.pool.instance(inst).free();
        let decode_here: Vec<RequestId> = decoding_on(view, inst).collect();
        // The oldest pending request routed (or routable) to this
        // instance. Partially prefilled requests stay on their instance.
        let candidate = view.pending.iter().find(|p| {
            let needed = p.input_len + p.max_output_len;
            match routing.get(&p.id) {
                _ if needed > limit => false,
                Some(&routed) => routed == inst,
                None => free >= needed,
            }
        });
        match candidate.map(|p| (p, p.remaining_prefill().min(chunk_tokens))) {
            Some((p, chunk)) if free >= chunk => {
                routing.insert(p.id, inst);
                actions.push(Action::ChunkedPrefill {
                    instances: vec![inst],
                    prefill_request: p.id,
                    chunk_tokens: chunk,
                    decode_requests: decode_here,
                });
            }
            _ if !decode_here.is_empty() => actions.push(decode_on(vec![inst], decode_here)),
            _ => {}
        }
    }
}

/// [`Layout::Disaggregated`]: prefill on the idle prefill instances, hand
/// finished prefills to the decode side, decode there.
fn disaggregated(
    view: &SchedulerView<'_>,
    prefill: &[InstanceId],
    decode: &[InstanceId],
    limit: u64,
    actions: &mut Vec<Action>,
) {
    // Each idle prefill instance takes the oldest pending requests that
    // fit it and no earlier instance took.
    let saturation = saturation(view, 1);
    let mut admitted: Vec<RequestId> = Vec::new();
    for &inst in prefill.iter().filter(|i| view.idle_instances.contains(i)) {
        let untaken = view.pending.iter().filter(|p| !admitted.contains(&p.id));
        let requests = admit_fcfs(untaken, limit, view.pool.instance(inst).free(), saturation);
        if !requests.is_empty() {
            admitted.extend(&requests);
            actions.push(prefill_on(vec![inst], requests));
        }
    }

    // Phase transition: any decode-phase request whose KV still sits on a
    // prefill instance must migrate to the decode side before it can
    // continue (reactive migration, charged on the interconnect).
    let mut migrating: Vec<RequestId> = Vec::new();
    let free = |i: &InstanceId| view.pool.instance(*i).free();
    for d in view.decoding {
        let kv = view.pool.locations_ref(d.id);
        let on_prefill_side = kv.iter().any(|(i, _)| prefill.contains(i));
        if !on_prefill_side {
            continue;
        }
        // The decode instance with the most free slots that can hold the
        // whole request (locality constraint within the decode side).
        let target = decode
            .iter()
            .filter(|i| free(i) >= d.context_len)
            .max_by_key(|i| free(i));
        if let Some(&target) = target {
            migrating.push(d.id);
            actions.push(Action::Migrate {
                request: d.id,
                targets: vec![target],
            });
        }
        // If no decode instance has room the request waits on the prefill
        // side, occupying its memory — the head-of-line blocking
        // disaggregation suffers under load.
    }

    // Every ready decode whose KV lies wholly on an idle decode instance.
    for &inst in decode.iter().filter(|i| view.idle_instances.contains(i)) {
        let requests: Vec<RequestId> = decoding_on(view, inst)
            .filter(|id| !migrating.contains(id) && view.pool.locations_ref(*id).len() == 1)
            .collect();
        if !requests.is_empty() {
            actions.push(decode_on(vec![inst], requests));
        }
    }
}

/// [`Layout::OneGroup`]: prefill on all instances if anything fits, else
/// decode every ready request on all of them. The group keeps its full
/// degree after a prefill (no proactive scale-down in this ablation).
fn one_group(
    view: &SchedulerView<'_>,
    all: Vec<InstanceId>,
    limit: u64,
    actions: &mut Vec<Action>,
) {
    let saturation = saturation(view, all.len());
    let requests = admit_fcfs(view.pending, limit, view.free_slots_on(&all), saturation);
    if !requests.is_empty() {
        actions.push(prefill_on(all, requests));
        return;
    }
    let requests: Vec<RequestId> = view.decoding.iter().map(|d| d.id).collect();
    if !requests.is_empty() {
        actions.push(decode_on(all, requests));
    }
}

/// The one fixture every baseline unit test builds its view from.
#[cfg(test)]
mod fixture {
    pub(super) use super::*;
    pub(super) use crate::types::DecodingRequest;
    use loong_cluster::topology::ClusterSpec;
    use loong_esp::instance::InstanceRegistry;
    use loong_kvcache::unified::UnifiedKvPool;
    use loong_model::config::ModelConfig;
    use loong_model::roofline::CostModel;
    use loong_model::sib::ScalingInfoBase;
    use loong_simcore::time::SimTime;

    pub(super) struct Fixture {
        pub(super) registry: InstanceRegistry,
        cost_model: CostModel,
        sib: ScalingInfoBase,
        pub(super) pool: UnifiedKvPool,
        pub(super) pending: Vec<PendingRequest>,
        pub(super) decoding: Vec<DecodingRequest>,
        pub(super) idle: Vec<InstanceId>,
    }

    /// The paper's 8-GPU node carved into TP=`tp` instances of `capacity`
    /// KV slots each, all idle, nothing queued.
    pub(super) fn fixture(tp: usize, capacity: u64) -> Fixture {
        let registry = InstanceRegistry::build(&ClusterSpec::single_node_a800(8), tp);
        let idle = registry.all_ids();
        let pool = UnifiedKvPool::new(registry.num_instances(), capacity);
        Fixture {
            registry,
            cost_model: CostModel::new(ModelConfig::lwm_1m_text()),
            sib: ScalingInfoBase::new(),
            pool,
            pending: vec![],
            decoding: vec![],
            idle,
        }
    }

    impl Fixture {
        /// Makes request `id` decode-ready with `context_len` tokens of KV
        /// on `inst`.
        pub(super) fn decoding(&mut self, id: u64, inst: u64, context_len: u64) {
            self.pool
                .append(RequestId(id), InstanceId(inst), context_len)
                .expect("room");
            self.decoding.push(DecodingRequest {
                id: RequestId(id),
                context_len,
                generated: 2,
                decode_time_s: 0.0,
            });
        }

        /// One scheduling call of a fresh `layout` baseline on this state.
        pub(super) fn schedule(&self, layout: Layout) -> Vec<Action> {
            BaselineScheduler::new("baseline", layout).schedule(&self.view())
        }

        pub(super) fn view(&self) -> SchedulerView<'_> {
            SchedulerView {
                now: SimTime::ZERO,
                pending: &self.pending,
                decoding: &self.decoding,
                swapped: &[],
                idle_instances: &self.idle,
                pool: &self.pool,
                registry: &self.registry,
                cost_model: &self.cost_model,
                sib: &self.sib,
                avg_decode_latency_s: 0.0,
            }
        }
    }

    /// A pending request with `len` prompt tokens, `prefilled` of them
    /// already processed, and 128 declared output tokens.
    pub(super) fn pending(id: u64, len: u64, prefilled: u64) -> PendingRequest {
        PendingRequest {
            id: RequestId(id),
            input_len: len,
            prefilled_len: prefilled,
            max_output_len: 128,
        }
    }

    pub(super) fn has(actions: &[Action], kind: fn(&Action) -> bool) -> bool {
        actions.iter().any(kind)
    }

    pub(super) fn is_prefill(a: &Action) -> bool {
        matches!(a, Action::Prefill { .. })
    }

    pub(super) fn is_decode(a: &Action) -> bool {
        matches!(a, Action::Decode { .. })
    }

    pub(super) fn is_reject(a: &Action) -> bool {
        matches!(a, Action::Reject { .. })
    }
}

/// [`Layout::Disaggregated`] (DistServe).
#[cfg(test)]
mod distserve {
    mod tests {
        use crate::baselines::fixture::*;

        /// TP=4 on an 8-GPU node: instance 0 prefills, instance 1 decodes.
        fn node() -> (Fixture, Layout) {
            let f = fixture(4, 500_000);
            let layout = Layout::disaggregated(&f.registry.all_ids()).expect("two instances");
            (f, layout)
        }

        #[test]
        fn prefill_lands_on_prefill_side_only() {
            let (mut f, layout) = node();
            f.pending = vec![pending(0, 50_000, 0)];
            let actions = f.schedule(layout);
            let prefill_inst = actions
                .iter()
                .find_map(|a| match a {
                    Action::Prefill { instances, .. } => Some(instances[0]),
                    _ => None,
                })
                .expect("prefill scheduled");
            assert_eq!(prefill_inst, InstanceId(0));
        }

        #[test]
        fn phase_transition_triggers_migration() {
            let (mut f, layout) = node();
            // Request 0 finished its prefill on the prefill instance.
            f.decoding(0, 0, 40_000);
            let actions = f.schedule(layout);
            let migrate = actions
                .iter()
                .find(|a| matches!(a, Action::Migrate { .. }))
                .expect("migration");
            assert_eq!(
                migrate,
                &Action::Migrate {
                    request: RequestId(0),
                    targets: vec![InstanceId(1)],
                }
            );
            // The request is not decoded in the same round it migrates.
            assert!(!has(&actions, is_decode));
        }

        #[test]
        fn decode_runs_on_decode_side_after_migration() {
            let (mut f, layout) = node();
            f.decoding(0, 1, 40_000);
            let actions = f.schedule(layout);
            let decode = actions.iter().find(|a| is_decode(a)).expect("decode");
            if let Action::Decode { instances, .. } = decode {
                assert_eq!(instances, &vec![InstanceId(1)]);
            }
        }

        #[test]
        fn request_larger_than_half_is_rejected() {
            let (mut f, layout) = node();
            f.pending = vec![pending(0, 600_000, 0)];
            assert!(has(&f.schedule(layout), is_reject));
        }

        #[test]
        fn each_request_is_admitted_by_one_prefill_instance() {
            // TP=2: instances 0 and 1 prefill, 2 and 3 decode. Instance 0
            // has room for one of the two requests.
            let mut f = fixture(2, 500_000);
            let layout = Layout::disaggregated(&f.registry.all_ids()).expect("four instances");
            f.pool
                .append(RequestId(9), InstanceId(0), 440_000)
                .expect("room");
            f.pending = vec![pending(0, 50_000, 0), pending(1, 50_000, 0)];
            let prefills: Vec<(Vec<InstanceId>, Vec<RequestId>)> = f
                .schedule(layout)
                .into_iter()
                .filter_map(|a| match a {
                    Action::Prefill {
                        instances,
                        requests,
                        ..
                    } => Some((instances, requests)),
                    _ => None,
                })
                .collect();
            assert_eq!(
                prefills,
                vec![
                    (vec![InstanceId(0)], vec![RequestId(0)]),
                    (vec![InstanceId(1)], vec![RequestId(1)]),
                ]
            );
        }

        #[test]
        fn split_assigns_both_sides() {
            let (_, layout) = node();
            assert_eq!(
                layout,
                Layout::Disaggregated {
                    prefill: vec![InstanceId(0)],
                    decode: vec![InstanceId(1)],
                }
            );
            // One instance cannot be split into two phases.
            assert!(Layout::disaggregated(&[InstanceId(0)]).is_err());
        }
    }
}

/// [`Layout::PerInstance`] (vLLM, the TP=2 ×4 ablation).
#[cfg(test)]
mod independent {
    mod tests {
        use crate::baselines::fixture::*;
        use crate::pressure::PressureMode;
        use loong_kvcache::unified::UnifiedKvPool;

        #[test]
        fn vllm_uses_single_instance_prefill() {
            let mut f = fixture(8, 400_000);
            f.pending = vec![pending(0, 1_000, 0), pending(1, 500, 0)];
            let actions = f.schedule(Layout::PerInstance);
            let prefills: Vec<&Action> = actions.iter().filter(|a| is_prefill(a)).collect();
            assert_eq!(prefills.len(), 1);
            if let Action::Prefill {
                instances,
                requests,
                retain_on,
            } = prefills[0]
            {
                assert_eq!(instances.len(), 1);
                assert_eq!(retain_on, instances);
                assert_eq!(requests.len(), 2);
            }
        }

        #[test]
        fn replicated_routes_to_least_loaded() {
            let mut f = fixture(2, 400_000);
            // Load instance 0 heavily so new requests prefer other replicas.
            f.pool
                .append(RequestId(99), InstanceId(0), 350_000)
                .expect("room");
            f.pending = vec![pending(0, 10_000, 0)];
            let prefill_instance = f
                .schedule(Layout::PerInstance)
                .iter()
                .find_map(|a| match a {
                    Action::Prefill { instances, .. } => Some(instances[0]),
                    _ => None,
                })
                .expect("prefill scheduled");
            assert_ne!(prefill_instance, InstanceId(0));
        }

        #[test]
        fn oversized_request_rejected_under_locality() {
            let mut f = fixture(2, 400_000);
            // 600K tokens exceeds a single 400K-slot instance even though
            // the cluster total (1.6M) would suffice — the Figure 4
            // pathology.
            f.pending = vec![pending(0, 600_000, 0)];
            let actions = f.schedule(Layout::PerInstance);
            assert!(has(&actions, is_reject));
            assert!(!has(&actions, is_prefill));
        }

        #[test]
        fn decode_runs_when_no_prefill_pending() {
            let mut f = fixture(8, 400_000);
            f.decoding(0, 0, 500);
            assert!(has(&f.schedule(Layout::PerInstance), is_decode));
        }

        #[test]
        fn swap_in_is_rewritten_to_a_single_replica_or_deferred() {
            // Two replicas with 600 and 500 free slots; a 900-token swapped
            // request must NOT be split across them (strict locality): the
            // swap-in is deferred until one replica can hold it whole.
            let mut f = fixture(2, 0);
            // Four TP=2 instances; the last two have zero slots so only two
            // replicas matter for placement.
            f.pool = UnifiedKvPool::with_capacities(&[1_000, 1_000, 0, 0]);
            f.pool.enable_host_tier(10_000);
            f.pool
                .append(RequestId(0), InstanceId(0), 900)
                .expect("room");
            f.pool.swap_out(RequestId(0)).expect("host room");
            f.pool
                .append(RequestId(1), InstanceId(0), 400)
                .expect("room");
            f.pool
                .append(RequestId(2), InstanceId(1), 500)
                .expect("room");
            f.idle = vec![InstanceId(0), InstanceId(1)];
            let swapped = [RequestId(0)];
            let mut v = f.view();
            v.swapped = &swapped;
            let mut s = BaselineScheduler::new("replicated", Layout::PerInstance)
                .with_pressure(PressureMode::SwapToHost)
                .expect("the per-instance layout handles pressure");
            let actions = s.schedule(&v);
            assert!(
                !actions.iter().any(|a| matches!(a, Action::SwapIn { .. })),
                "no single replica fits 900 tokens: the swap-in must be deferred"
            );

            // Free instance 1 entirely: the swap-in now targets exactly it.
            f.pool.release(RequestId(2));
            let mut v = f.view();
            v.swapped = &swapped;
            let actions = s.schedule(&v);
            let targets = actions
                .iter()
                .find_map(|a| match a {
                    Action::SwapIn { request, targets } if *request == RequestId(0) => {
                        Some(targets)
                    }
                    _ => None,
                })
                .expect("swap-in emitted");
            assert_eq!(
                targets,
                &vec![InstanceId(1)],
                "whole request on one replica"
            );
        }

        #[test]
        fn prefill_preempts_decode_on_same_instance() {
            let mut f = fixture(8, 400_000);
            f.decoding(0, 0, 500);
            f.pending = vec![pending(1, 50_000, 0)];
            let actions = f.schedule(Layout::PerInstance);
            assert!(has(&actions, is_prefill));
            assert!(
                !has(&actions, is_decode),
                "decode should be delayed behind the prefill (the interference the paper measures)"
            );
        }
    }
}

/// [`Layout::Chunked`] (DeepSpeed-MII, LightLLM).
#[cfg(test)]
mod splitfuse {
    mod tests {
        use crate::baselines::fixture::*;

        /// DeepSpeed-MII's layout: the default 2 Ki-token chunk.
        const MII: Layout = Layout::Chunked {
            chunk_tokens: Layout::DEFAULT_CHUNK_TOKENS,
        };

        /// TP=8: the node is one instance with a million KV slots.
        fn node() -> Fixture {
            fixture(8, 1_000_000)
        }

        #[test]
        fn fuses_chunk_with_resident_decodes() {
            let mut f = node();
            f.decoding(5, 0, 400);
            f.pending = vec![pending(0, 10_000, 3_000)];
            let actions = f.schedule(MII);
            assert_eq!(
                actions,
                vec![Action::ChunkedPrefill {
                    instances: vec![InstanceId(0)],
                    prefill_request: RequestId(0),
                    chunk_tokens: Layout::DEFAULT_CHUNK_TOKENS,
                    decode_requests: vec![RequestId(5)],
                }]
            );
        }

        #[test]
        fn final_chunk_is_truncated() {
            let mut f = node();
            f.pending = vec![pending(0, 10_000, 9_500)];
            match &f.schedule(MII)[0] {
                Action::ChunkedPrefill { chunk_tokens, .. } => assert_eq!(*chunk_tokens, 500),
                other => panic!("expected a chunked prefill, got {other:?}"),
            }
        }

        #[test]
        fn pure_decode_when_no_pending() {
            let mut f = node();
            f.decoding(5, 0, 400);
            let chunk_tokens = Layout::ideal_chunk_tokens(8_000.0, 200.0);
            let actions = f.schedule(Layout::Chunked { chunk_tokens });
            assert!(is_decode(&actions[0]));
        }

        #[test]
        fn ideal_chunk_follows_pd_ratio() {
            assert_eq!(Layout::ideal_chunk_tokens(8_000.0, 200.0), 256);
            assert_eq!(Layout::ideal_chunk_tokens(100_000.0, 100.0), 1000);
            // Clamped at both ends.
            assert_eq!(Layout::ideal_chunk_tokens(100.0, 1_000.0), 256);
            assert_eq!(Layout::ideal_chunk_tokens(1e9, 1.0), 65_536);
        }

        #[test]
        fn oversized_requests_rejected() {
            let mut f = node();
            f.pending = vec![pending(0, 2_000_000, 0)];
            let actions = f.schedule(MII);
            assert!(has(&actions, is_reject));
            assert!(!actions
                .iter()
                .any(|a| matches!(a, Action::ChunkedPrefill { .. })));
        }
    }
}

/// [`Layout::OneGroup`] (the TP=2, SP=4 ablation).
#[cfg(test)]
mod static_hybrid {
    mod tests {
        use crate::baselines::fixture::*;

        /// TP=2 on an 8-GPU node: four instances of 500K slots.
        fn node() -> Fixture {
            fixture(2, 500_000)
        }

        #[test]
        fn prefill_uses_all_instances_and_keeps_them() {
            let mut f = node();
            f.pending = vec![pending(0, 100_000, 0)];
            match &f.schedule(Layout::OneGroup)[0] {
                Action::Prefill {
                    instances,
                    retain_on,
                    ..
                } => {
                    assert_eq!(instances.len(), 4);
                    assert_eq!(
                        retain_on.len(),
                        4,
                        "no proactive scale-down in the static ablation"
                    );
                }
                other => panic!("expected prefill, got {other:?}"),
            }
        }

        #[test]
        fn decode_uses_all_instances_when_no_prefill() {
            let mut f = node();
            f.decoding(1, 0, 100);
            match &f.schedule(Layout::OneGroup)[0] {
                Action::Decode { instances, .. } => assert_eq!(instances.len(), 4),
                other => panic!("expected decode, got {other:?}"),
            }
        }

        #[test]
        fn waits_when_any_instance_is_busy() {
            let mut f = node();
            f.idle = vec![InstanceId(0), InstanceId(1)];
            // Not even the request no group could ever hold is rejected
            // until every instance is idle.
            f.pending = vec![pending(0, 1_000, 0), pending(1, 3_000_000, 0)];
            assert!(f.schedule(Layout::OneGroup).is_empty());
        }

        #[test]
        fn interference_prefill_blocks_decode() {
            let mut f = node();
            f.decoding(1, 0, 100);
            f.pending = vec![pending(0, 200_000, 0)];
            let actions = f.schedule(Layout::OneGroup);
            assert_eq!(actions.len(), 1);
            assert!(is_prefill(&actions[0]));
        }
    }
}

/// The stages every layout shares.
#[cfg(test)]
mod tests {
    use super::fixture::*;
    use crate::pressure::PressureMode;

    #[test]
    fn reject_reasons_name_each_layouts_placement_domain() {
        // Four TP=2 instances of 400K slots: one holds 400K, one
        // disaggregated half 400K, the cluster 1.6M.
        let mut f = fixture(2, 400_000);
        f.pending = vec![pending(0, 600_000, 0), pending(1, 2_000_000, 0)];
        let reasons = |layout: Layout| -> Vec<String> {
            f.schedule(layout)
                .into_iter()
                .filter_map(|a| match a {
                    Action::Reject { reason, .. } => Some(reason),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(
            reasons(Layout::PerInstance)[0],
            "request needs 600128 KV slots but a single instance only has 400000 (locality constraint)"
        );
        assert_eq!(
            reasons(Layout::Chunked { chunk_tokens: 256 })[0],
            "request needs 600128 KV slots but a single instance only has 400000"
        );
        let split = Layout::disaggregated(&f.registry.all_ids()).expect("four instances");
        assert_eq!(
            reasons(split)[0],
            "request needs 600128 KV slots but each disaggregated half only has 400000"
        );
        assert_eq!(
            reasons(Layout::OneGroup),
            ["request needs 2000128 KV slots but the cluster only has 1600000"]
        );
    }

    #[test]
    fn only_the_per_instance_layout_handles_pressure() {
        let with =
            |layout| BaselineScheduler::new("b", layout).with_pressure(PressureMode::Recompute);
        assert!(with(Layout::PerInstance).is_ok());
        let split = Layout::disaggregated(&[InstanceId(0), InstanceId(1)]).expect("two instances");
        for layout in [
            Layout::Chunked { chunk_tokens: 256 },
            split,
            Layout::OneGroup,
        ] {
            assert_eq!(
                with(layout.clone()).err().as_deref(),
                Some("b has no pressure-aware scheduler")
            );
            // Without pressure handling every layout builds.
            let off = BaselineScheduler::new("b", layout).with_pressure(PressureMode::Off);
            assert!(off.is_ok());
        }
    }
}
