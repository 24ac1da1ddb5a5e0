//! The LoongServe global manager (paper §5).
//!
//! The manager decomposes each scheduling decision into four polynomial-time
//! steps — [`dispatch`]ing, elastic instance [`allocate`]ion, DP
//! [`batching`], and elastic [`scaling`] plan generation — and combines
//! their outputs into the action list the serving engine executes.

pub mod allocate;
pub mod batching;
pub mod dispatch;
pub mod scaling;

use crate::baselines::reject_oversized;
use crate::pressure::{
    admission_budget, admission_paused, admission_reserve, pressure_actions, PressureMode,
    OUTPUT_RESERVE_FACTOR,
};
use crate::types::{
    Action, DecodeRepeat, ScalingEvent, ScalingEventKind, Scheduler, SchedulerView,
};
use loong_model::roofline::ParallelConfig;
use loong_simcore::ids::{InstanceId, RequestId};

/// Tunables of the LoongServe global manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoongServeConfig {
    /// Whether decode groups may scale up (disabled for the Figure 13a
    /// ablation).
    pub enable_scale_up: bool,
}

impl Default for LoongServeConfig {
    fn default() -> Self {
        LoongServeConfig {
            enable_scale_up: true,
        }
    }
}

/// The LoongServe scheduling policy.
#[derive(Debug, Clone)]
pub struct LoongServeScheduler {
    config: LoongServeConfig,
    events: Vec<ScalingEvent>,
    /// Memory-pressure handling. `Off` (the default) keeps the
    /// conservative full-output reservation in dispatching and never emits
    /// pressure actions — the golden-pinned behaviour.
    pressure: PressureMode,
    /// Step 4b's input, rebuilt every call: the idle instances no prefill
    /// or drain claimed.
    available: Vec<InstanceId>,
    decode_planner: scaling::DecodeGroupPlanner,
}

impl LoongServeScheduler {
    /// Creates a manager with the default configuration.
    pub fn new() -> Self {
        Self::with_config(LoongServeConfig::default())
    }

    /// Creates a manager with an explicit configuration.
    pub fn with_config(config: LoongServeConfig) -> Self {
        LoongServeScheduler {
            config,
            events: Vec::new(),
            pressure: PressureMode::Off,
            available: Vec::new(),
            decode_planner: scaling::DecodeGroupPlanner::default(),
        }
    }

    /// Sets the memory-pressure handling. Any mode but
    /// [`PressureMode::Off`] makes the dispatcher reserve the prompt plus
    /// one slot instead of each declared output bound (optimistic
    /// admission), evicts victims per the mode's policy above the high
    /// watermark, and re-admits swapped requests below the low one.
    pub fn with_pressure(mut self, pressure: PressureMode) -> Self {
        self.pressure = pressure;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> LoongServeConfig {
        self.config
    }
}

impl Default for LoongServeScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for LoongServeScheduler {
    fn name(&self) -> String {
        "LoongServe".to_string()
    }

    fn schedule(&mut self, view: &SchedulerView<'_>) -> Vec<Action> {
        let mut actions: Vec<Action> = Vec::new();

        // Reject requests that can never be served even by the whole pool.
        let capacity = view.pool.total_capacity();
        reject_oversized(view, capacity, "the cluster", "", &mut actions);

        // Memory-pressure handling (when enabled): evict victims above the
        // high watermark, re-admit swapped requests below the low one, and
        // pause dispatching while pressured. With the tier disabled this
        // block is skipped and scheduling is bit-for-bit the golden-pinned
        // manager.
        let mut reserve_factor = 1.0;
        let mut budget = u64::MAX;
        let mut admit = true;
        if self.pressure != PressureMode::Off {
            actions.extend(pressure_actions(view, self.pressure));
            reserve_factor = OUTPUT_RESERVE_FACTOR;
            budget = admission_budget(view);
            admit = !admission_paused(view);
            // An empty pool admits at least the FCFS head on physical
            // capacity alone: the watermark budget would otherwise starve
            // any request larger than the low-watermark band forever.
            // "Empty" means no *active* KV — reclaimable retained prefixes
            // do not block the bypass.
            if view.pool.active_used() == 0 {
                if let Some(head) = view.pending.first() {
                    budget = budget.max(admission_reserve(
                        head.input_len,
                        head.max_output_len,
                        reserve_factor,
                    ));
                }
            }
        }

        // Steps 1–4a place prefills. With nothing pending, or admission
        // paused, they provably emit nothing: dispatch admits no request, so
        // allocation drains no instance, batching forms no batch and no
        // batch scales down. Skipping them is exact.
        let claimed = if admit && !view.pending.is_empty() {
            self.place_prefills(view, reserve_factor, budget, &mut actions)
        } else {
            Vec::new()
        };

        // Step 4b: decode group formation on whatever is left.
        self.available.clear();
        self.available.extend(
            view.idle_instances
                .iter()
                .copied()
                .filter(|i| !claimed.contains(i)),
        );
        let decode_plans =
            self.decode_planner
                .plan(view, &self.available, self.config.enable_scale_up);
        for plan in decode_plans {
            if plan.scaled_up_by > 0 {
                self.events.push(ScalingEvent {
                    at: view.now,
                    kind: ScalingEventKind::ScaleUp,
                    delta_instances: plan.scaled_up_by as i64,
                });
            }
            actions.push(Action::Decode {
                instances: plan.instances,
                masters: plan.masters,
                requests: plan.requests,
            });
        }

        actions
    }

    /// With nothing pending, `schedule` rejects nothing and skips steps
    /// 1–4a, so step 4b plans every idle instance, the repeated group's
    /// among them; [`scaling::plans_repeat`] certifies that plan. Pressure
    /// handling reads utilisation and the swapped list, which that does not
    /// cover, so a manager with it never certifies; without it nothing is
    /// ever swapped.
    fn certify_repeat(&self, repeat: &DecodeRepeat<'_>, masters: &mut Vec<InstanceId>) -> bool {
        self.pressure == PressureMode::Off
            && scaling::plans_repeat(repeat, self.config.enable_scale_up, masters)
    }

    fn scaling_events(&self) -> &[ScalingEvent] {
        &self.events
    }
}

impl LoongServeScheduler {
    /// Steps 1–4a: dispatches pending requests, drains the instances the
    /// allocation claims, batches the admitted requests and plans each
    /// batch's proactive scale-down, pushing the migrations and prefills
    /// onto `actions`. Returns the instances those actions touch.
    fn place_prefills(
        &mut self,
        view: &SchedulerView<'_>,
        reserve_factor: f64,
        admission_budget: u64,
        actions: &mut Vec<Action>,
    ) -> Vec<InstanceId> {
        // Step 1: dispatching. The admitted requests stay in dispatch order:
        // allocation's Eq. 3/4 sums run over them in it.
        let decision = dispatch::dispatch(view, reserve_factor, admission_budget);
        let admitted = &decision.admitted;

        // Step 2: elastic instance allocation.
        let lens: Vec<u64> = admitted.iter().map(|p| p.input_len).collect();
        let allocation = allocate::allocate(view, &lens, &decision.candidate_instances);
        let mut claimed: Vec<InstanceId> = Vec::new();
        for drain in &allocation.drains {
            // The drained request keeps whatever KV it already has elsewhere
            // and the evicted span lands on the drain targets.
            let mut final_targets: Vec<InstanceId> = view
                .pool
                .locations_ref(drain.request)
                .iter()
                .map(|&(i, _)| i)
                .filter(|&i| i != drain.from)
                .collect();
            for &t in &drain.targets {
                if !final_targets.contains(&t) {
                    final_targets.push(t);
                }
            }
            claimed.push(drain.from);
            claimed.extend(final_targets.iter().copied());
            actions.push(Action::Migrate {
                request: drain.request,
                targets: final_targets,
            });
        }

        // Step 3: batching.
        let pairs: Vec<(RequestId, u64)> = admitted.iter().map(|p| (p.id, p.input_len)).collect();
        let batches = batching::batch_requests(view, &pairs, &allocation.instances);

        // Step 4a: proactive scale-down plans for each prefill batch.
        for batch in &batches {
            let (mut tokens, mut expected_output) = (0u64, 0u64);
            for p in admitted.iter().filter(|p| batch.requests.contains(&p.id)) {
                tokens += p.input_len;
                expected_output += p.max_output_len;
            }
            let retain_on =
                scaling::plan_scale_down(view, &batch.instances, tokens, expected_output);
            if retain_on.len() < batch.instances.len() {
                self.events.push(ScalingEvent {
                    at: view.now,
                    kind: ScalingEventKind::ProactiveScaleDown,
                    delta_instances: retain_on.len() as i64 - batch.instances.len() as i64,
                });
            }
            claimed.extend(batch.instances.iter().copied());
            actions.push(Action::Prefill {
                instances: batch.instances.clone(),
                requests: batch.requests.clone(),
                retain_on,
            });
        }
        claimed
    }
}

/// Predicted prefill iteration time of a batch with input lengths `lens` on
/// the first `instances` instances (at least one): the SIB's fitted
/// analytical model for that parallel configuration, falling back to the
/// roofline model when the configuration was never profiled. All three
/// planning steps price prefill through this one helper. The engine's SIB
/// profiles every degree of parallelism up to the instance count, so there
/// the fallback, and the link it prices, never runs.
fn predict_prefill(view: &SchedulerView<'_>, lens: &[u64], instances: usize) -> f64 {
    let n = instances.max(1);
    let parallel = ParallelConfig::new(view.registry.tp(), n);
    view.sib.predict_prefill(lens, parallel, || {
        let ids: Vec<InstanceId> = view.registry.all_ids().into_iter().take(n).collect();
        let link = view.registry.link_between(&ids);
        view.cost_model.prefill_cost(lens, parallel, link).total()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{DecodingRequest, PendingRequest};
    use loong_cluster::topology::ClusterSpec;
    use loong_esp::instance::InstanceRegistry;
    use loong_kvcache::unified::UnifiedKvPool;
    use loong_model::config::ModelConfig;
    use loong_model::roofline::CostModel;
    use loong_model::sib::ScalingInfoBase;
    use loong_simcore::rng::SimRng;
    use loong_simcore::time::SimTime;
    use rand::Rng;

    struct Fixture {
        registry: InstanceRegistry,
        cost_model: CostModel,
        sib: ScalingInfoBase,
        pool: UnifiedKvPool,
        pending: Vec<PendingRequest>,
        decoding: Vec<DecodingRequest>,
        idle: Vec<InstanceId>,
    }

    fn fixture() -> Fixture {
        let registry = InstanceRegistry::build(&ClusterSpec::single_node_a800(8), 2);
        let idle = registry.all_ids();
        Fixture {
            registry,
            cost_model: CostModel::new(ModelConfig::lwm_1m_text()),
            sib: ScalingInfoBase::new(),
            pool: UnifiedKvPool::new(4, 500_000),
            pending: vec![],
            decoding: vec![],
            idle,
        }
    }

    fn view<'a>(f: &'a Fixture) -> SchedulerView<'a> {
        SchedulerView {
            now: SimTime::ZERO,
            pending: &f.pending,
            decoding: &f.decoding,
            swapped: &[],
            idle_instances: &f.idle,
            pool: &f.pool,
            registry: &f.registry,
            cost_model: &f.cost_model,
            sib: &f.sib,
            avg_decode_latency_s: 0.0,
        }
    }

    fn pending(id: u64, len: u64) -> PendingRequest {
        PendingRequest {
            id: RequestId(id),
            input_len: len,
            prefilled_len: 0,
            max_output_len: 256,
        }
    }

    #[test]
    fn long_prefill_uses_many_instances_and_scales_down() {
        let mut f = fixture();
        f.pending = vec![pending(0, 300_000)];
        let mut sched = LoongServeScheduler::new();
        let actions = sched.schedule(&view(&f));
        let prefill = actions
            .iter()
            .find_map(|a| match a {
                Action::Prefill {
                    instances,
                    requests,
                    retain_on,
                } => Some((instances, requests, retain_on)),
                _ => None,
            })
            .expect("a prefill action");
        assert_eq!(prefill.1, &vec![RequestId(0)]);
        assert!(
            prefill.0.len() >= 2,
            "long prefill should use several instances"
        );
        assert!(
            prefill.2.len() < prefill.0.len(),
            "should proactively scale down"
        );
        assert!(sched
            .scaling_events()
            .iter()
            .any(|e| e.kind == ScalingEventKind::ProactiveScaleDown));
    }

    #[test]
    fn decode_batches_formed_for_ready_requests() {
        let mut f = fixture();
        for i in 0..4u64 {
            f.pool
                .append(RequestId(i), InstanceId(i % 2), 1_000)
                .expect("room");
            f.decoding.push(DecodingRequest {
                id: RequestId(i),
                context_len: 1_000,
                generated: 1,
                decode_time_s: 0.0,
            });
        }
        let mut sched = LoongServeScheduler::new();
        let actions = sched.schedule(&view(&f));
        let decode_requests: Vec<RequestId> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Decode { requests, .. } => Some(requests.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(decode_requests.len(), 4, "all ready decodes scheduled");
    }

    #[test]
    fn prefill_and_decode_do_not_share_instances() {
        let mut f = fixture();
        f.pending = vec![pending(10, 150_000)];
        for i in 0..2u64 {
            f.pool
                .append(RequestId(i), InstanceId(i), 2_000)
                .expect("room");
            f.decoding.push(DecodingRequest {
                id: RequestId(i),
                context_len: 2_000,
                generated: 4,
                decode_time_s: 0.1,
            });
        }
        let mut sched = LoongServeScheduler::new();
        let actions = sched.schedule(&view(&f));
        let mut prefill_instances: Vec<InstanceId> = Vec::new();
        let mut decode_instances: Vec<InstanceId> = Vec::new();
        for a in &actions {
            match a {
                Action::Prefill { instances, .. } => {
                    prefill_instances.extend(instances.iter().copied())
                }
                Action::Decode { instances, .. } => {
                    decode_instances.extend(instances.iter().copied())
                }
                _ => {}
            }
        }
        for i in &prefill_instances {
            assert!(!decode_instances.contains(i), "instance {i} double-booked");
        }
    }

    #[test]
    fn oversized_request_is_rejected() {
        let mut f = fixture();
        f.pending = vec![pending(0, 3_000_000)];
        let mut sched = LoongServeScheduler::new();
        let actions = sched.schedule(&view(&f));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Reject { request, .. } if *request == RequestId(0))));
    }

    #[test]
    fn disabled_scale_up_never_records_scale_up_events() {
        let mut f = fixture();
        // Nearly full instance hosting a decode request would normally
        // trigger a scale-up.
        f.pool = UnifiedKvPool::with_capacities(&[1_010, 500_000, 500_000, 500_000]);
        f.pool
            .append(RequestId(0), InstanceId(0), 1_000)
            .expect("room");
        f.decoding = vec![DecodingRequest {
            id: RequestId(0),
            context_len: 1_000,
            generated: 1,
            decode_time_s: 0.0,
        }];
        let mut without = LoongServeScheduler::with_config(LoongServeConfig {
            enable_scale_up: false,
        });
        let _ = without.schedule(&view(&f));
        assert!(without
            .scaling_events()
            .iter()
            .all(|e| e.kind != ScalingEventKind::ScaleUp));

        let mut with = LoongServeScheduler::new();
        let _ = with.schedule(&view(&f));
        assert!(with
            .scaling_events()
            .iter()
            .any(|e| e.kind == ScalingEventKind::ScaleUp));
    }

    /// A random manager input on the paper node: decode requests whose KV
    /// spans one to three instances, some instances filled to their last
    /// few slots (so decode groups scale up and full masters drop out), a
    /// pending queue that is empty about half the time (mixing short and
    /// long prompts so prefills batch, drain and scale down), and a random
    /// idle subset.
    fn random_fixture(rng: &mut SimRng) -> Fixture {
        let mut f = fixture();
        let capacities: Vec<u64> = (0..4).map(|_| rng.gen_range(20_000..500_000)).collect();
        f.pool = UnifiedKvPool::with_capacities(&capacities);
        for id in 0..rng.gen_range(0..12u64) {
            let span = rng.gen_range(1..=3);
            let mut kv: Vec<InstanceId> = Vec::new();
            while kv.len() < span {
                let inst = InstanceId(rng.gen_range(0..4));
                if !kv.contains(&inst) {
                    kv.push(inst);
                }
            }
            kv.sort();
            let mut context_len = 0;
            for &inst in &kv {
                // A quarter of what is free at most, so no instance fills.
                let tokens = rng.gen_range(1..=(f.pool.instance(inst).free() / 4).min(60_000));
                f.pool.append(RequestId(id), inst, tokens).expect("room");
                context_len += tokens;
            }
            f.decoding.push(DecodingRequest {
                id: RequestId(id),
                context_len,
                generated: rng.gen_range(1..200),
                decode_time_s: rng.gen_range(0.0..20.0),
            });
        }
        for inst in (0..4).map(InstanceId) {
            if rng.gen_bool(0.5) {
                // KV of work in flight, leaving at most 100 slots free.
                let leave = rng.gen_range(0..100);
                let fill = f.pool.instance(inst).free().saturating_sub(leave);
                if fill > 0 {
                    f.pool.append(RequestId(1_000), inst, fill).expect("room");
                }
            }
        }
        if rng.gen_bool(0.5) {
            for id in 100..rng.gen_range(101..107u64) {
                let len = if rng.gen_bool(0.3) {
                    rng.gen_range(20_000..400_000)
                } else {
                    rng.gen_range(100..8_000)
                };
                f.pending.push(pending(id, len));
            }
        }
        f.idle = (0..4)
            .filter(|_| rng.gen_bool(0.8))
            .map(InstanceId)
            .collect();
        f
    }

    #[test]
    fn a_reused_manager_plans_exactly_like_a_fresh_one() {
        // The manager keeps its planning buffers across calls; each call
        // must still depend on its view alone.
        let mut rng = SimRng::seed(0xdec0de);
        for enable_scale_up in [true, false] {
            let config = LoongServeConfig { enable_scale_up };
            let mut reused = LoongServeScheduler::with_config(config);
            for call in 0..500 {
                let f = random_fixture(&mut rng);
                let mut v = view(&f);
                v.avg_decode_latency_s = if rng.gen_bool(0.5) { 0.0 } else { 30.0 };
                let logged = reused.scaling_events().len();
                let actions = reused.schedule(&v);
                let mut fresh = LoongServeScheduler::with_config(config);
                assert_eq!(
                    actions,
                    fresh.schedule(&v),
                    "call {call}, scale-up {enable_scale_up}"
                );
                assert_eq!(
                    &reused.scaling_events()[logged..],
                    fresh.scaling_events(),
                    "call {call}, scale-up {enable_scale_up}"
                );
            }
        }
    }

    /// FNV-1a over `bytes`, continuing from `digest`.
    fn fnv1a(digest: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(digest, |d, &b| {
            (d ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn decisions_on_random_views_are_pinned() {
        // Every call's actions and newly logged scaling events over seeded
        // random views, folded into one digest, so a refactor of any step
        // must decide exactly as before. The SIB is profiled the way the
        // engine profiles it (SP 1–4 at TP 2, 1% noise, a fixed seed).
        let cost_model = CostModel::new(ModelConfig::lwm_1m_text());
        let configs: Vec<ParallelConfig> = (1..=4).map(|sp| ParallelConfig::new(2, sp)).collect();
        let sib = ScalingInfoBase::profile(
            &cost_model,
            &configs,
            ClusterSpec::single_node_a800(8).intra_node_link,
            0.01,
            &mut SimRng::seed(2026),
        );
        let mut rng = SimRng::seed(0xd1ce);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut seen = std::collections::BTreeSet::new();
        for enable_scale_up in [true, false] {
            for pressure in [PressureMode::Off, PressureMode::Recompute] {
                let mut sched =
                    LoongServeScheduler::with_config(LoongServeConfig { enable_scale_up })
                        .with_pressure(pressure);
                for _ in 0..250 {
                    let mut f = random_fixture(&mut rng);
                    f.sib = sib.clone();
                    let mut v = view(&f);
                    v.avg_decode_latency_s = if rng.gen_bool(0.5) { 0.0 } else { 30.0 };
                    let logged = sched.scaling_events().len();
                    let actions = sched.schedule(&v);
                    let events = &sched.scaling_events()[logged..];
                    let text = format!("{actions:?}{events:?}");
                    digest = fnv1a(digest, text.as_bytes());
                    seen.extend(actions.iter().map(|a| match a {
                        Action::Prefill { .. } => "prefill",
                        Action::Decode { .. } => "decode",
                        Action::Migrate { .. } => "migrate",
                        Action::Preempt { .. } => "preempt",
                        _ => "other",
                    }));
                    seen.extend(events.iter().map(|e| match e.kind {
                        ScalingEventKind::ScaleUp => "scale-up",
                        ScalingEventKind::ProactiveScaleDown => "scale-down",
                    }));
                }
            }
        }
        // The views reach every decision the manager makes but rejection.
        assert_eq!(
            seen.into_iter().collect::<Vec<_>>(),
            [
                "decode",
                "migrate",
                "preempt",
                "prefill",
                "scale-down",
                "scale-up"
            ]
        );
        assert_eq!(digest, 0xe308_a7f9_65b9_a799);
    }

    /// A repeat point drawn from [`random_fixture`]: nothing pending, and
    /// a decode group on the instances holding the first decode-ready
    /// request's KV. The view lists the group's members in admission order:
    /// that request, up to eleven more holding KV on exactly its instances
    /// (one time in five, enough to pass the §5.4 compute threshold), and
    /// one time in four one of the fixture's other decode-ready requests,
    /// wherever its KV lies. The rest wait on work in flight, so the view
    /// lists none of them. One time in five every instance ends within 100
    /// slots of full, above the pressure policies' high watermark. The
    /// group's instances are idle: its iteration just completed.
    fn repeat_fixture(rng: &mut SimRng, threshold: usize) -> Option<(Fixture, Vec<InstanceId>)> {
        let mut f = random_fixture(rng);
        f.pending.clear();
        let first = *f.decoding.first()?;
        let group: Vec<InstanceId> = f
            .pool
            .locations_ref(first.id)
            .iter()
            .map(|&(i, _)| i)
            .collect();
        let others = f.decoding.split_off(1);
        let room = group.iter().map(|&i| f.pool.instance(i).free()).min();
        let members: usize = if rng.gen_bool(0.2) {
            threshold * group.len() + rng.gen_range(1..=3usize)
        } else {
            rng.gen_range(0..12usize)
        };
        // Past the fixture's ids and its filler's.
        for id in (1_001..).take(members.min(room.unwrap_or(0) as usize)) {
            for &inst in &group {
                f.pool.append(RequestId(id), inst, 1).expect("room");
            }
            f.decoding.push(DecodingRequest {
                id: RequestId(id),
                context_len: group.len() as u64,
                generated: 1,
                decode_time_s: 0.0,
            });
        }
        if !others.is_empty() && rng.gen_bool(0.25) {
            f.decoding.push(others[rng.gen_range(0..others.len())]);
        }
        if rng.gen_bool(0.2) {
            for inst in (0..4).map(InstanceId) {
                let fill = f
                    .pool
                    .instance(inst)
                    .free()
                    .saturating_sub(rng.gen_range(0..100));
                if fill > 0 {
                    f.pool.append(RequestId(1_000), inst, fill).expect("room");
                }
            }
        }
        for &inst in &group {
            if !f.idle.contains(&inst) {
                f.idle.push(inst);
            }
        }
        f.idle.sort();
        Some((f, group))
    }

    #[test]
    fn a_certified_repeat_is_the_managers_decision() {
        // Whenever a manager certifies a repeat, its call on the same view
        // returns exactly that decode and logs no scaling event: with and
        // without scale-up and pressure handling, on views above the high
        // watermark, past the compute threshold and near full, and with
        // the group offered newest first or shuffled.
        let threshold = fixture().cost_model.decode_compute_bound_batch_size(2);
        let configs = [
            (true, PressureMode::Off),
            (false, PressureMode::Off),
            (true, PressureMode::Recompute),
            (false, PressureMode::SwapToHost),
        ];
        let mut rng = SimRng::seed(0x5e9ea7);
        let mut certified = [0; 4];
        for case in 0..400 {
            let Some((f, group)) = repeat_fixture(&mut rng, threshold) else {
                continue;
            };
            let mut requests: Vec<RequestId> = f.decoding.iter().rev().map(|d| d.id).collect();
            if rng.gen_bool(0.3) {
                for i in (1..requests.len()).rev() {
                    requests.swap(i, rng.gen_range(0..=i));
                }
            }
            let rank = |id| {
                f.decoding
                    .iter()
                    .position(|d| d.id == id)
                    .expect("a member") as u64
            };
            let repeat = DecodeRepeat {
                instances: &group,
                requests: &requests,
                rank: &rank,
                pool: &f.pool,
                registry: &f.registry,
                cost_model: &f.cost_model,
            };
            for (k, &(enable_scale_up, pressure)) in configs.iter().enumerate() {
                let mut sched =
                    LoongServeScheduler::with_config(LoongServeConfig { enable_scale_up })
                        .with_pressure(pressure);
                // Whatever the buffer held is overwritten.
                let mut masters = vec![InstanceId(7)];
                if !sched.certify_repeat(&repeat, &mut masters) {
                    continue;
                }
                certified[k] += 1;
                let repeated = Action::Decode {
                    instances: group.clone(),
                    masters,
                    requests: requests.clone(),
                };
                assert_eq!(
                    sched.schedule(&view(&f)),
                    vec![repeated],
                    "case {case}, scale-up {enable_scale_up}, pressure {pressure:?}"
                );
                assert!(sched.scaling_events().is_empty(), "case {case}");
            }
        }
        assert!(certified[0] > 0 && certified[1] > 0, "{certified:?}");
    }

    #[test]
    fn idle_system_produces_no_actions() {
        let f = fixture();
        let mut sched = LoongServeScheduler::new();
        assert!(sched.schedule(&view(&f)).is_empty());
        assert_eq!(sched.name(), "LoongServe");
    }
}
