//! Step 4 of the global manager: elastic scaling plan generation (paper §5.4).
//!
//! Two kinds of plans are produced here:
//!
//! * **Proactive scale-down of prefill batches** — the decode phase scales
//!   poorly, so after its prefill every batch shrinks to the minimum number
//!   of instances whose free KV slots can hold the batch's tokens (plus the
//!   expected output growth). The shrink itself is free because it is folded
//!   into the prefill ring (§4.1).
//! * **Decode group formation and scale-up** — ready decode requests are
//!   grouped by the instances holding their KV; a group scales up (gaining
//!   fresh masters, no migration) when its KV pool is nearly full or its
//!   batch size crosses the compute-bound threshold.

use crate::types::{DecodeRepeat, SchedulerView};
use loong_kvcache::unified::UnifiedKvPool;
use loong_simcore::ids::{InstanceId, RequestId};

/// A planned decode iteration group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeGroupPlan {
    /// Instances forming the group (always a superset of the instances
    /// holding the member requests' KV).
    pub instances: Vec<InstanceId>,
    /// Master instances.
    pub masters: Vec<InstanceId>,
    /// Member requests.
    pub requests: Vec<RequestId>,
    /// Number of instances added by scale-up when forming this group.
    pub scaled_up_by: usize,
}

/// Chooses the retained (post-prefill) instances for a prefill batch: the
/// smallest subset of `batch_instances`, preferring instances with the most
/// free KV slots, whose combined free slots hold the batch tokens plus the
/// expected output growth.
pub fn plan_scale_down(
    view: &SchedulerView<'_>,
    batch_instances: &[InstanceId],
    batch_tokens: u64,
    expected_output_tokens: u64,
) -> Vec<InstanceId> {
    let needed = batch_tokens + expected_output_tokens;
    let mut ranked: Vec<(InstanceId, u64)> = batch_instances
        .iter()
        .map(|&i| (i, view.pool.instance(i).free()))
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut retained = Vec::new();
    let mut covered = 0u64;
    for (inst, free) in ranked {
        retained.push(inst);
        covered += free;
        if covered >= needed {
            break;
        }
    }
    // Even if the whole batch set cannot cover the estimate, retain it all —
    // the prefill plan's own capacity check is the hard constraint.
    retained.sort();
    retained
}

/// Decode-group formation and scale-up over buffers kept from one call to
/// the next.
///
/// The manager owns one planner for its whole life, so a steady decode
/// point allocates only each plan's three lists, which its action takes
/// over. Every call resets each buffer before reading it: a plan depends on
/// the view and `available` alone, never on an earlier call.
#[derive(Debug, Clone, Default)]
pub struct DecodeGroupPlanner {
    /// Per instance id: whether it is in `available`.
    is_available: Vec<bool>,
    /// The groups formed so far, in group order.
    groups: Vec<Group>,
    /// Emptied groups, kept for their buffers.
    recycled: Vec<Group>,
    /// Per instance id: held by a group or drawn by a scale-up.
    claimed: Vec<bool>,
    /// The plans of the current call. Empty between calls: the caller's
    /// drain takes them all.
    plans: Vec<DecodeGroupPlan>,
}

/// One decode group being formed.
#[derive(Debug, Clone, Default)]
struct Group {
    /// The instances holding the members' KV.
    instances: Vec<InstanceId>,
    /// The members' positions in the view's decoding list, in group order.
    members: Vec<usize>,
}

impl DecodeGroupPlanner {
    /// Forms decode groups from the ready decode requests whose KV lives
    /// entirely on `available` (idle, unclaimed, distinct) instances, and
    /// decides per-group scale-up. A request whose KV touches an
    /// unavailable instance waits for a later call.
    ///
    /// A group is a connected component of the ready requests over shared
    /// KV instances. Group order and the request order inside a group
    /// decide master assignment and finish order: each ready request, in
    /// view order, opens a group listing itself first, absorbs every group
    /// sharing an instance with it, and the merged group goes last. Groups
    /// are pairwise disjoint, so a request whose KV lies wholly on the last
    /// group's instances would absorb that group alone; it joins the group
    /// at its head in one step instead.
    ///
    /// The plans come out in group order, moved out of a buffer the planner
    /// keeps.
    pub fn plan(
        &mut self,
        view: &SchedulerView<'_>,
        available: &[InstanceId],
        enable_scale_up: bool,
    ) -> std::vec::Drain<'_, DecodeGroupPlan> {
        // Requests whose KV is fully on available instances can run; others
        // must wait for their instances to free up. Ids past the widest
        // available one are unavailable.
        let width = available.iter().map(|i| i.index() + 1).max().unwrap_or(0);
        self.is_available.clear();
        self.is_available.resize(width, false);
        for &i in available {
            self.is_available[i.index()] = true;
        }
        for mut group in self.groups.drain(..) {
            group.instances.clear();
            group.members.clear();
            self.recycled.push(group);
        }
        for (k, d) in view.decoding.iter().enumerate() {
            let kv = view.pool.locations_ref(d.id);
            if !kv
                .iter()
                .all(|(i, _)| self.is_available.get(i.index()) == Some(&true))
            {
                continue;
            }
            // A request holding no KV overlaps no group and opens its own.
            if let Some(last) = self.groups.last_mut() {
                if !kv.is_empty() && kv.iter().all(|(i, _)| last.instances.contains(i)) {
                    last.members.insert(0, k);
                    continue;
                }
            }
            let mut merged = self.recycled.pop().unwrap_or_default();
            merged.instances.extend(kv.iter().map(|&(i, _)| i));
            merged.members.push(k);
            // A front-to-back scan absorbs each overlapping group with
            // `swap_remove`, so the last group fills the hole and is
            // checked next.
            let mut i = 0;
            while i < self.groups.len() {
                let overlaps = self.groups[i]
                    .instances
                    .iter()
                    .any(|inst| merged.instances.contains(inst));
                if overlaps {
                    let mut absorbed = self.groups.swap_remove(i);
                    for inst in absorbed.instances.drain(..) {
                        if !merged.instances.contains(&inst) {
                            merged.instances.push(inst);
                        }
                    }
                    merged.members.append(&mut absorbed.members);
                    self.recycled.push(absorbed);
                } else {
                    i += 1;
                }
            }
            self.groups.push(merged);
        }
        if self.groups.is_empty() {
            return self.plans.drain(..);
        }

        // Every instance a group holds is claimed, so scale-up never
        // double-books one; spares are drawn in `available` order.
        let claimed = &mut self.claimed;
        claimed.clear();
        claimed.resize(width, false);
        for group in &mut self.groups {
            group.instances.sort_unstable();
            for inst in &group.instances {
                claimed[inst.index()] = true;
            }
        }
        let mut spares = available.iter().copied();
        // The roofline's compute-bound decode batch at context 0, the
        // classic §5.4 trigger: at a dense long context decode is never
        // compute-bound, so the context-free bound is the conservative one.
        let threshold = view
            .cost_model
            .decode_compute_bound_batch_size(view.registry.tp());

        for group in &self.groups {
            let mut instances = group.instances.clone();
            let batch_size = group.members.len();
            let mut scaled_up_by = 0usize;

            if enable_scale_up {
                let mut free = view.free_slots_on(&instances);
                while wants_scale_up(free, batch_size, instances.len(), threshold) {
                    let Some(extra) = spares.find(|i| !claimed[i.index()]) else {
                        break;
                    };
                    instances.push(extra);
                    claimed[extra.index()] = true;
                    free += view.pool.instance(extra).free();
                    scaled_up_by += 1;
                }
                instances.sort_unstable();
            }

            let mut masters = Vec::new();
            masters_into(view.pool, &instances, &mut masters);
            self.plans.push(DecodeGroupPlan {
                instances,
                masters,
                requests: group.members.iter().map(|&k| view.decoding[k].id).collect(),
                scaled_up_by,
            });
        }
        self.plans.drain(..)
    }
}

/// Whether a decode group of `batch` requests on `instances` instances
/// with `free` free KV slots wants one more instance (§5.4). The memory
/// trigger: the group needs at least one free slot per request per
/// iteration, and keeps a comfortable runway of 64 iterations so scale-up
/// happens before the pool is exhausted. The compute trigger: FFN work
/// becomes the bottleneck once the batch per instance exceeds `threshold`.
fn wants_scale_up(free: u64, batch: usize, instances: usize, threshold: usize) -> bool {
    free < batch as u64 * 64 || batch > threshold * instances
}

/// Writes the masters of a decode group on `instances` into `masters`
/// (cleared first), multi-master: every instance with at least one free
/// slot can absorb new KV. If none has room, all of them, and the engine
/// surfaces the capacity error.
fn masters_into(pool: &UnifiedKvPool, instances: &[InstanceId], masters: &mut Vec<InstanceId>) {
    masters.clear();
    masters.extend(
        instances
            .iter()
            .copied()
            .filter(|&i| pool.instance(i).free() > 0),
    );
    if masters.is_empty() {
        masters.extend_from_slice(instances);
    }
}

/// Whether [`DecodeGroupPlanner::plan`] would plan `repeat`'s group again,
/// unchanged and unscaled, as its one plan; if so, writes the plan's
/// masters into `masters`.
///
/// With no other request decode-ready and the group's instances idle, it
/// would when:
///
/// * every member's KV lies on exactly the group's instances (sorted, as a
///   plan lists them). The first member then opens a group on them and
///   each later one joins it at its head, so the plan is one group on
///   those instances listing the members newest first. Otherwise members
///   can form sub-groups that a bridging member absorbs in `swap_remove`
///   order, which no rank order describes: sub-groups [A, B, C] are
///   absorbed as A, C, B alone, but as A, B, C with a fourth group behind
///   them.
/// * the members stand newest first: in descending admission rank;
/// * with scale-up on, neither §5.4 trigger fires, so no spare is drawn.
pub fn plans_repeat(
    repeat: &DecodeRepeat<'_>,
    enable_scale_up: bool,
    masters: &mut Vec<InstanceId>,
) -> bool {
    let (instances, requests, pool) = (repeat.instances, repeat.requests, repeat.pool);
    let on_the_group = |id: RequestId| {
        let kv = pool.locations_ref(id).iter().map(|&(i, _)| i);
        kv.eq(instances.iter().copied())
    };
    if !requests.iter().all(|&id| on_the_group(id))
        || !requests
            .windows(2)
            .all(|w| (repeat.rank)(w[0]) > (repeat.rank)(w[1]))
    {
        return false;
    }
    if enable_scale_up {
        let free = instances.iter().map(|&i| pool.instance(i).free()).sum();
        let threshold = repeat
            .cost_model
            .decode_compute_bound_batch_size(repeat.registry.tp());
        if wants_scale_up(free, requests.len(), instances.len(), threshold) {
            return false;
        }
    }
    masters_into(pool, instances, masters);
    true
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
    use loong_simcore::ids::RequestId;
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
    }

    fn fixture() -> Fixture {
        Fixture {
            registry: InstanceRegistry::build(&ClusterSpec::single_node_a800(8), 2),
            cost_model: CostModel::new(ModelConfig::lwm_1m_text()),
            sib: ScalingInfoBase::new(),
            pool: UnifiedKvPool::new(4, 500_000),
            pending: vec![],
            decoding: vec![],
        }
    }

    fn view<'a>(f: &'a Fixture, idle: &'a [InstanceId]) -> SchedulerView<'a> {
        SchedulerView {
            now: SimTime::ZERO,
            pending: &f.pending,
            decoding: &f.decoding,
            swapped: &[],
            idle_instances: idle,
            pool: &f.pool,
            registry: &f.registry,
            cost_model: &f.cost_model,
            sib: &f.sib,
            avg_decode_latency_s: 0.0,
        }
    }

    fn decoding(id: u64, context: u64) -> DecodingRequest {
        DecodingRequest {
            id: RequestId(id),
            context_len: context,
            generated: 1,
            decode_time_s: 0.0,
        }
    }

    /// Adds decode-ready request `id` holding one KV token on each of `kv`.
    fn add_decoding(f: &mut Fixture, id: u64, kv: &[u64]) {
        for &i in kv {
            f.pool
                .append(RequestId(id), InstanceId(i), 1)
                .expect("room");
        }
        f.decoding.push(decoding(id, 1_000));
    }

    /// Plans with a fresh planner.
    fn plan_decode_groups(
        view: &SchedulerView<'_>,
        available: &[InstanceId],
        enable_scale_up: bool,
    ) -> Vec<DecodeGroupPlan> {
        DecodeGroupPlanner::default()
            .plan(view, available, enable_scale_up)
            .collect()
    }

    /// The reference [`DecodeGroupPlanner`]'s plans must equal: the same
    /// grouping rule over owned lists, rebuilt per call.
    fn list_union_reference(
        view: &SchedulerView<'_>,
        available: &[InstanceId],
        enable_scale_up: bool,
    ) -> Vec<DecodeGroupPlan> {
        // Requests whose KV is fully on available instances can run; others must
        // wait for their instances to free up.
        let holders = |d: &DecodingRequest| -> Vec<InstanceId> {
            view.pool
                .locations_ref(d.id)
                .iter()
                .map(|&(i, _)| i)
                .collect()
        };
        let ready: Vec<&DecodingRequest> = view
            .decoding
            .iter()
            .filter(|d| holders(d).iter().all(|i| available.contains(i)))
            .collect();
        if ready.is_empty() {
            return Vec::new();
        }

        // Union requests into connected components over shared KV instances.
        let mut components: Vec<(Vec<InstanceId>, Vec<&DecodingRequest>)> = Vec::new();
        for req in ready {
            let mut merged_instances: Vec<InstanceId> = holders(req);
            let mut merged_requests = vec![req];
            // Pull in every existing component that shares an instance.
            let mut i = 0;
            while i < components.len() {
                let overlaps = components[i]
                    .0
                    .iter()
                    .any(|inst| merged_instances.contains(inst));
                if overlaps {
                    let (insts, reqs) = components.swap_remove(i);
                    for inst in insts {
                        if !merged_instances.contains(&inst) {
                            merged_instances.push(inst);
                        }
                    }
                    merged_requests.extend(reqs);
                } else {
                    i += 1;
                }
            }
            components.push((merged_instances, merged_requests));
        }

        // Track which available instances are already claimed by a component so
        // scale-up never double-books an instance.
        let mut claimed: Vec<InstanceId> = components
            .iter()
            .flat_map(|(insts, _)| insts.clone())
            .collect();

        let threshold = view
            .cost_model
            .decode_compute_bound_batch_size(view.registry.tp());

        let mut plans = Vec::new();
        for (mut instances, requests) in components {
            instances.sort();
            let batch_size = requests.len();
            let mut scaled_up_by = 0usize;

            if enable_scale_up {
                // Memory trigger: the group needs at least one free slot per
                // request per iteration; keep a comfortable runway of 64
                // iterations so scale-up happens before the pool is exhausted.
                let runway_tokens = batch_size as u64 * 64;
                // Compute trigger: FFN work becomes the bottleneck once the
                // per-master batch exceeds the profiled threshold.
                let spare: Vec<InstanceId> = available
                    .iter()
                    .copied()
                    .filter(|i| !claimed.contains(i))
                    .collect();
                let mut spare_iter = spare.into_iter();
                loop {
                    let free: u64 = view.free_slots_on(&instances);
                    let memory_pressure = free < runway_tokens;
                    let compute_pressure = batch_size > threshold * instances.len();
                    if !memory_pressure && !compute_pressure {
                        break;
                    }
                    let Some(extra) = spare_iter.next() else {
                        break;
                    };
                    instances.push(extra);
                    claimed.push(extra);
                    scaled_up_by += 1;
                }
                instances.sort();
            }

            // Multi-master: every instance with at least one free slot can
            // absorb new KV; fall back to all instances if none has room (the
            // engine will surface the capacity error).
            let mut masters: Vec<InstanceId> = instances
                .iter()
                .copied()
                .filter(|&i| view.pool.instance(i).free() > 0)
                .collect();
            if masters.is_empty() {
                masters = instances.clone();
            }

            plans.push(DecodeGroupPlan {
                instances,
                masters,
                requests: requests.iter().map(|r| r.id).collect(),
                scaled_up_by,
            });
        }
        plans
    }

    /// A random decode layout over `instances` instances: skewed KV
    /// placement (so requests bridge groups), uneven free slots (so the
    /// memory trigger and the masters fallback fire), and a random
    /// available subset, in id order or shuffled.
    fn random_layout(rng: &mut SimRng, instances: usize) -> (Fixture, Vec<InstanceId>) {
        let gpus = instances * 2;
        let mut f = fixture();
        f.registry = InstanceRegistry::build(&ClusterSpec::single_node_a800(gpus), 2);
        // A few hot instances draw most of the KV, so requests spanning
        // two of them merge groups formed earlier.
        let hot = rng.gen_range(1..=instances.min(6));
        let requests = rng.gen_range(1..=3 * instances.min(40));
        let spans: Vec<Vec<u64>> = (0..requests)
            .map(|_| {
                let span: usize = [0, 1, 1, 1, 2, 2, 3][rng.gen_range(0..7usize)];
                let mut kv: Vec<u64> = Vec::new();
                while kv.len() < span {
                    let pick = if rng.gen_bool(0.6) {
                        rng.gen_range(0..hot)
                    } else {
                        rng.gen_range(0..instances)
                    } as u64;
                    if !kv.contains(&pick) {
                        kv.push(pick);
                    }
                }
                kv
            })
            .collect();
        // Room for each request's token on each of its instances, and up
        // to 4,000 slots more.
        let mut capacities: Vec<u64> = (0..instances).map(|_| rng.gen_range(0..4_000)).collect();
        for &i in spans.iter().flatten() {
            capacities[i as usize] += 1;
        }
        f.pool = UnifiedKvPool::with_capacities(&capacities);
        for (id, kv) in spans.iter().enumerate() {
            add_decoding(&mut f, id as u64, kv);
        }
        for i in (0..instances).map(InstanceId::from) {
            // Some instances end up full, most part-used.
            let free = f.pool.instance(i).free();
            let used = if rng.gen_bool(0.2) {
                free
            } else {
                rng.gen_range(0..=free)
            };
            // The filler's owner takes the next free id: the pool's slab
            // spans the ids in use, so a far-off id would widen it.
            if used > 0 {
                f.pool
                    .append(RequestId((requests + i.index()) as u64), i, used)
                    .expect("room");
            }
        }
        let mut available: Vec<InstanceId> = (0..instances)
            .filter(|_| rng.gen_bool(0.85))
            .map(InstanceId::from)
            .collect();
        if rng.gen_bool(0.3) {
            for i in (1..available.len()).rev() {
                available.swap(i, rng.gen_range(0..=i));
            }
        }
        (f, available)
    }

    #[test]
    fn planner_matches_the_list_union_reference() {
        let mut rng = SimRng::seed(0x5ca1e);
        // One planner across every layout: its buffers shrink and grow
        // between pool widths and must carry nothing from one call over.
        let mut planner = DecodeGroupPlanner::default();
        // The paper node, a mid-sized pool, and pools wider than 64 and
        // 128 instances.
        for instances in [4, 16, 100, 160, 4] {
            for _ in 0..150 {
                let (f, available) = random_layout(&mut rng, instances);
                let v = view(&f, &available);
                for scale_up in [true, false] {
                    assert_eq!(
                        planner.plan(&v, &available, scale_up).collect::<Vec<_>>(),
                        list_union_reference(&v, &available, scale_up),
                        "{instances} instances, scale-up {scale_up}, available {available:?}, \
                         decoding {:?}",
                        f.decoding
                    );
                }
            }
        }
    }

    #[test]
    fn a_bridging_request_heads_its_group_and_absorbs_in_scan_order() {
        let mut f = fixture();
        // Groups [0], [1], [2], [3] form in order; request 4 bridges
        // instances 0 and 3. The scan absorbs group 0, whose slot group 3
        // fills and is absorbed next, leaving [2, 1] ahead of the merge.
        for (id, kv) in [(0, &[0][..]), (1, &[1]), (2, &[2]), (3, &[3]), (4, &[3, 0])] {
            add_decoding(&mut f, id, kv);
        }
        let idle = f.registry.all_ids();
        let v = view(&f, &idle);
        let plans = plan_decode_groups(&v, &idle, false);
        let requests: Vec<Vec<u64>> = plans
            .iter()
            .map(|p| p.requests.iter().map(|r| r.raw()).collect())
            .collect();
        assert_eq!(requests, vec![vec![2], vec![1], vec![4, 0, 3]]);
        assert_eq!(plans[2].instances, vec![InstanceId(0), InstanceId(3)]);
    }

    /// The request lists of the plans for every instance idle.
    fn planned_requests(f: &Fixture) -> Vec<Vec<u64>> {
        let idle = f.registry.all_ids();
        let v = view(f, &idle);
        let plans = plan_decode_groups(&v, &idle, false);
        assert_eq!(plans, list_union_reference(&v, &idle, false));
        plans
            .iter()
            .map(|p| p.requests.iter().map(|r| r.raw()).collect())
            .collect()
    }

    #[test]
    fn requests_joining_the_last_group_come_out_newest_first() {
        let mut f = fixture();
        for id in 1..=3 {
            add_decoding(&mut f, id, &[0]);
        }
        assert_eq!(planned_requests(&f), vec![vec![3, 2, 1]]);
    }

    #[test]
    fn a_request_without_kv_opens_its_own_group() {
        let mut f = fixture();
        // Request 2 holds no KV: its empty holdings lie on the last group's
        // instances, yet it opens a group of its own, and request 3 then
        // absorbs request 1's group past it.
        for (id, kv) in [(1, &[0][..]), (2, &[]), (3, &[0])] {
            add_decoding(&mut f, id, kv);
        }
        assert_eq!(planned_requests(&f), vec![vec![2], vec![3, 1]]);
    }

    #[test]
    fn scale_down_picks_minimal_cover() {
        let f = fixture();
        let idle = f.registry.all_ids();
        let v = view(&f, &idle);
        // 300K tokens (plus small growth) fit on a single 500K-slot instance.
        let retained = plan_scale_down(&v, &idle, 300_000, 2_000);
        assert_eq!(retained.len(), 1);
        // 900K tokens need two instances.
        let retained = plan_scale_down(&v, &idle, 900_000, 0);
        assert_eq!(retained.len(), 2);
    }

    #[test]
    fn scale_down_never_exceeds_batch_instances() {
        let f = fixture();
        let idle = f.registry.all_ids();
        let v = view(&f, &idle);
        let retained = plan_scale_down(&v, &idle, 10_000_000, 0);
        assert_eq!(
            retained.len(),
            4,
            "cannot retain more instances than the batch used"
        );
    }

    #[test]
    fn decode_groups_merge_overlapping_requests() {
        let mut f = fixture();
        for (id, kv) in [(0, &[0][..]), (1, &[0, 1]), (2, &[2])] {
            add_decoding(&mut f, id, kv);
        }
        let idle = f.registry.all_ids();
        let v = view(&f, &idle);
        let plans = plan_decode_groups(&v, &idle, true);
        assert_eq!(plans.len(), 2);
        let merged = plans
            .iter()
            .find(|p| p.requests.contains(&RequestId(0)))
            .expect("exists");
        assert!(merged.requests.contains(&RequestId(1)));
        assert!(
            merged.instances.contains(&InstanceId(0)) && merged.instances.contains(&InstanceId(1))
        );
    }

    #[test]
    fn requests_on_unavailable_instances_get_no_plan() {
        let mut f = fixture();
        add_decoding(&mut f, 0, &[0]);
        add_decoding(&mut f, 1, &[3]);
        let idle = vec![InstanceId(0), InstanceId(1)];
        let v = view(&f, &idle);
        let plans = plan_decode_groups(&v, &idle, true);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].requests, vec![RequestId(0)]);
    }

    #[test]
    fn memory_pressure_triggers_scale_up() {
        let mut f = fixture();
        // Instance 0 is nearly full; the decode group should pull in another
        // available instance.
        f.pool = UnifiedKvPool::with_capacities(&[1_010, 500_000, 500_000, 500_000]);
        f.pool
            .append(RequestId(0), InstanceId(0), 1_000)
            .expect("room");
        f.decoding = vec![decoding(0, 1_000)];
        let idle = f.registry.all_ids();
        let v = view(&f, &idle);
        let plans = plan_decode_groups(&v, &idle, true);
        assert_eq!(plans.len(), 1);
        assert!(plans[0].scaled_up_by >= 1, "expected a scale-up");
        assert!(plans[0].instances.len() >= 2);

        // With scale-up disabled (the Figure 13a ablation) the group stays
        // at one instance.
        let plans = plan_decode_groups(&v, &idle, false);
        assert_eq!(plans[0].instances.len(), 1);
        assert_eq!(plans[0].scaled_up_by, 0);
    }

    #[test]
    fn compute_pressure_triggers_scale_up() {
        // A decode batch resident on one instance, whose pool has room to
        // spare, gains an instance each time it exceeds the roofline's
        // compute-bound batch size per instance.
        let threshold = fixture().cost_model.decode_compute_bound_batch_size(2);
        for (batch, scaled_up_by) in [
            (threshold, 0),
            (threshold + 1, 1),
            (2 * threshold, 1),
            (2 * threshold + 1, 2),
        ] {
            let mut f = fixture();
            for i in 0..batch as u64 {
                f.pool
                    .append(RequestId(i), InstanceId(0), 10)
                    .expect("room");
                f.decoding.push(decoding(i, 10));
            }
            let idle = f.registry.all_ids();
            let plans = plan_decode_groups(&view(&f, &idle), &idle, true);
            assert_eq!(plans.len(), 1);
            assert_eq!(plans[0].scaled_up_by, scaled_up_by, "batch {batch}");
        }
    }

    #[test]
    fn full_masters_are_excluded() {
        let mut f = fixture();
        f.pool = UnifiedKvPool::with_capacities(&[1_000, 500_000]);
        f.pool
            .append(RequestId(0), InstanceId(0), 1_000)
            .expect("room");
        f.pool
            .append(RequestId(1), InstanceId(1), 1_000)
            .expect("room");
        f.decoding = vec![decoding(0, 1_000), decoding(1, 1_000)];
        let idle = vec![InstanceId(0), InstanceId(1)];
        let v = view(&f, &idle);
        let plans = plan_decode_groups(&v, &idle, false);
        for plan in plans {
            if plan.instances.contains(&InstanceId(0)) && plan.instances.len() == 1 {
                // Instance 0 is full, but it is the only instance, so it must
                // remain a master (the engine will surface the error).
                assert_eq!(plan.masters, vec![InstanceId(0)]);
            }
            if plan.instances.contains(&InstanceId(1)) {
                assert!(plan.masters.contains(&InstanceId(1)));
            }
        }
    }
}
