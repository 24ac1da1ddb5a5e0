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

use crate::types::{DecodingRequest, SchedulerView};
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

/// Forms decode groups from the ready decode requests whose KV lives
/// entirely on `available` (idle, unclaimed, distinct) instances, and
/// decides per-group scale-up.
///
/// Returns the group plans plus the list of requests that could not be
/// grouped this round (their KV overlaps unavailable instances).
///
/// A group is a connected component of the ready requests over shared KV
/// instances, built in view order by `Components`. Group order and the
/// request order inside a group decide master assignment and finish order:
/// a request absorbs every earlier group it shares an instance with, lists
/// itself first and the absorbed groups after it, and the merged group
/// moves to the end of the order.
pub fn plan_decode_groups(
    view: &SchedulerView<'_>,
    available: &[InstanceId],
    enable_scale_up: bool,
) -> (Vec<DecodeGroupPlan>, Vec<RequestId>) {
    // Requests whose KV is fully on available instances can run; others must
    // wait for their instances to free up. Ids past the widest available one
    // are unavailable.
    let width = available.iter().map(|i| i.index() + 1).max().unwrap_or(0);
    let mut is_available = vec![false; width];
    for &i in available {
        is_available[i.index()] = true;
    }
    let mut ready: Vec<&DecodingRequest> = Vec::new();
    let mut blocked_ids = Vec::new();
    for d in view.decoding {
        if d.kv_instances
            .iter()
            .all(|i| is_available.get(i.index()) == Some(&true))
        {
            ready.push(d);
        } else {
            blocked_ids.push(d.id);
        }
    }
    if ready.is_empty() {
        return (Vec::new(), blocked_ids);
    }

    let mut components = Components::new(width, ready.len());
    for req in &ready {
        components.add(&req.kv_instances);
    }
    let instance_sets = components.instance_sets();

    // Every instance a group holds is claimed, so scale-up never
    // double-books one; spares are drawn in `available` order.
    let mut claimed: Vec<bool> = components.owner.iter().map(|&o| o != NONE).collect();
    let mut spares = available.iter().copied();

    let threshold = view
        .sib
        .decode_threshold(view.registry.tp())
        .unwrap_or_else(|| {
            // Context 0 = the pure-GEMM threshold: the classic §5.4 trigger.
            // The policy-aware form exists for experiments that want the
            // KV-stream term included; dense long contexts make it `None`
            // (never compute-bound), so the trigger conservatively keeps the
            // context-free bound here.
            view.cost_model
                .decode_compute_bound_batch_size_at_context(view.registry.tp(), 0)
                .expect("context-free decode threshold is always finite")
        });

    let mut plans = Vec::with_capacity(instance_sets.len());
    for (&root, mut instances) in components.order.iter().zip(instance_sets) {
        let requests: Vec<RequestId> = components.members(root).map(|k| ready[k].id).collect();
        let batch_size = requests.len();
        let mut scaled_up_by = 0usize;

        if enable_scale_up {
            // Memory trigger: the group needs at least one free slot per
            // request per iteration; keep a comfortable runway of 64
            // iterations so scale-up happens before the pool is exhausted.
            let runway_tokens = batch_size as u64 * 64;
            // Compute trigger: FFN work becomes the bottleneck once the
            // per-master batch exceeds the profiled threshold.
            let mut free = view.free_slots_on(&instances);
            loop {
                let memory_pressure = free < runway_tokens;
                let compute_pressure = batch_size > threshold * instances.len();
                if !memory_pressure && !compute_pressure {
                    break;
                }
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
            requests,
            scaled_up_by,
        });
    }
    (plans, blocked_ids)
}

/// Marks an empty link.
const NONE: u32 = u32::MAX;

/// One ready request's links in [`Components`].
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Union-find parent; itself at a root.
    parent: u32,
    /// The next request of the component's list; `NONE` at its end.
    next: u32,
    /// At a root: the last request of the component's list.
    tail: u32,
    /// At a root: the component's position in [`Components::order`].
    pos: u32,
}

/// The connected components of ready decode requests over shared KV
/// instances, held as index links.
///
/// Request `k` (in the order [`Components::add`] sees them) is node `k`. A
/// component is named by its root, which is also the head of its request
/// list; instance ownership resolves to the root through union-find.
struct Components {
    /// Per instance: a node of the component holding it, or `NONE`.
    owner: Vec<u32>,
    nodes: Vec<Node>,
    /// Component roots, in component order.
    order: Vec<u32>,
    /// Roots the request being added touches.
    touched: Vec<u32>,
}

impl Components {
    /// Empty components over instance ids `0..width`, sized for `requests`.
    fn new(width: usize, requests: usize) -> Self {
        Components {
            owner: vec![NONE; width],
            nodes: Vec::with_capacity(requests),
            order: Vec::with_capacity(requests),
            touched: Vec::new(),
        }
    }

    /// The root of `node`'s component, halving the path on the way.
    fn root(&mut self, mut node: u32) -> u32 {
        loop {
            let parent = self.nodes[node as usize].parent;
            if parent == node {
                return node;
            }
            let grandparent = self.nodes[parent as usize].parent;
            self.nodes[node as usize].parent = grandparent;
            node = grandparent;
        }
    }

    /// Adds the next request, whose KV sits on `kv`: it opens a component
    /// headed by itself, absorbs every component holding one of `kv`, and
    /// the merged component moves to the end of the order.
    fn add(&mut self, kv: &[InstanceId]) {
        let k = self.nodes.len() as u32;
        self.nodes.push(Node {
            parent: k,
            next: NONE,
            tail: k,
            pos: 0,
        });
        self.touched.clear();
        for inst in kv {
            match self.owner[inst.index()] {
                NONE => self.owner[inst.index()] = k,
                owner => {
                    let root = self.root(owner);
                    if root != k && !self.touched.contains(&root) {
                        self.touched.push(root);
                    }
                }
            }
        }
        // Absorb in the order a front-to-back scan of `order` meets them
        // when it `swap_remove`s each absorbed component: the last one fills
        // the hole and is checked next, so every touched component not yet
        // absorbed sits at or after the scan position, and the scan meets
        // them in order of their current position.
        while let Some(j) = (0..self.touched.len()).min_by_key(|&j| self.pos(self.touched[j])) {
            let absorbed = self.touched.swap_remove(j);
            let at = self.pos(absorbed);
            self.order.swap_remove(at);
            if let Some(&moved) = self.order.get(at) {
                self.nodes[moved as usize].pos = at as u32;
            }
            let tail = self.nodes[k as usize].tail as usize;
            self.nodes[tail].next = absorbed;
            self.nodes[k as usize].tail = self.nodes[absorbed as usize].tail;
            self.nodes[absorbed as usize].parent = k;
        }
        self.nodes[k as usize].pos = self.order.len() as u32;
        self.order.push(k);
    }

    /// The position of root `root` in the order.
    fn pos(&self, root: u32) -> usize {
        self.nodes[root as usize].pos as usize
    }

    /// Each component's instances, ascending, in component order.
    fn instance_sets(&mut self) -> Vec<Vec<InstanceId>> {
        let mut sets = vec![Vec::new(); self.order.len()];
        for inst in 0..self.owner.len() {
            if self.owner[inst] != NONE {
                let root = self.root(self.owner[inst]);
                sets[self.pos(root)].push(InstanceId::from(inst));
            }
        }
        sets
    }

    /// The requests of the component rooted at `root`, in list order.
    fn members(&self, root: u32) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(root), |&k| {
            Some(self.nodes[k as usize].next).filter(|&next| next != NONE)
        })
        .map(|k| k as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::PendingRequest;
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
            busy_instances: &[],
            pool: &f.pool,
            registry: &f.registry,
            cost_model: &f.cost_model,
            sib: &f.sib,
            avg_decode_latency_s: 0.0,
        }
    }

    fn decoding(id: u64, context: u64, kv: &[u64]) -> DecodingRequest {
        DecodingRequest {
            id: RequestId(id),
            context_len: context,
            generated: 1,
            decode_time_s: 0.0,
            kv_instances: kv.iter().map(|&i| InstanceId(i)).collect(),
        }
    }

    /// The list-based union [`plan_decode_groups`] replaced, kept as the
    /// reference its plans must equal.
    fn list_union_reference(
        view: &SchedulerView<'_>,
        available: &[InstanceId],
        enable_scale_up: bool,
    ) -> (Vec<DecodeGroupPlan>, Vec<RequestId>) {
        // Requests whose KV is fully on available instances can run; others must
        // wait for their instances to free up.
        let (ready, blocked): (Vec<&DecodingRequest>, Vec<&DecodingRequest>) = view
            .decoding
            .iter()
            .partition(|d| d.kv_instances.iter().all(|i| available.contains(i)));
        let blocked_ids = blocked.iter().map(|d| d.id).collect();
        if ready.is_empty() {
            return (Vec::new(), blocked_ids);
        }

        // Union requests into connected components over shared KV instances.
        let mut components: Vec<(Vec<InstanceId>, Vec<&DecodingRequest>)> = Vec::new();
        for req in ready {
            let mut merged_instances: Vec<InstanceId> = req.kv_instances.clone();
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
            .sib
            .decode_threshold(view.registry.tp())
            .unwrap_or_else(|| {
                // Context 0 = the pure-GEMM threshold: the classic §5.4 trigger.
                // The policy-aware form exists for experiments that want the
                // KV-stream term included; dense long contexts make it `None`
                // (never compute-bound), so the trigger conservatively keeps the
                // context-free bound here.
                view.cost_model
                    .decode_compute_bound_batch_size_at_context(view.registry.tp(), 0)
                    .expect("context-free decode threshold is always finite")
            });

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
        (plans, blocked_ids)
    }

    /// A random decode layout over `instances` instances: skewed KV
    /// placement (so requests bridge groups), uneven free slots (so the
    /// memory trigger and the masters fallback fire), and a random
    /// available subset, in id order or shuffled.
    fn random_layout(rng: &mut SimRng, instances: usize) -> (Fixture, Vec<InstanceId>) {
        let gpus = instances * 2;
        let mut f = fixture();
        f.registry = InstanceRegistry::build(&ClusterSpec::single_node_a800(gpus), 2);
        let capacities: Vec<u64> = (0..instances).map(|_| rng.gen_range(0..4_000)).collect();
        f.pool = UnifiedKvPool::with_capacities(&capacities);
        for (i, &cap) in capacities.iter().enumerate() {
            // Some instances end up full, most part-used.
            let used = if rng.gen_bool(0.2) {
                cap
            } else {
                rng.gen_range(0..=cap)
            };
            if used > 0 {
                f.pool
                    .append(RequestId(1_000_000 + i as u64), InstanceId::from(i), used)
                    .expect("room");
            }
        }
        // A few hot instances draw most of the KV, so requests spanning
        // two of them merge groups formed earlier.
        let hot = rng.gen_range(1..=instances.min(6));
        let requests = rng.gen_range(1..=3 * instances.min(40));
        for id in 0..requests as u64 {
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
            f.decoding.push(decoding(id, 1_000, &kv));
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
    fn index_linked_union_matches_the_list_based_reference() {
        let mut rng = SimRng::seed(0x5ca1e);
        // The paper node, a mid-sized pool, and pools wider than 64 and
        // 128 instances.
        for instances in [4, 16, 100, 160] {
            for _ in 0..150 {
                let (f, available) = random_layout(&mut rng, instances);
                let v = view(&f, &available);
                for scale_up in [true, false] {
                    assert_eq!(
                        plan_decode_groups(&v, &available, scale_up),
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
        f.decoding = vec![
            decoding(0, 1_000, &[0]),
            decoding(1, 1_000, &[1]),
            decoding(2, 1_000, &[2]),
            decoding(3, 1_000, &[3]),
            decoding(4, 1_000, &[3, 0]),
        ];
        let idle = f.registry.all_ids();
        let v = view(&f, &idle);
        let (plans, _) = plan_decode_groups(&v, &idle, false);
        let requests: Vec<Vec<u64>> = plans
            .iter()
            .map(|p| p.requests.iter().map(|r| r.raw()).collect())
            .collect();
        assert_eq!(requests, vec![vec![2], vec![1], vec![4, 0, 3]]);
        assert_eq!(plans[2].instances, vec![InstanceId(0), InstanceId(3)]);
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
        f.decoding = vec![
            decoding(0, 1_000, &[0]),
            decoding(1, 1_000, &[0, 1]),
            decoding(2, 1_000, &[2]),
        ];
        let idle = f.registry.all_ids();
        let v = view(&f, &idle);
        let (plans, blocked) = plan_decode_groups(&v, &idle, true);
        assert!(blocked.is_empty());
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
    fn blocked_requests_are_reported() {
        let mut f = fixture();
        f.decoding = vec![decoding(0, 1_000, &[0]), decoding(1, 1_000, &[3])];
        let idle = vec![InstanceId(0), InstanceId(1)];
        let v = view(&f, &idle);
        let (plans, blocked) = plan_decode_groups(&v, &idle, true);
        assert_eq!(plans.len(), 1);
        assert_eq!(blocked, vec![RequestId(1)]);
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
        f.decoding = vec![decoding(0, 1_000, &[0])];
        let idle = f.registry.all_ids();
        let v = view(&f, &idle);
        let (plans, _) = plan_decode_groups(&v, &idle, true);
        assert_eq!(plans.len(), 1);
        assert!(plans[0].scaled_up_by >= 1, "expected a scale-up");
        assert!(plans[0].instances.len() >= 2);

        // With scale-up disabled (the Figure 13a ablation) the group stays
        // at one instance.
        let (plans, _) = plan_decode_groups(&v, &idle, false);
        assert_eq!(plans[0].instances.len(), 1);
        assert_eq!(plans[0].scaled_up_by, 0);
    }

    #[test]
    fn compute_pressure_triggers_scale_up() {
        let mut f = fixture();
        // A very large decode batch resident on one instance crosses the
        // compute-bound threshold.
        let threshold = f.cost_model.decode_compute_bound_batch_size(2);
        for i in 0..(threshold as u64 * 2) {
            f.pool
                .append(RequestId(i), InstanceId(0), 10)
                .expect("room");
            f.decoding.push(decoding(i, 10, &[0]));
        }
        let idle = f.registry.all_ids();
        let v = view(&f, &idle);
        let (plans, _) = plan_decode_groups(&v, &idle, true);
        assert_eq!(plans.len(), 1);
        assert!(plans[0].scaled_up_by >= 1);
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
        f.decoding = vec![decoding(0, 1_000, &[0]), decoding(1, 1_000, &[1])];
        let idle = vec![InstanceId(0), InstanceId(1)];
        let v = view(&f, &idle);
        let (plans, _) = plan_decode_groups(&v, &idle, false);
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
