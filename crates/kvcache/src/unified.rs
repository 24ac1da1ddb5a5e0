//! The unified distributed KV cache pool.
//!
//! LoongServe treats the KV memory of all elastic instances as one pool
//! (paper §3, §4): a request's tokens can live on any subset of instances at
//! single-token granularity, which removes the locality constraint that
//! causes fragmentation in grouped designs (Figure 4). This module keeps the
//! one record of which instances hold how many of each request's tokens,
//! places requests, grows them during decoding, migrates spans between
//! instances, and evicts requests.

use crate::host::HostKvPool;
use crate::placement::{plan_placement, PlacementStrategy};
use crate::pool::{InstanceKvPool, KvError};
use crate::prefix::{PrefixCache, PrefixDemand, EVICTION_WATERMARK};
use loong_simcore::ids::{ConversationId, InstanceId, RequestId};
use loong_simcore::time::SimTime;
use std::collections::VecDeque;

/// The residency index: a slab with one slot per request id from `base`
/// on, each listing which instances hold how many of that request's
/// tokens, sorted by instance id, with no zero holdings. A request that
/// holds nothing has an empty slot or none. The front slot is never empty:
/// as the oldest residents release, their slots are dropped, so the slab
/// spans the ids from the oldest resident to the newest one seen since.
/// Ids are dense within that window (the workload generator allocates them
/// in order); sparse ids work but widen the slab.
#[derive(Debug, Clone, Default)]
struct Residency {
    /// `slots[k]` lists the holdings of request `base + k`.
    slots: VecDeque<Vec<(InstanceId, u64)>>,
    base: usize,
}

impl Residency {
    /// The slab position of `request`; out of range below the window.
    fn pos(&self, request: RequestId) -> usize {
        request.index().wrapping_sub(self.base)
    }

    /// The holdings of `request`, empty if it holds nothing.
    fn get(&self, request: RequestId) -> &[(InstanceId, u64)] {
        self.slots.get(self.pos(request)).map_or(&[], Vec::as_slice)
    }

    /// The slot of a resident `request`.
    fn get_mut(&mut self, request: RequestId) -> Option<&mut Vec<(InstanceId, u64)>> {
        let pos = self.pos(request);
        self.slots.get_mut(pos)
    }

    /// The slot of `request`, widening the slab to cover it. The caller
    /// fills it, so the front stays non-empty.
    fn slot(&mut self, request: RequestId) -> &mut Vec<(InstanceId, u64)> {
        let id = request.index();
        if self.slots.is_empty() {
            self.base = id;
        } else if id < self.base {
            for _ in id..self.base {
                self.slots.push_front(Vec::new());
            }
            self.base = id;
        }
        let pos = id - self.base;
        if pos >= self.slots.len() {
            self.slots.resize_with(pos + 1, Vec::new);
        }
        &mut self.slots[pos]
    }

    /// Takes every holding of `request`, leaving its slot empty.
    fn take(&mut self, request: RequestId) -> Vec<(InstanceId, u64)> {
        let locations = self.get_mut(request).map(std::mem::take);
        self.trim_front();
        locations.unwrap_or_default()
    }

    /// Drops the empty slots at the front.
    fn trim_front(&mut self) {
        while self.slots.front().is_some_and(Vec::is_empty) {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// Every resident request with its holdings, in request-id order.
    fn iter(&self) -> impl Iterator<Item = (RequestId, &[(InstanceId, u64)])> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, locations)| !locations.is_empty())
            .map(|(k, locations)| (RequestId::from(self.base + k), locations.as_slice()))
    }
}

/// Equal holdings, whatever the slab widths.
impl PartialEq for Residency {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// The cross-instance pool.
#[derive(Debug, Clone, PartialEq)]
pub struct UnifiedKvPool {
    /// Per instance: capacity and used slots.
    pools: Vec<InstanceKvPool>,
    /// The residency index, the only per-request record. Every mutation
    /// updates it with its instance's used count; a request's holdings are
    /// one slab index away.
    residency: Residency,
    /// The optional host-DRAM swap tier. `None` (the default) keeps every
    /// device-side operation on its pre-existing path — the zero-cost-when-
    /// disabled invariant the golden digests pin.
    host: Option<HostKvPool>,
    /// The optional prefix-cache tier. `None` (the default) keeps finished
    /// requests on the release path and adds no lookups anywhere — the same
    /// zero-cost-when-disabled contract as the host tier.
    prefix: Option<PrefixCache>,
}

impl UnifiedKvPool {
    /// Creates a pool over `instances` instances, each with `capacity`
    /// token slots.
    pub fn new(instances: usize, capacity_per_instance: u64) -> Self {
        UnifiedKvPool {
            pools: (0..instances)
                .map(|i| InstanceKvPool::new(InstanceId::from(i), capacity_per_instance))
                .collect(),
            residency: Residency::default(),
            host: None,
            prefix: None,
        }
    }

    /// Creates a pool with per-instance capacities (useful for heterogeneous
    /// scenarios and tests).
    pub fn with_capacities(capacities: &[u64]) -> Self {
        UnifiedKvPool {
            pools: capacities
                .iter()
                .enumerate()
                .map(|(i, &c)| InstanceKvPool::new(InstanceId::from(i), c))
                .collect(),
            residency: Residency::default(),
            host: None,
            prefix: None,
        }
    }

    /// The per-instance pool for `instance`.
    ///
    /// # Panics
    ///
    /// Panics if the instance is out of range.
    pub fn instance(&self, instance: InstanceId) -> &InstanceKvPool {
        &self.pools[instance.index()]
    }

    /// Free slots on each instance, as `(instance, free)` pairs.
    pub fn free_slots(&self) -> Vec<(InstanceId, u64)> {
        self.pools.iter().map(|p| (p.instance, p.free())).collect()
    }

    /// Free slots on a subset of instances.
    pub fn free_slots_on(&self, instances: &[InstanceId]) -> Vec<(InstanceId, u64)> {
        instances
            .iter()
            .map(|&i| (i, self.pools[i.index()].free()))
            .collect()
    }

    /// Total free slots across all instances.
    pub fn total_free(&self) -> u64 {
        self.pools.iter().map(|p| p.free()).sum()
    }

    /// Total used slots across all instances.
    pub fn total_used(&self) -> u64 {
        self.pools.iter().map(|p| p.used()).sum()
    }

    /// Total capacity across all instances.
    pub fn total_capacity(&self) -> u64 {
        self.pools.iter().map(|p| p.capacity()).sum()
    }

    /// Tokens `request` holds on each instance, sorted by instance id: a
    /// borrowed view of the residency index, in O(1).
    pub fn locations_ref(&self, request: RequestId) -> &[(InstanceId, u64)] {
        self.residency.get(request)
    }

    /// Total tokens `request` holds across the pool, in O(#locations).
    pub fn tokens_of(&self, request: RequestId) -> u64 {
        self.locations_ref(request).iter().map(|&(_, t)| t).sum()
    }

    /// Tokens `request` holds on `instance` (zero if none), in
    /// O(log #locations).
    pub fn tokens_on(&self, request: RequestId, instance: InstanceId) -> u64 {
        let locations = self.locations_ref(request);
        locations
            .binary_search_by_key(&instance, |&(i, _)| i)
            .map_or(0, |pos| locations[pos].1)
    }

    /// The requests holding slots on `instance`, in request-id order: a
    /// walk of the residency index, O(slab width).
    pub fn residents_of(&self, instance: InstanceId) -> impl Iterator<Item = RequestId> + '_ {
        self.residency
            .iter()
            .filter(move |(_, locations)| {
                locations
                    .binary_search_by_key(&instance, |&(i, _)| i)
                    .is_ok()
            })
            .map(|(request, _)| request)
    }

    /// Records `tokens` more slots for `request` on `instance` in the
    /// residency index, keeping each per-request vector sorted by instance.
    fn residency_add(&mut self, request: RequestId, instance: InstanceId, tokens: u64) {
        if tokens == 0 {
            return;
        }
        let locations = self.residency.slot(request);
        match locations.binary_search_by_key(&instance, |&(i, _)| i) {
            Ok(pos) => locations[pos].1 += tokens,
            Err(pos) => locations.insert(pos, (instance, tokens)),
        }
    }

    /// Removes `tokens` slots of `request` on `instance` from the residency
    /// index, dropping an emptied entry. Its one caller, `migrate`, records
    /// the moved tokens at their destination first, so the request's slot
    /// never empties here.
    fn residency_sub(&mut self, request: RequestId, instance: InstanceId, tokens: u64) {
        if tokens == 0 {
            return;
        }
        let locations = self
            .residency
            .get_mut(request)
            .expect("residency index tracks every resident request");
        let pos = locations
            .binary_search_by_key(&instance, |&(i, _)| i)
            .expect("residency index tracks every location");
        assert!(
            locations[pos].1 >= tokens,
            "residency index underflow for {request} on {instance}"
        );
        locations[pos].1 -= tokens;
        if locations[pos].1 == 0 {
            locations.remove(pos);
        }
    }

    /// Places `tokens` new KV slots for `request` on `candidates` with
    /// `strategy` (see [`plan_placement`]). Returns an error, with the pool
    /// unchanged, if the request is swapped out, `candidates` repeat an
    /// instance, or their free slots fall short.
    pub fn place(
        &mut self,
        request: RequestId,
        tokens: u64,
        candidates: &[InstanceId],
        strategy: PlacementStrategy,
    ) -> Result<(), KvError> {
        self.ensure_not_swapped(request)?;
        if let Some((_, &instance)) = candidates
            .iter()
            .enumerate()
            .find(|&(k, i)| candidates[..k].contains(i))
        {
            return Err(KvError::RepeatedCandidate { instance });
        }
        let spans = plan_placement(tokens, &self.free_slots_on(candidates), strategy).ok_or(
            KvError::NoPlacement {
                request,
                requested: tokens,
            },
        )?;
        for (inst, tokens) in spans {
            self.pools[inst.index()]
                .allocate(tokens)
                .expect("planned within free slots");
            self.residency_add(request, inst, tokens);
        }
        Ok(())
    }

    /// Appends `tokens` newly generated KV slots for `request` on a specific
    /// instance (the master that generated them during decoding).
    pub fn append(
        &mut self,
        request: RequestId,
        instance: InstanceId,
        tokens: u64,
    ) -> Result<(), KvError> {
        self.ensure_not_swapped(request)?;
        self.pools[instance.index()].allocate(tokens)?;
        self.residency_add(request, instance, tokens);
        Ok(())
    }

    /// Releases every slot held by `request`, returning the total freed.
    /// Only the instances the residency index names are touched.
    pub fn release(&mut self, request: RequestId) -> u64 {
        let locations = self.residency.take(request);
        for &(inst, tokens) in &locations {
            self.pools[inst.index()].release(tokens);
        }
        locations.iter().map(|&(_, tokens)| tokens).sum()
    }

    /// Applies a migration: moves `tokens` of `request` from one instance to
    /// another. A failed move leaves the pool untouched.
    pub fn migrate(
        &mut self,
        request: RequestId,
        from: InstanceId,
        to: InstanceId,
        tokens: u64,
    ) -> Result<(), KvError> {
        if tokens == 0 {
            return Ok(());
        }
        if self.tokens_on(request, from) < tokens {
            return Err(KvError::UnknownRequest {
                instance: from,
                request,
            });
        }
        // Destination must have room before we release the source.
        if self.pools[to.index()].free() < tokens {
            return Err(KvError::InsufficientCapacity {
                instance: to,
                requested: tokens,
                free: self.pools[to.index()].free(),
            });
        }
        self.pools[from.index()].release(tokens);
        self.pools[to.index()]
            .allocate(tokens)
            .expect("capacity checked above");
        // Destination first, so the request's slot never empties.
        self.residency_add(request, to, tokens);
        self.residency_sub(request, from, tokens);
        Ok(())
    }

    /// Checks the bookkeeping invariants: the residency slab's front slot
    /// is non-empty, every entry is sorted by instance and free of zero
    /// holdings, and each instance's used count equals the index's sum for
    /// it and stays within capacity.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.residency.slots.front().is_some_and(Vec::is_empty) {
            return Err(format!(
                "residency slab starts with an empty slot for {}",
                RequestId::from(self.residency.base)
            ));
        }
        let mut indexed = vec![0u64; self.pools.len()];
        for (request, locations) in self.residency.iter() {
            let mut prev: Option<InstanceId> = None;
            for &(inst, tokens) in locations {
                if prev.is_some_and(|p| p >= inst) {
                    return Err(format!("residency of {request} not sorted by instance"));
                }
                prev = Some(inst);
                if tokens == 0 {
                    return Err(format!(
                        "residency index holds 0 tokens of {request} on {inst}"
                    ));
                }
                indexed[inst.index()] += tokens;
            }
        }
        for (p, &tokens) in self.pools.iter().zip(&indexed) {
            if p.used() != tokens {
                return Err(format!(
                    "{}: {} slots used but the residency index holds {tokens}",
                    p.instance,
                    p.used()
                ));
            }
            if p.used() > p.capacity() {
                return Err(format!(
                    "{}: used {} exceeds capacity {}",
                    p.instance,
                    p.used(),
                    p.capacity()
                ));
            }
        }
        // The host tier, when enabled, must be internally consistent and
        // disjoint from device residency (swap is whole-request).
        if let Some(host) = &self.host {
            host.check_invariants()?;
            for request in host.swapped_requests() {
                if !self.locations_ref(request).is_empty() {
                    return Err(format!(
                        "{request} is both device-resident and swapped to the host tier"
                    ));
                }
            }
        }
        // The prefix tier, when enabled, must name device-resident owners
        // whose holdings match the index exactly, each owner at most once,
        // and never an owner parked on the host tier (retention and swap
        // are disjoint by construction).
        if let Some(cache) = &self.prefix {
            cache.check_invariants()?;
            let mut owners: Vec<RequestId> = Vec::new();
            for (conv, entry) in cache.entries() {
                let held = self.tokens_of(entry.owner);
                if held != entry.tokens {
                    return Err(format!(
                        "prefix entry for {conv} says {} holds {} tokens, pool says {held}",
                        entry.owner, entry.tokens
                    ));
                }
                if self.host.as_ref().is_some_and(|h| h.hosts(entry.owner)) {
                    return Err(format!(
                        "prefix owner {} of {conv} is parked on the host tier",
                        entry.owner
                    ));
                }
                if owners.contains(&entry.owner) {
                    return Err(format!("prefix owner {} retained twice", entry.owner));
                }
                owners.push(entry.owner);
            }
        }
        Ok(())
    }

    // ---- Host-DRAM swap tier ------------------------------------------------

    /// Enables the host swap tier with `capacity` token slots. The tier
    /// starts empty; enabling it changes no device-side state.
    ///
    /// # Panics
    ///
    /// Panics if the tier is already enabled.
    pub fn enable_host_tier(&mut self, capacity: u64) {
        assert!(self.host.is_none(), "host tier enabled twice");
        self.host = Some(HostKvPool::new(capacity));
    }

    /// The host swap tier, if enabled.
    pub fn host(&self) -> Option<&HostKvPool> {
        self.host.as_ref()
    }

    /// Tokens `request` has parked on the host tier (zero when the tier is
    /// disabled or the request is device-resident).
    pub fn swapped_tokens_of(&self, request: RequestId) -> u64 {
        self.host
            .as_ref()
            .map(|h| h.swapped_tokens_of(request))
            .unwrap_or(0)
    }

    /// Total tokens parked on the host tier.
    pub fn total_swapped(&self) -> u64 {
        self.host.as_ref().map(|h| h.used()).unwrap_or(0)
    }

    /// Device pool utilisation in `[0, 1]` across all instances — the
    /// pressure signal watermark policies compare against.
    pub fn device_utilization(&self) -> f64 {
        let cap = self.total_capacity();
        if cap == 0 {
            return 1.0;
        }
        self.total_used() as f64 / cap as f64
    }

    /// Errors if `request` is currently parked on the host tier. Device-side
    /// mutations call this so a swapped request cannot grow a second,
    /// split-brain device residency; a disabled tier costs one `Option`
    /// check.
    fn ensure_not_swapped(&self, request: RequestId) -> Result<(), KvError> {
        match &self.host {
            Some(h) if h.hosts(request) => Err(KvError::AlreadySwapped { request }),
            _ => Ok(()),
        }
    }

    /// Evicts every device-resident token of `request` to the host tier,
    /// returning the number of tokens moved. Whole-request granularity: on
    /// success the request holds no device slots and appears only in the
    /// host pool; on error nothing changes.
    pub fn swap_out(&mut self, request: RequestId) -> Result<u64, KvError> {
        let Some(host) = &self.host else {
            return Err(KvError::HostTierDisabled);
        };
        let tokens = self.tokens_of(request);
        if tokens == 0 {
            return Err(KvError::NothingToSwap { request });
        }
        if host.hosts(request) {
            return Err(KvError::AlreadySwapped { request });
        }
        if tokens > host.free() {
            return Err(KvError::HostInsufficientCapacity {
                requested: tokens,
                free: host.free(),
            });
        }
        // All checks passed: release the device slots, park on the host.
        let freed = self.release(request);
        debug_assert_eq!(freed, tokens);
        self.host
            .as_mut()
            .expect("checked above")
            .accept(request, tokens)
            .expect("capacity checked above");
        Ok(tokens)
    }

    /// Restores `request` from the host tier onto `candidates`, placing it
    /// afresh with `strategy`. Returns the number of tokens moved; on error
    /// nothing changes.
    pub fn swap_in(
        &mut self,
        request: RequestId,
        candidates: &[InstanceId],
        strategy: PlacementStrategy,
    ) -> Result<u64, KvError> {
        // Detach the tier while placing: the request is still parked on it,
        // and `place` refuses parked requests.
        let mut host = self.host.take().ok_or(KvError::HostTierDisabled)?;
        let tokens = host.swapped_tokens_of(request);
        let placed = if tokens == 0 {
            Err(KvError::NothingToSwap { request })
        } else {
            self.place(request, tokens, candidates, strategy)
        };
        if placed.is_ok() {
            host.release(request);
        }
        self.host = Some(host);
        placed.map(|()| tokens)
    }

    // ---- Prefix-cache tier --------------------------------------------------

    /// Enables the prefix-cache tier. The cache starts empty; enabling it
    /// changes no device-side state.
    ///
    /// # Panics
    ///
    /// Panics if the tier is already enabled.
    pub fn enable_prefix_cache(&mut self) {
        assert!(self.prefix.is_none(), "prefix cache enabled twice");
        self.prefix = Some(PrefixCache::default());
    }

    /// The prefix cache, if enabled.
    pub fn prefix(&self) -> Option<&PrefixCache> {
        self.prefix.as_ref()
    }

    /// Returns true if the prefix-cache tier is enabled.
    pub fn prefix_enabled(&self) -> bool {
        self.prefix.is_some()
    }

    /// Tokens a prompt of `prompt_len` tokens in `conversation` could adopt
    /// right now (zero when the tier is disabled or nothing matches).
    pub fn prefix_match_len(&self, conversation: ConversationId, prompt_len: u64) -> u64 {
        self.prefix
            .as_ref()
            .map(|c| c.match_len(conversation, prompt_len))
            .unwrap_or(0)
    }

    /// Pins `conversation`'s retained entry for a pending waiter. No-op when
    /// the tier is disabled.
    pub fn prefix_waiter_add(&mut self, conversation: ConversationId) {
        if let Some(cache) = &mut self.prefix {
            cache.waiter_add(conversation);
        }
    }

    /// Releases one waiter pin on `conversation`. No-op when the tier is
    /// disabled.
    pub fn prefix_waiter_drop(&mut self, conversation: ConversationId) {
        if let Some(cache) = &mut self.prefix {
            cache.waiter_drop(conversation);
        }
    }

    /// Retains a finished request's device-resident KV as `conversation`'s
    /// cached prefix instead of releasing it. The slots stay allocated under
    /// `request`; a previous entry for the conversation (the prior turn's
    /// shorter context) is released and replaced. Returns the tokens
    /// retained — zero (with a plain release) when the tier is disabled or
    /// the request holds nothing on the device.
    pub fn prefix_retain(
        &mut self,
        request: RequestId,
        conversation: ConversationId,
        now: SimTime,
    ) -> u64 {
        let tokens = self.tokens_of(request);
        let Some(cache) = &mut self.prefix else {
            self.release(request);
            return 0;
        };
        if tokens == 0 {
            return 0;
        }
        if let Some(old) = cache.insert(conversation, request, tokens, now) {
            self.release(old.owner);
        }
        tokens
    }

    /// Atomically adopts `conversation`'s retained prefix for `request`: the
    /// finished owner's residency entry moves to `request` — no copy, no
    /// transient free/alloc window — and the entry leaves the prefix index.
    /// Returns the adopted token count, or `None` when nothing matches a
    /// prompt of `prompt_len` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `request` already holds device slots (adoption must precede
    /// the request's first prefill commit).
    pub fn prefix_adopt(
        &mut self,
        request: RequestId,
        conversation: ConversationId,
        prompt_len: u64,
    ) -> Option<u64> {
        let cache = self.prefix.as_ref()?;
        if cache.match_len(conversation, prompt_len) == 0 {
            return None;
        }
        assert!(
            self.locations_ref(request).is_empty(),
            "{request} must adopt its prefix before holding any KV"
        );
        let entry = self
            .prefix
            .as_mut()
            .expect("checked above")
            .remove(conversation)
            .expect("matched above");
        let locations = self.residency.take(entry.owner);
        assert!(!locations.is_empty(), "cached owners are device-resident");
        *self.residency.slot(request) = locations;
        Some(entry.tokens)
    }

    /// Runs the prefix-cache eviction policy for one scheduling point:
    /// watermark eviction of unpinned entries down to
    /// [`EVICTION_WATERMARK`] device utilisation, then head-of-queue
    /// headroom eviction (unpinned first, then pinned; the head's own
    /// conversation is never a victim — the tokens it would free equal the
    /// extra tokens the head would then have to prefill). Victims' slots are
    /// released. Returns `(entries, tokens)` evicted; `(0, 0)` always when
    /// the tier is disabled.
    pub fn prefix_evict_point(&mut self, head: Option<PrefixDemand>) -> (u64, u64) {
        if self.prefix.is_none() {
            return (0, 0);
        }
        let mut entries = 0u64;
        let mut tokens = 0u64;
        while self.device_utilization() > EVICTION_WATERMARK {
            let Some(victim) = self
                .prefix
                .as_ref()
                .expect("checked above")
                .eviction_victim(false, |_, _| true)
            else {
                break;
            };
            tokens += self.prefix_evict_one(victim);
            entries += 1;
        }
        if let Some(head) = head {
            let cached = head
                .conversation
                .map(|c| self.prefix_match_len(c, head.remaining_input))
                .unwrap_or(0);
            let demand = head.remaining_input - cached + head.reserve_output;
            // A request no eviction could ever admit (the schedulers will
            // reject or queue it) must not flush the whole cache.
            if demand <= self.total_capacity() {
                while self.total_free() < demand {
                    let Some(victim) = self
                        .prefix
                        .as_ref()
                        .expect("checked above")
                        .eviction_victim(true, |conv, _| Some(conv) != head.conversation)
                    else {
                        break;
                    };
                    tokens += self.prefix_evict_one(victim);
                    entries += 1;
                }
            }
        }
        (entries, tokens)
    }

    /// Total tokens retained by the prefix cache (zero when disabled).
    pub fn prefix_retained_tokens(&self) -> u64 {
        self.prefix
            .as_ref()
            .map(|c| c.retained_tokens())
            .unwrap_or(0)
    }

    /// Tokens retained by the prefix cache on `instance` (zero when
    /// disabled). O(entries); cached owners never migrate, so the per-entry
    /// holdings are stable while retained.
    pub fn prefix_retained_on(&self, instance: InstanceId) -> u64 {
        let Some(cache) = &self.prefix else {
            return 0;
        };
        cache
            .entries()
            .map(|(_, e)| self.tokens_on(e.owner, instance))
            .sum()
    }

    /// Used slots excluding retained prefixes — the *active* working set.
    /// Retained prefixes are reclaimable on demand, so capacity-driven
    /// policies (pressure watermarks, admission budgets) treat them as
    /// free; counting them as used would let a full cache pause admission
    /// forever while pinning the very requests that would unpin it.
    pub fn active_used(&self) -> u64 {
        self.total_used() - self.prefix_retained_tokens()
    }

    /// Device utilisation of the active working set in `[0, 1]`: like
    /// [`Self::device_utilization`] but excluding reclaimable retained
    /// prefixes. Identical to it when the tier is disabled.
    pub fn active_utilization(&self) -> f64 {
        let cap = self.total_capacity();
        if cap == 0 {
            return 1.0;
        }
        self.active_used() as f64 / cap as f64
    }

    /// Evicts retained prefixes until `instances` hold at least `needed`
    /// free slots between them, LRU-first (unpinned before pinned) among
    /// the entries holding tokens on any of `instances`. The engine calls
    /// this just before committing prefill placements, decode appends,
    /// migrations and swap-ins, so admission policies may count retained
    /// tokens as reclaimable and execution makes good on it. Returns
    /// `(entries, tokens)` evicted; `(0, 0)` always when the tier is
    /// disabled or the slots are already free.
    pub fn prefix_evict_for_instances(
        &mut self,
        instances: &[InstanceId],
        needed: u64,
    ) -> (u64, u64) {
        if self.prefix.is_none() {
            return (0, 0);
        }
        let mut entries = 0u64;
        let mut tokens = 0u64;
        loop {
            let free: u64 = instances
                .iter()
                .map(|&i| self.pools[i.index()].free())
                .sum();
            if free >= needed {
                break;
            }
            let Some(victim) = self
                .prefix
                .as_ref()
                .expect("checked above")
                .eviction_victim(true, |_, entry| {
                    instances
                        .iter()
                        .any(|&i| self.tokens_on(entry.owner, i) > 0)
                })
            else {
                break;
            };
            tokens += self.prefix_evict_one(victim);
            entries += 1;
        }
        (entries, tokens)
    }

    /// Evicts one retained entry, releasing its owner's slots. Returns the
    /// tokens freed.
    fn prefix_evict_one(&mut self, conversation: ConversationId) -> u64 {
        let entry = self
            .prefix
            .as_mut()
            .expect("eviction requires the tier")
            .remove(conversation)
            .expect("victims come from the index");
        let freed = self.release(entry.owner);
        debug_assert_eq!(freed, entry.tokens);
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> UnifiedKvPool {
        UnifiedKvPool::with_capacities(&[100_000, 200_000, 400_000])
    }

    const ALL: [InstanceId; 3] = [InstanceId(0), InstanceId(1), InstanceId(2)];

    #[test]
    fn commit_and_release_roundtrip() {
        let mut p = pool();
        p.place(RequestId(0), 600_000, &ALL, PlacementStrategy::Balanced)
            .expect("fits in unified pool");
        assert_eq!(p.tokens_of(RequestId(0)), 600_000);
        assert_eq!(p.total_free(), 100_000);
        assert_eq!(p.release(RequestId(0)), 600_000);
        assert_eq!(p.total_free(), 700_000);
        assert!(p.check_invariants().is_ok());
    }

    #[test]
    fn failed_commit_leaves_pool_untouched() {
        let mut p = pool();
        p.enable_host_tier(1_000);
        p.append(RequestId(1), InstanceId(0), 10).expect("room");
        p.swap_out(RequestId(1)).expect("host room");
        p.append(RequestId(2), InstanceId(1), 50_000).expect("room");
        let before = p.clone();
        let strategy = PlacementStrategy::PackMostFree;
        // A request parked on the host tier.
        assert_eq!(
            p.place(RequestId(1), 5, &ALL, strategy),
            Err(KvError::AlreadySwapped {
                request: RequestId(1)
            })
        );
        // Candidates that repeat an instance.
        let repeated = [InstanceId(2), InstanceId(0), InstanceId(2)];
        assert_eq!(
            p.place(RequestId(3), 5, &repeated, strategy),
            Err(KvError::RepeatedCandidate {
                instance: InstanceId(2)
            })
        );
        // Free slots short by one: 100K + 150K on instances 0 and 1.
        assert_eq!(
            p.place(
                RequestId(3),
                250_001,
                &[InstanceId(0), InstanceId(1)],
                strategy
            ),
            Err(KvError::NoPlacement {
                request: RequestId(3),
                requested: 250_001
            })
        );
        assert_eq!(p, before);
        // The same slots to the token fit.
        p.place(
            RequestId(3),
            250_000,
            &[InstanceId(0), InstanceId(1)],
            strategy,
        )
        .expect("exactly fits");
        assert_eq!(p.instance(InstanceId(0)).free(), 0);
        assert_eq!(p.instance(InstanceId(1)).free(), 0);
        assert!(p.check_invariants().is_ok());
    }

    /// Reproduces Figure 4: six free slots spread over three instances, yet
    /// no instance can host a six-token request under a locality
    /// constraint; the unified pool places it at token granularity.
    #[test]
    fn figure4_locality_blocks_but_unified_admits() {
        let mut pool = UnifiedKvPool::with_capacities(&[4, 3, 3]);
        pool.append(RequestId(0), InstanceId(0), 2).expect("room");
        pool.append(RequestId(1), InstanceId(1), 1).expect("room");
        pool.append(RequestId(2), InstanceId(2), 1).expect("room");
        let largest_free = |p: &UnifiedKvPool| p.free_slots().iter().map(|&(_, f)| f).max();
        // Free: 2, 2, 2 — six in total, two at most on one instance.
        assert_eq!(largest_free(&pool), Some(2));
        assert_eq!(pool.total_free(), 6);
        let strategy = PlacementStrategy::PackMostFree;
        assert!(pool.place(RequestId(3), 7, &ALL, strategy).is_err());
        pool.place(RequestId(3), 6, &ALL, strategy)
            .expect("the unified pool admits what locality cannot");
        // Filled up, neither rule admits anything but the empty request.
        assert_eq!(largest_free(&pool), Some(0));
        assert_eq!(pool.total_free(), 0);
        pool.place(RequestId(4), 0, &ALL, strategy)
            .expect("nothing to place");
        assert!(pool.check_invariants().is_ok());
    }

    #[test]
    fn append_grows_request_on_master() {
        let mut p = pool();
        p.append(RequestId(3), InstanceId(1), 1).expect("room");
        p.append(RequestId(3), InstanceId(1), 1).expect("room");
        assert_eq!(p.tokens_of(RequestId(3)), 2);
        assert_eq!(p.locations_ref(RequestId(3)), [(InstanceId(1), 2)]);
    }

    #[test]
    fn migrate_moves_tokens_between_instances() {
        let mut p = pool();
        p.append(RequestId(1), InstanceId(0), 50_000).expect("room");
        p.migrate(RequestId(1), InstanceId(0), InstanceId(2), 20_000)
            .expect("room");
        assert_eq!(p.tokens_on(RequestId(1), InstanceId(0)), 30_000);
        assert_eq!(p.tokens_on(RequestId(1), InstanceId(2)), 20_000);
        assert!(p.check_invariants().is_ok());
    }

    #[test]
    fn migrate_rejects_when_destination_full() {
        let mut p = UnifiedKvPool::with_capacities(&[100, 10]);
        p.append(RequestId(1), InstanceId(0), 50).expect("room");
        assert!(matches!(
            p.migrate(RequestId(1), InstanceId(0), InstanceId(1), 20),
            Err(KvError::InsufficientCapacity { .. })
        ));
        // Source untouched on failure.
        assert_eq!(p.tokens_on(RequestId(1), InstanceId(0)), 50);
    }

    #[test]
    fn migrating_tokens_the_source_does_not_hold_errors() {
        let mut p = pool();
        p.append(RequestId(1), InstanceId(0), 10).expect("room");
        for (request, tokens) in [(RequestId(1), 11), (RequestId(9), 1)] {
            assert!(matches!(
                p.migrate(request, InstanceId(0), InstanceId(1), tokens),
                Err(KvError::UnknownRequest { .. })
            ));
        }
        assert_eq!(p.locations_ref(RequestId(1)), [(InstanceId(0), 10)]);
        assert!(p.check_invariants().is_ok());
    }

    #[test]
    fn resident_requests_lists_unique_ids() {
        let mut p = pool();
        p.append(RequestId(5), InstanceId(0), 10).expect("room");
        p.append(RequestId(5), InstanceId(1), 10).expect("room");
        p.append(RequestId(2), InstanceId(2), 10).expect("room");
        p.append(RequestId(3), InstanceId(0), 10).expect("room");
        // Each instance lists each of its residents once, in id order, not
        // append order.
        let residents: Vec<Vec<RequestId>> = (0..3)
            .map(|i| p.residents_of(InstanceId(i)).collect())
            .collect();
        assert_eq!(
            residents,
            [
                vec![RequestId(3), RequestId(5)],
                vec![RequestId(5)],
                vec![RequestId(2)]
            ]
        );
        assert_eq!(p.tokens_on(RequestId(5), InstanceId(1)), 10);
        assert_eq!(p.tokens_on(RequestId(5), InstanceId(2)), 0);
    }

    #[test]
    fn swap_out_and_in_roundtrip_preserves_tokens() {
        let mut p = pool();
        p.enable_host_tier(1_000_000);
        p.place(RequestId(4), 250_000, &ALL, PlacementStrategy::Balanced)
            .expect("fits");
        let moved = p.swap_out(RequestId(4)).expect("host has room");
        assert_eq!(moved, 250_000);
        assert_eq!(p.tokens_of(RequestId(4)), 0);
        assert_eq!(p.swapped_tokens_of(RequestId(4)), 250_000);
        assert_eq!(p.total_swapped(), 250_000);
        assert_eq!(p.total_used(), 0);
        assert!(p.check_invariants().is_ok());
        // A swapped request cannot grow device residency.
        assert!(matches!(
            p.append(RequestId(4), InstanceId(0), 1),
            Err(KvError::AlreadySwapped { .. })
        ));
        let restored = p
            .swap_in(RequestId(4), &ALL, PlacementStrategy::PackMostFree)
            .expect("device has room");
        assert_eq!(restored, 250_000);
        assert_eq!(p.tokens_of(RequestId(4)), 250_000);
        assert_eq!(p.total_swapped(), 0);
        assert!(p.check_invariants().is_ok());
    }

    #[test]
    fn swap_errors_leave_both_tiers_untouched() {
        let mut p = UnifiedKvPool::with_capacities(&[100, 100]);
        // Disabled tier.
        p.append(RequestId(1), InstanceId(0), 50).expect("room");
        assert!(matches!(
            p.swap_out(RequestId(1)),
            Err(KvError::HostTierDisabled)
        ));
        // Tiny host: eviction does not fit.
        p.enable_host_tier(10);
        assert!(matches!(
            p.swap_out(RequestId(1)),
            Err(KvError::HostInsufficientCapacity { requested: 50, .. })
        ));
        assert_eq!(p.tokens_of(RequestId(1)), 50);
        // Nothing to swap either way.
        assert!(matches!(
            p.swap_out(RequestId(9)),
            Err(KvError::NothingToSwap { .. })
        ));
        assert!(matches!(
            p.swap_in(
                RequestId(9),
                &[InstanceId(0)],
                PlacementStrategy::PackMostFree
            ),
            Err(KvError::NothingToSwap { .. })
        ));
        assert!(p.check_invariants().is_ok());

        // Swap-in with no feasible placement keeps the request parked.
        let mut q = UnifiedKvPool::with_capacities(&[100]);
        q.enable_host_tier(100);
        q.append(RequestId(2), InstanceId(0), 80).expect("room");
        q.swap_out(RequestId(2)).expect("fits on host");
        q.append(RequestId(3), InstanceId(0), 60).expect("room");
        let before = q.clone();
        assert!(matches!(
            q.swap_in(
                RequestId(2),
                &[InstanceId(0)],
                PlacementStrategy::PackMostFree
            ),
            Err(KvError::NoPlacement { requested: 80, .. })
        ));
        assert_eq!(q, before);
        assert_eq!(q.swapped_tokens_of(RequestId(2)), 80);
        assert!(q.check_invariants().is_ok());
    }

    #[test]
    fn device_utilization_tracks_pressure() {
        let mut p = UnifiedKvPool::with_capacities(&[100, 100]);
        assert_eq!(p.device_utilization(), 0.0);
        p.append(RequestId(0), InstanceId(0), 100).expect("room");
        assert!((p.device_utilization() - 0.5).abs() < 1e-12);
        assert!(p.host().is_none());
        p.enable_host_tier(50);
        assert_eq!(p.host().expect("enabled").capacity(), 50);
    }

    #[test]
    fn prefix_retain_adopt_roundtrip_renames_slots_in_place() {
        let mut p = pool();
        p.enable_prefix_cache();
        let conv = ConversationId(9);
        // Turn 0 finishes with 30k tokens spread over two instances.
        p.append(RequestId(0), InstanceId(0), 20_000).expect("room");
        p.append(RequestId(0), InstanceId(1), 10_000).expect("room");
        let retained = p.prefix_retain(RequestId(0), conv, SimTime::from_secs(1.0));
        assert_eq!(retained, 30_000);
        assert_eq!(p.tokens_of(RequestId(0)), 30_000, "slots stay allocated");
        assert_eq!(p.prefix().expect("enabled").retained_tokens(), 30_000);
        // A follow-up prompt strictly longer than the entry matches it...
        assert_eq!(p.prefix_match_len(conv, 45_000), 30_000);
        // ...and adoption renames the slots with no free/alloc transition.
        let used_before = p.total_used();
        let adopted = p.prefix_adopt(RequestId(1), conv, 45_000).expect("matched");
        assert_eq!(adopted, 30_000);
        assert_eq!(p.total_used(), used_before);
        assert_eq!(p.tokens_of(RequestId(0)), 0);
        assert_eq!(
            p.locations_ref(RequestId(1)),
            [(InstanceId(0), 20_000), (InstanceId(1), 10_000)]
        );
        assert!(p.prefix().expect("enabled").is_empty());
        assert!(p.check_invariants().is_ok());
        // The next turn retains the grown context, replacing nothing.
        p.append(RequestId(1), InstanceId(2), 15_000).expect("room");
        assert_eq!(
            p.prefix_retain(RequestId(1), conv, SimTime::from_secs(2.0)),
            45_000
        );
        assert!(p.check_invariants().is_ok());
    }

    #[test]
    fn prefix_retain_replaces_and_releases_the_old_entry() {
        let mut p = UnifiedKvPool::with_capacities(&[1_000]);
        p.enable_prefix_cache();
        let conv = ConversationId(1);
        p.append(RequestId(0), InstanceId(0), 100).expect("room");
        p.prefix_retain(RequestId(0), conv, SimTime::from_secs(1.0));
        // A later turn of the same conversation finished without adopting
        // (it arrived before turn 0 completed): retention replaces.
        p.append(RequestId(1), InstanceId(0), 300).expect("room");
        p.prefix_retain(RequestId(1), conv, SimTime::from_secs(2.0));
        assert_eq!(p.tokens_of(RequestId(0)), 0, "old owner released");
        assert_eq!(p.total_used(), 300);
        assert_eq!(p.prefix_match_len(conv, 301), 300);
        assert!(p.check_invariants().is_ok());
    }

    #[test]
    fn prefix_disabled_paths_are_noops() {
        let mut p = UnifiedKvPool::with_capacities(&[100]);
        assert!(!p.prefix_enabled());
        p.append(RequestId(0), InstanceId(0), 50).expect("room");
        // Retention without the tier falls back to a plain release.
        assert_eq!(
            p.prefix_retain(RequestId(0), ConversationId(0), SimTime::ZERO),
            0
        );
        assert_eq!(p.total_used(), 0);
        assert_eq!(p.prefix_match_len(ConversationId(0), 100), 0);
        assert_eq!(p.prefix_adopt(RequestId(1), ConversationId(0), 100), None);
        assert_eq!(p.prefix_evict_point(None), (0, 0));
        p.prefix_waiter_add(ConversationId(0));
        p.prefix_waiter_drop(ConversationId(0));
        assert!(p.check_invariants().is_ok());
    }

    #[test]
    fn prefix_watermark_eviction_is_lru_and_respects_pins() {
        let mut p = UnifiedKvPool::with_capacities(&[1_000]);
        p.enable_prefix_cache();
        for (i, at) in [(0u64, 5.0), (1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)] {
            p.append(RequestId(i), InstanceId(0), 200).expect("room");
            p.prefix_retain(RequestId(i), ConversationId(i), SimTime::from_secs(at));
        }
        // A full pool. Pin the LRU entry (conversation 1): the watermark
        // pass must skip it and take conversations 2 and 3, the next least
        // recently retained, stopping at 60%, the first level under the
        // 70% watermark.
        p.prefix_waiter_add(ConversationId(1));
        let (entries, tokens) = p.prefix_evict_point(None);
        assert_eq!((entries, tokens), (2, 400));
        assert!(
            p.prefix_match_len(ConversationId(1), 1_000) > 0,
            "pinned survives"
        );
        assert_eq!(p.prefix_match_len(ConversationId(2), 1_000), 0);
        assert_eq!(p.prefix_match_len(ConversationId(3), 1_000), 0);
        assert!(p.prefix_match_len(ConversationId(4), 1_000) > 0);
        assert!(p.check_invariants().is_ok());
    }

    #[test]
    fn prefix_headroom_eviction_frees_for_the_queue_head() {
        let mut p = UnifiedKvPool::with_capacities(&[1_000]);
        p.enable_prefix_cache();
        for (i, tokens, at) in [(0u64, 400, 2.0), (1, 250, 1.0)] {
            p.append(RequestId(i), InstanceId(0), tokens).expect("room");
            p.prefix_retain(RequestId(i), ConversationId(i), SimTime::from_secs(at));
        }
        // At 65% the pool sits under the watermark, so only headroom
        // eviction runs. The head adopts its own 400-token entry, so its
        // demand is the 50-token suffix plus a 400-slot output reserve =
        // 450 > 350 free. Conversation 1's entry must go even though it is
        // pinned — headroom eviction may take pinned entries once unpinned
        // ones run out — while conversation 0 is protected as the head's
        // own.
        p.prefix_waiter_add(ConversationId(1));
        let (entries, tokens) = p.prefix_evict_point(Some(PrefixDemand {
            conversation: Some(ConversationId(0)),
            remaining_input: 450,
            reserve_output: 400,
        }));
        assert_eq!((entries, tokens), (1, 250));
        assert!(p.total_free() >= 450);
        assert!(
            p.prefix_match_len(ConversationId(0), 450) > 0,
            "the head's own entry is never evicted"
        );
        assert!(p.check_invariants().is_ok());
    }

    #[test]
    fn prefix_match_requires_strictly_longer_prompt() {
        let mut p = UnifiedKvPool::with_capacities(&[1_000]);
        p.enable_prefix_cache();
        p.append(RequestId(0), InstanceId(0), 200).expect("room");
        p.prefix_retain(RequestId(0), ConversationId(0), SimTime::ZERO);
        assert_eq!(p.prefix_match_len(ConversationId(0), 200), 0);
        assert_eq!(p.prefix_match_len(ConversationId(0), 201), 200);
        assert_eq!(p.prefix_adopt(RequestId(1), ConversationId(0), 200), None);
        assert!(p.check_invariants().is_ok());
    }

    #[test]
    fn residency_index_tracks_all_mutations() {
        let mut p = pool();
        p.place(RequestId(7), 250_000, &ALL, PlacementStrategy::Balanced)
            .expect("fits");
        p.append(RequestId(7), InstanceId(0), 5).expect("room");
        let before = p.locations_ref(RequestId(7));
        assert_eq!(
            before.iter().map(|&(_, t)| t).sum::<u64>(),
            250_005,
            "index covers place + append"
        );
        assert!(p.check_invariants().is_ok());

        let held0 = p.tokens_on(RequestId(7), InstanceId(0));
        p.migrate(RequestId(7), InstanceId(0), InstanceId(2), held0)
            .expect("room");
        assert_eq!(p.locations_ref(RequestId(7)).len(), 2);
        assert!(p.check_invariants().is_ok());

        // A failed migrate must leave the index untouched.
        let mut small = UnifiedKvPool::with_capacities(&[100, 10]);
        small.append(RequestId(1), InstanceId(0), 50).expect("room");
        assert!(small
            .migrate(RequestId(1), InstanceId(0), InstanceId(1), 20)
            .is_err());
        assert_eq!(small.locations_ref(RequestId(1)), [(InstanceId(0), 50)]);
        assert!(small.check_invariants().is_ok());

        assert_eq!(p.release(RequestId(7)), 250_005);
        assert!(p.locations_ref(RequestId(7)).is_empty());
        // With the invariants holding, an empty pool means an empty index.
        assert_eq!(p.total_used(), 0);
        assert!(p.check_invariants().is_ok());
    }

    /// The slab's first id and width.
    fn window(p: &UnifiedKvPool) -> (usize, usize) {
        (p.residency.base, p.residency.slots.len())
    }

    #[test]
    fn an_id_below_the_window_places_reads_and_releases() {
        let mut p = pool();
        p.append(RequestId(10), InstanceId(0), 10).expect("room");
        p.append(RequestId(12), InstanceId(1), 10).expect("room");
        assert_eq!(window(&p), (10, 3));
        // A fleet retry re-admits an older id on this replica.
        p.place(
            RequestId(3),
            6,
            &[InstanceId(0)],
            PlacementStrategy::PackMostFree,
        )
        .expect("room");
        assert_eq!(window(&p), (3, 10));
        assert_eq!(p.tokens_of(RequestId(3)), 6);
        assert_eq!(
            p.residents_of(InstanceId(0)).collect::<Vec<_>>(),
            [RequestId(3), RequestId(10)]
        );
        assert!(p.check_invariants().is_ok());
        assert_eq!(p.release(RequestId(3)), 6);
        assert!(p.locations_ref(RequestId(3)).is_empty());
        assert_eq!(window(&p), (10, 3));
        assert!(p.check_invariants().is_ok());
    }

    #[test]
    fn releasing_the_oldest_resident_trims_the_front() {
        let mut p = pool();
        for id in [1, 2, 3] {
            p.append(RequestId(id), InstanceId(0), 10).expect("room");
        }
        p.append(RequestId(2), InstanceId(1), 10).expect("room");
        // A release inside the window leaves an empty slot behind.
        assert_eq!(p.release(RequestId(2)), 20);
        assert_eq!(window(&p), (1, 3));
        assert_eq!(
            p.residents_of(InstanceId(0)).collect::<Vec<_>>(),
            [RequestId(1), RequestId(3)]
        );
        // Releasing the oldest drops every empty slot at the front.
        p.release(RequestId(1));
        assert_eq!(window(&p), (3, 1));
        assert_eq!(
            p.residents_of(InstanceId(0)).collect::<Vec<_>>(),
            [RequestId(3)]
        );
        assert!(p.check_invariants().is_ok());
        p.release(RequestId(3));
        assert_eq!(window(&p).1, 0);
        assert!(p.check_invariants().is_ok());
    }

    #[test]
    fn pools_with_equal_holdings_compare_equal_whatever_their_widths() {
        let mut wide = pool();
        wide.enable_host_tier(1_000);
        wide.append(RequestId(1), InstanceId(0), 10).expect("room");
        wide.append(RequestId(9), InstanceId(1), 10).expect("room");
        wide.release(RequestId(9));
        let mut narrow = pool();
        narrow.enable_host_tier(1_000);
        narrow
            .append(RequestId(1), InstanceId(0), 10)
            .expect("room");
        assert_ne!(window(&wide), window(&narrow));
        assert_eq!(wide, narrow);
        narrow.append(RequestId(1), InstanceId(0), 1).expect("room");
        assert_ne!(wide, narrow);

        // Refused calls for ids above, inside and below the window leave a
        // pool equal to its clone.
        let before = wide.clone();
        let strategy = PlacementStrategy::PackMostFree;
        assert!(wide.place(RequestId(50), 800_000, &ALL, strategy).is_err());
        assert!(wide
            .migrate(RequestId(5), InstanceId(0), InstanceId(1), 1)
            .is_err());
        assert!(wide
            .migrate(RequestId(0), InstanceId(0), InstanceId(1), 1)
            .is_err());
        assert!(wide.swap_in(RequestId(60), &ALL, strategy).is_err());
        assert_eq!(wide, before);
        assert!(wide.check_invariants().is_ok());
    }

    #[test]
    fn prefix_adopt_moves_an_entry_to_a_higher_id() {
        let mut p = pool();
        p.enable_prefix_cache();
        let conv = ConversationId(4);
        p.append(RequestId(1), InstanceId(2), 10).expect("room");
        p.append(RequestId(2), InstanceId(0), 300).expect("room");
        p.append(RequestId(2), InstanceId(1), 200).expect("room");
        p.prefix_retain(RequestId(2), conv, SimTime::from_secs(1.0));
        assert_eq!(p.prefix_adopt(RequestId(40), conv, 600), Some(500));
        assert!(p.locations_ref(RequestId(2)).is_empty());
        assert_eq!(
            p.locations_ref(RequestId(40)),
            [(InstanceId(0), 300), (InstanceId(1), 200)]
        );
        assert_eq!(window(&p), (1, 40));
        assert_eq!(
            p.residents_of(InstanceId(0)).collect::<Vec<_>>(),
            [RequestId(40)]
        );
        assert!(p.check_invariants().is_ok());
        // With the oldest resident gone, the window starts at the adopter.
        p.release(RequestId(1));
        assert_eq!(window(&p), (40, 1));
        assert!(p.check_invariants().is_ok());
    }

    #[test]
    fn check_invariants_rejects_an_empty_front_slot() {
        let mut p = pool();
        p.append(RequestId(5), InstanceId(0), 10).expect("room");
        let clean = p.clone();
        p.residency.slots.push_front(Vec::new());
        p.residency.base -= 1;
        let err = p.check_invariants().expect_err("empty front slot");
        assert!(err.contains("empty slot for req4"), "{err}");
        // Equality reads holdings only.
        assert_eq!(p, clean);
    }
}
