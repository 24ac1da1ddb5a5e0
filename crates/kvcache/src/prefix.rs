//! The prefix-cache tier: token-granularity KV reuse across requests.
//!
//! LoongServe's unified pool manages KV at token granularity (paper §6)
//! precisely so placement is decoupled from instance boundaries — but a
//! serving system that throws every conversation's KV away at completion
//! re-prefills the entire shared history on every follow-up turn. This
//! module adds a deterministic prefix index over that pool: when a request
//! finishes, its KV (prompt + generated tokens — exactly the next turn's
//! shared history) is *retained* in place under the finished request's id;
//! when a follow-up request of the same conversation starts its prefill,
//! the retained slots are *adopted* — renamed to the new request atomically,
//! with no copy and no free/alloc window — and only the uncached suffix is
//! prefilled.
//!
//! The index is a hash-chained prefix map: each conversation's prompt
//! stream is identified by a chain hash folded block-by-block
//! ([`PrefixCacheConfig::block_tokens`] tokens per block), so a retained
//! entry records both how many tokens it holds and the chain value that
//! prefix must hash to. Because turns in a conversation grow strictly
//! (turn *k+1*'s prompt extends turn *k*'s full context), a lookup either
//! matches the whole entry or nothing.
//!
//! Retention is ref-counted by *waiters*: a pending request of conversation
//! `c` pins `c`'s entry against watermark eviction until it either adopts
//! the entry or starts a full prefill. Eviction is LRU by simulated
//! retention time and runs under two triggers, both driven by the engine at
//! scheduling points:
//!
//! * **watermark** — device utilisation above
//!   [`PrefixCacheConfig::high_watermark`] evicts unpinned entries until it
//!   drops back (the watermark sits below the memory-pressure subsystem's
//!   low watermark, so retained prefixes never trip pressure eviction or
//!   pause admission by themselves);
//! * **head-of-queue headroom** — if the FCFS-head pending request cannot
//!   reserve its suffix + declared output, entries of *other* conversations
//!   are evicted (unpinned first, then pinned) until it can. Evicting the
//!   head's own entry is never useful: the tokens it would free equal the
//!   extra tokens the head would then have to prefill.
//!
//! The tier is strictly zero-cost when disabled: a pool without a
//! [`PrefixCache`] takes no new branches on any mutation path, and
//! cache-off engine runs reproduce the pinned golden digests bit for bit.

use loong_simcore::ids::{ConversationId, RequestId};
use loong_simcore::time::SimTime;
use std::collections::BTreeMap;

/// Tunables of the prefix-cache tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefixCacheConfig {
    /// Device utilisation above which unpinned retained prefixes are
    /// evicted (LRU by retention time). Kept below the memory-pressure
    /// subsystem's low watermark (0.75) so retained KV never pauses
    /// admission or triggers pressure eviction of *active* requests.
    pub high_watermark: f64,
    /// Block granularity of the prefix hash chain, in tokens. Purely an
    /// index parameter — retention and adoption stay token-granular.
    pub block_tokens: u64,
}

impl Default for PrefixCacheConfig {
    fn default() -> Self {
        PrefixCacheConfig {
            high_watermark: 0.70,
            block_tokens: 64,
        }
    }
}

impl PrefixCacheConfig {
    /// Validates the watermark range and block size.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0 < self.high_watermark && self.high_watermark <= 1.0) {
            return Err(format!(
                "prefix-cache watermark must be in (0, 1], got {}",
                self.high_watermark
            ));
        }
        if self.block_tokens == 0 {
            return Err("prefix-cache block size must be positive".to_string());
        }
        Ok(())
    }
}

/// One retained prefix: the KV of a completed conversation turn, still
/// resident in the device pool under the finished request's id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefixEntry {
    /// The finished request whose slots hold the prefix.
    pub owner: RequestId,
    /// Tokens retained (the turn's full prompt + generated context).
    pub tokens: u64,
    /// Hash-chain value of the retained prefix blocks.
    pub chain: u64,
    /// Simulated time the entry was retained — the LRU eviction key.
    pub retained_at: SimTime,
}

/// The FCFS-head pending request's demand, used by headroom eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixDemand {
    /// The head request's conversation, if any (its own entry is protected).
    pub conversation: Option<ConversationId>,
    /// Prompt tokens the head still has to prefill, before any cache hit.
    pub remaining_input: u64,
    /// Output-bound slots the head's admission must reserve on top.
    pub reserve_output: u64,
}

/// The deterministic token-granularity prefix index over the unified pool.
///
/// Owned by [`crate::unified::UnifiedKvPool`] (the slots the entries name
/// live there); this type carries the index, the waiter pins and the
/// eviction policy. All maps are `BTreeMap`s so iteration — and therefore
/// eviction order — is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefixCache {
    config: PrefixCacheConfig,
    entries: BTreeMap<ConversationId, PrefixEntry>,
    /// Pending requests per conversation that may still adopt its entry.
    waiters: BTreeMap<ConversationId, u32>,
    /// Running sum of retained tokens across all entries.
    retained_tokens: u64,
}

impl PrefixCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the config fails validation.
    pub fn new(config: PrefixCacheConfig) -> Self {
        config.validate().expect("valid prefix-cache config");
        PrefixCache {
            config,
            entries: BTreeMap::new(),
            waiters: BTreeMap::new(),
            retained_tokens: 0,
        }
    }

    /// The cache configuration.
    pub fn config(&self) -> PrefixCacheConfig {
        self.config
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total tokens currently retained across all entries.
    pub fn retained_tokens(&self) -> u64 {
        self.retained_tokens
    }

    /// The entry retained for `conversation`, if any.
    pub fn entry(&self, conversation: ConversationId) -> Option<&PrefixEntry> {
        self.entries.get(&conversation)
    }

    /// All retained entries in conversation-id order.
    pub fn entries(&self) -> impl Iterator<Item = (ConversationId, &PrefixEntry)> {
        self.entries.iter().map(|(&c, e)| (c, e))
    }

    /// The hash-chain value identifying the first `tokens` tokens of
    /// `conversation`'s prompt stream: an FNV-1a fold over complete blocks
    /// plus the trailing partial-block length. Retention computes it once;
    /// lookups recompute it and compare, so a corrupted index (an entry
    /// whose length no longer names a real prefix of the stream) can never
    /// be silently adopted.
    pub fn chain_hash(&self, conversation: ConversationId, tokens: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ conversation.raw();
        let blocks = tokens / self.config.block_tokens;
        for b in 0..blocks {
            h ^= b.wrapping_add(0x9e37_79b9_7f4a_7c15);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^ (tokens % self.config.block_tokens)
    }

    /// Tokens a prompt of `prompt_len` tokens in `conversation` can reuse:
    /// the whole retained entry when it is a *strict* prefix of the prompt
    /// (at least one token must remain to prefill, so the prefill still
    /// produces the first output token), zero otherwise.
    pub fn match_len(&self, conversation: ConversationId, prompt_len: u64) -> u64 {
        match self.entries.get(&conversation) {
            Some(e) if e.tokens < prompt_len => {
                debug_assert_eq!(
                    e.chain,
                    self.chain_hash(conversation, e.tokens),
                    "prefix chain mismatch for {conversation}"
                );
                e.tokens
            }
            _ => 0,
        }
    }

    /// Pins `conversation`'s (current or future) entry for one more pending
    /// waiter.
    pub fn waiter_add(&mut self, conversation: ConversationId) {
        *self.waiters.entry(conversation).or_insert(0) += 1;
    }

    /// Releases one waiter pin on `conversation`.
    ///
    /// # Panics
    ///
    /// Panics if no waiter is registered (an engine bookkeeping bug).
    pub fn waiter_drop(&mut self, conversation: ConversationId) {
        let count = self
            .waiters
            .get_mut(&conversation)
            .expect("waiter_drop without matching waiter_add");
        *count -= 1;
        if *count == 0 {
            self.waiters.remove(&conversation);
        }
    }

    /// Number of waiter pins on `conversation`.
    pub fn waiters(&self, conversation: ConversationId) -> u32 {
        self.waiters.get(&conversation).copied().unwrap_or(0)
    }

    /// Records a retained entry, returning the entry it replaced (whose
    /// owner's slots the pool must release). Called by the pool wrapper,
    /// which owns the slot bookkeeping.
    pub(crate) fn insert(
        &mut self,
        conversation: ConversationId,
        owner: RequestId,
        tokens: u64,
        now: SimTime,
    ) -> Option<PrefixEntry> {
        let chain = self.chain_hash(conversation, tokens);
        let old = self.entries.insert(
            conversation,
            PrefixEntry {
                owner,
                tokens,
                chain,
                retained_at: now,
            },
        );
        self.retained_tokens += tokens;
        if let Some(old) = &old {
            self.retained_tokens -= old.tokens;
        }
        old
    }

    /// Removes and returns `conversation`'s entry (adoption or eviction).
    pub(crate) fn remove(&mut self, conversation: ConversationId) -> Option<PrefixEntry> {
        let entry = self.entries.remove(&conversation);
        if let Some(e) = &entry {
            self.retained_tokens -= e.tokens;
        }
        entry
    }

    /// The next eviction victim among the entries `eligible` accepts:
    /// unpinned entries before pinned ones (live waiters), which are
    /// considered only when `allow_pinned`, then the least-recently
    /// retained, then the lowest conversation id. Every eviction site picks
    /// its victim here, so the order is written once.
    pub(crate) fn eviction_victim(
        &self,
        allow_pinned: bool,
        eligible: impl Fn(ConversationId, &PrefixEntry) -> bool,
    ) -> Option<ConversationId> {
        let mut best: Option<(bool, SimTime, ConversationId)> = None;
        for (&conv, entry) in &self.entries {
            if !eligible(conv, entry) {
                continue;
            }
            let pinned = self.waiters(conv) > 0;
            if pinned && !allow_pinned {
                continue;
            }
            let key = (pinned, entry.retained_at, conv);
            if best.map(|b| key < b).unwrap_or(true) {
                best = Some(key);
            }
        }
        best.map(|(_, _, conv)| conv)
    }

    /// Checks index invariants that do not need the pool: positive entry
    /// sizes, a consistent running token sum, chain hashes that re-derive,
    /// and no zero-count waiter entries.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut sum = 0u64;
        for (&conv, entry) in &self.entries {
            if entry.tokens == 0 {
                return Err(format!("prefix entry for {conv} retains zero tokens"));
            }
            if entry.chain != self.chain_hash(conv, entry.tokens) {
                return Err(format!("prefix entry for {conv} fails its chain hash"));
            }
            sum += entry.tokens;
        }
        if sum != self.retained_tokens {
            return Err(format!(
                "retained-token sum {sum} != running total {}",
                self.retained_tokens
            ));
        }
        if self.waiters.values().any(|&c| c == 0) {
            return Err("zero-count waiter entry".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> PrefixCache {
        PrefixCache::new(PrefixCacheConfig::default())
    }

    #[test]
    fn insert_match_remove_roundtrip() {
        let mut c = cache();
        let conv = ConversationId(3);
        assert_eq!(c.match_len(conv, 1_000), 0);
        c.insert(conv, RequestId(7), 500, SimTime::from_secs(1.0));
        assert_eq!(c.retained_tokens(), 500);
        assert_eq!(c.match_len(conv, 1_000), 500);
        // A prompt no longer than the entry cannot reuse it.
        assert_eq!(c.match_len(conv, 500), 0);
        assert_eq!(c.match_len(conv, 400), 0);
        let e = c.remove(conv).expect("entry");
        assert_eq!(e.owner, RequestId(7));
        assert_eq!(c.retained_tokens(), 0);
        assert!(c.is_empty());
        assert!(c.check_invariants().is_ok());
    }

    #[test]
    fn insert_replaces_and_returns_the_old_entry() {
        let mut c = cache();
        let conv = ConversationId(0);
        c.insert(conv, RequestId(1), 100, SimTime::from_secs(1.0));
        let old = c
            .insert(conv, RequestId(2), 250, SimTime::from_secs(2.0))
            .expect("replaced");
        assert_eq!(old.owner, RequestId(1));
        assert_eq!(c.retained_tokens(), 250);
        assert_eq!(c.len(), 1);
        assert!(c.check_invariants().is_ok());
    }

    #[test]
    fn chain_hash_distinguishes_conversations_and_lengths() {
        let c = cache();
        let a = c.chain_hash(ConversationId(1), 640);
        assert_ne!(a, c.chain_hash(ConversationId(2), 640));
        assert_ne!(a, c.chain_hash(ConversationId(1), 641));
        assert_eq!(a, c.chain_hash(ConversationId(1), 640));
    }

    #[test]
    fn waiters_pin_entries_against_eviction() {
        let mut c = cache();
        c.insert(ConversationId(0), RequestId(0), 10, SimTime::from_secs(2.0));
        c.insert(ConversationId(1), RequestId(1), 10, SimTime::from_secs(1.0));
        let any = |_: ConversationId, _: &PrefixEntry| true;
        // LRU: conversation 1 was retained first.
        assert_eq!(c.eviction_victim(false, any), Some(ConversationId(1)));
        c.waiter_add(ConversationId(1));
        // Pinned: the unpinned entry is preferred even though it is newer.
        assert_eq!(c.eviction_victim(false, any), Some(ConversationId(0)));
        assert_eq!(c.eviction_victim(true, any), Some(ConversationId(0)));
        // With only pinned entries left, eviction needs allow_pinned.
        c.waiter_add(ConversationId(0));
        assert_eq!(c.eviction_victim(false, any), None);
        assert_eq!(c.eviction_victim(true, any), Some(ConversationId(1)));
        // An entry the filter rejects is never chosen.
        assert_eq!(
            c.eviction_victim(true, |conv, _| conv != ConversationId(1)),
            Some(ConversationId(0))
        );
        c.waiter_drop(ConversationId(1));
        assert_eq!(c.waiters(ConversationId(1)), 0);
        assert_eq!(c.waiters(ConversationId(0)), 1);
        assert!(c.check_invariants().is_ok());
    }

    #[test]
    #[should_panic(expected = "without matching waiter_add")]
    fn unbalanced_waiter_drop_panics() {
        let mut c = cache();
        c.waiter_drop(ConversationId(5));
    }

    #[test]
    fn config_validation_rejects_bad_values() {
        assert!(PrefixCacheConfig {
            high_watermark: 0.0,
            block_tokens: 64
        }
        .validate()
        .is_err());
        assert!(PrefixCacheConfig {
            high_watermark: 1.5,
            block_tokens: 64
        }
        .validate()
        .is_err());
        assert!(PrefixCacheConfig {
            high_watermark: 0.7,
            block_tokens: 0
        }
        .validate()
        .is_err());
        assert!(PrefixCacheConfig::default().validate().is_ok());
    }
}
