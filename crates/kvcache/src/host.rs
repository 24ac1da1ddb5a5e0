//! The host-DRAM swap tier.
//!
//! When device KV memory comes under pressure, a scheduler can evict a
//! request's KV cache to host DRAM over PCIe instead of discarding and
//! recomputing it (the trade the vLLM-style baselines make, §7). The
//! [`HostKvPool`] is that tier: a token-granular pool of host slots holding
//! *whole requests* — swap is all-or-nothing per request, so a request is
//! either fully device-resident or fully parked on the host, never split
//! across tiers. [`crate::unified::UnifiedKvPool`] owns an optional
//! `HostKvPool` and exposes the `swap_out`/`swap_in` operations that move
//! requests between the tiers atomically.
//!
//! The pool tracks capacity only; transfer *cost* (PCIe alpha–beta time) is
//! charged by the engine, like every other link in the simulator.

use crate::pool::KvError;
use loong_simcore::ids::RequestId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The token-granularity host-DRAM pool of one node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostKvPool {
    /// Total slot capacity (tokens).
    capacity: u64,
    /// Currently used slots.
    used: u64,
    /// Slots held per swapped-out request. A `BTreeMap` keeps
    /// [`HostKvPool::swapped_requests`] deterministic.
    per_request: BTreeMap<RequestId, u64>,
}

impl HostKvPool {
    /// Creates an empty host pool with the given capacity in token slots.
    pub fn new(capacity: u64) -> Self {
        HostKvPool {
            capacity,
            used: 0,
            per_request: BTreeMap::new(),
        }
    }

    /// Total capacity in token slots.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Used token slots.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Free token slots.
    pub fn free(&self) -> u64 {
        self.capacity - self.used
    }

    /// Slots held by `request` on the host (zero if not swapped out).
    pub fn swapped_tokens_of(&self, request: RequestId) -> u64 {
        self.per_request.get(&request).copied().unwrap_or(0)
    }

    /// Returns true if `request` is parked on the host.
    pub fn hosts(&self, request: RequestId) -> bool {
        self.per_request.contains_key(&request)
    }

    /// All swapped-out requests, sorted by id.
    pub fn swapped_requests(&self) -> Vec<RequestId> {
        self.per_request.keys().copied().collect()
    }

    /// Accepts `tokens` slots of `request` into the host pool.
    ///
    /// Fails if the host is full or the request is already parked here
    /// (whole-request granularity: a second swap-out before a swap-in is a
    /// caller bug surfaced as an error, not silent accumulation).
    pub fn accept(&mut self, request: RequestId, tokens: u64) -> Result<(), KvError> {
        if self.per_request.contains_key(&request) {
            return Err(KvError::AlreadySwapped { request });
        }
        if tokens > self.free() {
            return Err(KvError::HostInsufficientCapacity {
                requested: tokens,
                free: self.free(),
            });
        }
        if tokens > 0 {
            self.per_request.insert(request, tokens);
            self.used += tokens;
        }
        Ok(())
    }

    /// Releases every host slot held by `request`, returning the number
    /// freed (zero if the request was not swapped out).
    pub fn release(&mut self, request: RequestId) -> u64 {
        let freed = self.per_request.remove(&request).unwrap_or(0);
        self.used -= freed;
        freed
    }

    /// Checks the internal bookkeeping invariant (used slots equal the sum
    /// of per-request holdings, never exceed capacity, no zero entries).
    pub fn check_invariants(&self) -> Result<(), String> {
        let sum: u64 = self.per_request.values().sum();
        if sum != self.used {
            return Err(format!(
                "host pool: per-request sum {sum} != used {}",
                self.used
            ));
        }
        if self.used > self.capacity {
            return Err(format!(
                "host pool: used {} exceeds capacity {}",
                self.used, self.capacity
            ));
        }
        if self.per_request.values().any(|&t| t == 0) {
            return Err("host pool holds a zero-token entry".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_and_release_roundtrip() {
        let mut host = HostKvPool::new(1_000);
        host.accept(RequestId(1), 300).expect("fits");
        host.accept(RequestId(2), 700).expect("fits");
        assert_eq!(host.free(), 0);
        assert_eq!(host.swapped_tokens_of(RequestId(1)), 300);
        assert_eq!(host.swapped_requests(), vec![RequestId(1), RequestId(2)]);
        assert!(host.check_invariants().is_ok());
        assert_eq!(host.release(RequestId(1)), 300);
        assert_eq!(host.free(), 300);
        assert!(!host.hosts(RequestId(1)));
        assert!(host.check_invariants().is_ok());
    }

    #[test]
    fn over_capacity_accept_is_rejected_and_harmless() {
        let mut host = HostKvPool::new(100);
        assert!(matches!(
            host.accept(RequestId(0), 101),
            Err(KvError::HostInsufficientCapacity {
                requested: 101,
                free: 100
            })
        ));
        assert_eq!(host.used(), 0);
        assert!(host.check_invariants().is_ok());
    }

    #[test]
    fn double_swap_out_is_an_error() {
        let mut host = HostKvPool::new(100);
        host.accept(RequestId(3), 10).expect("fits");
        assert!(matches!(
            host.accept(RequestId(3), 10),
            Err(KvError::AlreadySwapped { .. })
        ));
        assert_eq!(host.swapped_tokens_of(RequestId(3)), 10);
    }

    #[test]
    fn releasing_unknown_request_frees_nothing() {
        let mut host = HostKvPool::new(100);
        assert_eq!(host.release(RequestId(9)), 0);
        assert_eq!(host.used(), 0);
    }

    #[test]
    fn zero_token_accept_is_a_noop() {
        let mut host = HostKvPool::new(100);
        host.accept(RequestId(1), 0).expect("trivially fits");
        assert!(!host.hosts(RequestId(1)));
        assert!(host.swapped_requests().is_empty());
        assert_eq!(host.used(), 0);
    }
}
