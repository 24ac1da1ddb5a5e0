//! Per-instance key-value cache pools.
//!
//! Each elastic instance manages its GPU memory as a pool of token-granular
//! KV slots (the paper implements this with PagedAttention at a block size
//! of one token, §6). A pool counts its used and free slots; which requests
//! hold them, on this instance and across the others, lives in
//! [`crate::unified::UnifiedKvPool`].

use loong_simcore::ids::{InstanceId, RequestId};

/// Errors returned by pool operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// The instance does not have enough free slots for the allocation.
    InsufficientCapacity {
        /// Instance that rejected the allocation.
        instance: InstanceId,
        /// Slots requested.
        requested: u64,
        /// Slots actually free.
        free: u64,
    },
    /// The request has no slots on this instance.
    UnknownRequest {
        /// Instance that was queried.
        instance: InstanceId,
        /// The request that was not found.
        request: RequestId,
    },
    /// The host swap tier does not have enough free slots.
    HostInsufficientCapacity {
        /// Slots requested.
        requested: u64,
        /// Slots actually free on the host.
        free: u64,
    },
    /// The host swap tier is not enabled on this pool.
    HostTierDisabled,
    /// The request is currently parked on the host tier; device-side
    /// mutations (or a second swap-out) must wait for its swap-in.
    AlreadySwapped {
        /// The swapped-out request.
        request: RequestId,
    },
    /// The request holds no host slots, so it cannot be swapped in (or it
    /// holds no device slots, so it cannot be swapped out).
    NothingToSwap {
        /// The request that had nothing to move.
        request: RequestId,
    },
    /// The candidate instances lack the free slots for a placement (a
    /// prefill's or a swap-in's).
    NoPlacement {
        /// The request whose KV could not be placed.
        request: RequestId,
        /// Tokens that needed placing.
        requested: u64,
    },
    /// The candidate instances of a placement list an instance twice.
    RepeatedCandidate {
        /// The repeated instance.
        instance: InstanceId,
    },
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::InsufficientCapacity {
                instance,
                requested,
                free,
            } => write!(
                f,
                "{instance}: requested {requested} KV slots but only {free} free"
            ),
            KvError::UnknownRequest { instance, request } => {
                write!(f, "{instance}: request {request} holds no KV slots here")
            }
            KvError::HostInsufficientCapacity { requested, free } => write!(
                f,
                "host tier: requested {requested} KV slots but only {free} free"
            ),
            KvError::HostTierDisabled => write!(f, "host swap tier is not enabled"),
            KvError::AlreadySwapped { request } => {
                write!(f, "request {request} is swapped out to the host tier")
            }
            KvError::NothingToSwap { request } => {
                write!(f, "request {request} holds no KV slots to swap")
            }
            KvError::NoPlacement { request, requested } => write!(
                f,
                "no feasible placement for {requested} KV slots of {request}"
            ),
            KvError::RepeatedCandidate { instance } => {
                write!(f, "{instance} appears twice among the placement candidates")
            }
        }
    }
}

impl std::error::Error for KvError {}

/// The token-granularity KV pool of one elastic instance: its capacity and
/// how much of it is used. Which requests hold those slots is recorded once,
/// in [`crate::unified::UnifiedKvPool`]'s residency index.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceKvPool {
    /// The owning instance.
    pub instance: InstanceId,
    /// Total slot capacity (tokens).
    capacity: u64,
    /// Currently used slots.
    used: u64,
}

impl InstanceKvPool {
    /// Creates an empty pool with the given capacity in token slots.
    pub fn new(instance: InstanceId, capacity: u64) -> Self {
        InstanceKvPool {
            instance,
            capacity,
            used: 0,
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

    /// Takes `tokens` free slots.
    pub fn allocate(&mut self, tokens: u64) -> Result<(), KvError> {
        if tokens > self.free() {
            return Err(KvError::InsufficientCapacity {
                instance: self.instance,
                requested: tokens,
                free: self.free(),
            });
        }
        self.used += tokens;
        Ok(())
    }

    /// Returns `tokens` used slots to the free pool.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `tokens` slots are used.
    pub fn release(&mut self, tokens: u64) {
        assert!(
            tokens <= self.used,
            "{}: cannot release {tokens} slots, only {} used",
            self.instance,
            self.used
        );
        self.used -= tokens;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_release_roundtrip() {
        let mut pool = InstanceKvPool::new(InstanceId(0), 100);
        pool.allocate(30).expect("fits");
        pool.allocate(50).expect("fits");
        assert_eq!(pool.free(), 20);
        pool.release(30);
        assert_eq!(pool.free(), 50);
        assert_eq!(pool.used(), 50);
    }

    #[test]
    fn over_allocation_is_rejected() {
        let mut pool = InstanceKvPool::new(InstanceId(0), 10);
        let err = pool.allocate(11).unwrap_err();
        match err {
            KvError::InsufficientCapacity {
                requested, free, ..
            } => {
                assert_eq!(requested, 11);
                assert_eq!(free, 10);
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn incremental_growth_accumulates() {
        let mut pool = InstanceKvPool::new(InstanceId(0), 10);
        for _ in 0..5 {
            pool.allocate(1).expect("fits");
        }
        assert_eq!(pool.used(), 5);
        assert_eq!(pool.free(), 5);
    }

    #[test]
    fn partial_release_shrinks_holding() {
        let mut pool = InstanceKvPool::new(InstanceId(0), 100);
        pool.allocate(40).expect("fits");
        pool.release(10);
        assert_eq!(pool.used(), 30);
        pool.release(30);
        assert_eq!(pool.used(), 0);
        assert_eq!(pool.free(), 100);
    }

    #[test]
    #[should_panic(expected = "cannot release")]
    fn releasing_more_than_used_panics() {
        let mut pool = InstanceKvPool::new(InstanceId(0), 100);
        pool.allocate(5).expect("fits");
        pool.release(6);
    }

    #[test]
    fn zero_allocation_is_a_noop() {
        let mut pool = InstanceKvPool::new(InstanceId(0), 10);
        pool.allocate(0).expect("trivially fits");
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn error_display_is_informative() {
        let e = KvError::InsufficientCapacity {
            instance: InstanceId(3),
            requested: 10,
            free: 2,
        };
        let msg = format!("{e}");
        assert!(msg.contains("inst3") && msg.contains("10") && msg.contains('2'));
    }
}
