//! Admission under fragmentation.
//!
//! §2.4 and Figure 4 of the paper motivate the unified pool with a
//! fragmentation argument: under a locality constraint (the whole request
//! must fit on one instance), a cluster can have plenty of total free memory
//! yet be unable to admit a long request. These two admission rules state
//! that gap: the locality-constrained baselines' and the unified pool's.

use crate::unified::UnifiedKvPool;

/// Returns true if a request needing `tokens` KV slots can be admitted under
/// a single-instance locality constraint (the grouped baselines' rule).
pub fn admissible_with_locality(pool: &UnifiedKvPool, tokens: u64) -> bool {
    pool.free_slots().into_iter().any(|(_, f)| f >= tokens)
}

/// Returns true if a request needing `tokens` KV slots can be admitted by
/// the unified pool (LoongServe's rule: only the total matters).
pub fn admissible_unified(pool: &UnifiedKvPool, tokens: u64) -> bool {
    pool.total_free() >= tokens
}

#[cfg(test)]
mod tests {
    use super::*;
    use loong_simcore::ids::{InstanceId, RequestId};

    /// Reproduces Figure 4: six free slots spread over three instances, yet
    /// no instance can host a six-token request.
    #[test]
    fn figure4_locality_blocks_but_unified_admits() {
        let mut pool = UnifiedKvPool::with_capacities(&[4, 3, 3]);
        pool.append(RequestId(0), InstanceId(0), 2).expect("room");
        pool.append(RequestId(1), InstanceId(1), 1).expect("room");
        pool.append(RequestId(2), InstanceId(2), 1).expect("room");
        // Free: 2, 2, 2 — six in total.
        assert_eq!(pool.total_free(), 6);
        assert!(!admissible_with_locality(&pool, 6));
        assert!(admissible_unified(&pool, 6));
        // Each rule still admits what fits: two slots on one instance.
        assert!(admissible_with_locality(&pool, 2));
        assert!(!admissible_unified(&pool, 7));
        // Filled up, both rules admit nothing but the empty request.
        for i in 0..3 {
            pool.append(RequestId(i), InstanceId(i), 2).expect("room");
        }
        assert!(admissible_with_locality(&pool, 0));
        assert!(!admissible_with_locality(&pool, 1));
        assert!(!admissible_unified(&pool, 1));
    }
}
