//! # loong-kvcache
//!
//! Token-granularity key-value cache management for LoongServe-RS.
//!
//! * [`pool`] — one instance's KV slot capacity and usage (PagedAttention at
//!   block size one, as in the paper's implementation §6),
//! * [`placement`] — token-level placement: pack onto the most free
//!   instance, or spread in proportion to free slots,
//! * [`unified`] — the unified distributed pool spanning all elastic
//!   instances: its residency index is the one record of which instances
//!   hold how many of each request's tokens; place/append/migrate/evict
//!   operations and an optional host-DRAM swap tier (`swap_out`/`swap_in`),
//! * [`host`] — the host-DRAM pool backing the swap tier,
//! * [`prefix`] — the prefix-cache tier: a deterministic per-conversation
//!   prefix index over the unified pool with ref-counted retention of
//!   completed requests' KV and atomic `match → adopt` reuse.
//!
//! # Examples
//!
//! ```
//! use loong_kvcache::prelude::*;
//! use loong_simcore::ids::{InstanceId, RequestId};
//!
//! // Figure 4's point at scale: no instance can hold 600K tokens, but the
//! // unified pool places them at token granularity.
//! let mut pool = UnifiedKvPool::with_capacities(&[100_000, 200_000, 400_000]);
//! pool.place(RequestId(0), 600_000,
//!            &[InstanceId(0), InstanceId(1), InstanceId(2)],
//!            PlacementStrategy::Balanced)
//!     .expect("the unified pool has room");
//! assert_eq!(pool.tokens_of(RequestId(0)), 600_000);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod host;
pub mod placement;
pub mod pool;
pub mod prefix;
pub mod unified;

pub use host::HostKvPool;
pub use placement::{plan_placement, PlacementStrategy};
pub use pool::{InstanceKvPool, KvError};
pub use prefix::{PrefixCache, PrefixCacheConfig, PrefixDemand, PrefixEntry};
pub use unified::UnifiedKvPool;

/// Convenient glob-import of the most commonly used types.
pub mod prelude {
    pub use crate::host::HostKvPool;
    pub use crate::placement::{plan_placement, PlacementStrategy};
    pub use crate::pool::{InstanceKvPool, KvError};
    pub use crate::prefix::{PrefixCache, PrefixCacheConfig, PrefixDemand, PrefixEntry};
    pub use crate::unified::UnifiedKvPool;
}
