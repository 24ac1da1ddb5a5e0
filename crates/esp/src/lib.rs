//! # loong-esp
//!
//! Elastic sequence parallelism (ESP) for LoongServe-RS.
//!
//! ESP is the paper's core contribution: the degree of parallelism of a
//! batch is chosen *per iteration* by regrouping elastic instances, instead
//! of being fixed when the service launches. This crate provides the
//! mechanisms; the policies that drive them live in `loong-sched`.
//!
//! A parallel group is a set of elastic instances that jointly execute one
//! batch with sequence parallelism; the number of instances in the group is
//! the batch's degree of parallelism (DoP). The global manager picks a fresh
//! group for every iteration, which is how groups scale: a prefill group
//! scales *down* by retaining its KV on a subset of its members (§4.1, see
//! [`execute_prefill`]), and a decode group scales *up* by listing more
//! instances and masters (§4.2, see [`execute_decode`]). Neither moves KV.
//!
//! Each mechanism is one call that checks its inputs, commits to the
//! unified KV pool and returns only what the engine reads:
//!
//! * [`instance`] — elastic instances (model replicas on fixed GPU sets) and
//!   the registry that carves them out of a cluster,
//! * [`prefill`] — sequence-parallel prefill with zero-overhead proactive
//!   scale-down (paper §4.1),
//! * [`decode`] — single-/multi-master distributed decoding and
//!   migration-free scale-up (paper §4.2),
//! * [`scaling`] — whole-request KV migration with explicit communication
//!   cost, used when the global manager drains an instance (§5.2) and by
//!   the disaggregation baseline.
//!
//! # Examples
//!
//! ```
//! use loong_esp::prelude::*;
//! use loong_cluster::topology::ClusterSpec;
//! use loong_kvcache::unified::UnifiedKvPool;
//! use loong_model::prelude::*;
//! use loong_simcore::ids::{InstanceId, RequestId};
//!
//! let registry = InstanceRegistry::build(&ClusterSpec::single_node_a800(8), 2);
//! let cost_model = CostModel::new(ModelConfig::lwm_1m_text());
//! let mut pool = UnifiedKvPool::new(4, 500_000);
//!
//! // Prefill a 100K-token request on all four instances, retaining its KV
//! // on just the first two (proactive scale-down).
//! let cost = execute_prefill(
//!     &registry.all_ids(),
//!     &[(RequestId(0), 100_000)],
//!     &[InstanceId(0), InstanceId(1)],
//!     &cost_model,
//!     &registry,
//!     &mut pool,
//! )
//! .unwrap();
//! assert!(cost.scaling_s > 0.0);
//! assert_eq!(pool.tokens_of(RequestId(0)), 100_000);
//! assert_eq!(pool.instance(InstanceId(2)).used(), 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod decode;
mod group;
pub mod instance;
pub mod prefill;
pub mod scaling;

pub use decode::{execute_decode, DecodeBuffer};
pub use instance::{ElasticInstance, InstanceRegistry};
pub use prefill::execute_prefill;
pub use scaling::{migrate_request, MigrationSummary};

use loong_kvcache::pool::KvError;
use loong_simcore::ids::RequestId;

/// Why an ESP call refused its inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EspError {
    /// The batch is empty.
    EmptyBatch,
    /// The retained instances are empty, repeat an instance or leave the
    /// group.
    InvalidRetention,
    /// The instances that must hold the KV lack the free slots for it.
    InsufficientKvCapacity {
        /// Tokens that needed placing.
        requested: u64,
        /// Free slots on those instances.
        available: u64,
    },
    /// No master has a free KV slot for a request's next token.
    NoMasterCapacity {
        /// The request that could not be placed.
        request: RequestId,
    },
    /// The pool refused a placement, an append or a migration.
    Kv(KvError),
}

impl std::fmt::Display for EspError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EspError::EmptyBatch => write!(f, "batch is empty"),
            EspError::InvalidRetention => {
                write!(f, "retained instances must be distinct members of the group, at least one")
            }
            EspError::InsufficientKvCapacity { requested, available } => write!(
                f,
                "{requested} KV tokens need placing but the target instances only have {available} free slots"
            ),
            EspError::NoMasterCapacity { request } => {
                write!(f, "no master instance has a free KV slot for {request}")
            }
            EspError::Kv(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EspError {}

impl From<KvError> for EspError {
    fn from(e: KvError) -> Self {
        EspError::Kv(e)
    }
}

/// Convenient glob-import of the most commonly used types.
pub mod prelude {
    pub use crate::decode::{execute_decode, DecodeBuffer};
    pub use crate::instance::{ElasticInstance, InstanceRegistry};
    pub use crate::prefill::execute_prefill;
    pub use crate::scaling::{migrate_request, MigrationSummary};
    pub use crate::EspError;
}
