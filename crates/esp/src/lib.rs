//! # loong-esp
//!
//! Elastic sequence parallelism (ESP) for LoongServe-RS.
//!
//! ESP is the paper's core contribution: the degree of parallelism of a
//! batch is chosen *per iteration* by regrouping elastic instances, instead
//! of being fixed when the service launches. This crate provides the
//! mechanisms; the policies that drive them live in `loong-sched`.
//!
//! * [`instance`] — elastic instances (model replicas on fixed GPU sets) and
//!   the registry that carves them out of a cluster,
//! * [`group`] — ESP parallel groups: the instances and masters of one
//!   iteration,
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
//! let group = EspGroup::new(registry.all_ids());
//! let plan = PrefillPlan::build(
//!     group,
//!     vec![PrefillRequest { id: RequestId(0), input_len: 100_000 }],
//!     vec![InstanceId(0), InstanceId(1)],
//!     &pool,
//! ).unwrap();
//! let outcome = execute_prefill(&plan, &cost_model, &registry, &mut pool).unwrap();
//! assert!(outcome.cost.total() > 0.0);
//! assert_eq!(pool.tokens_of(RequestId(0)), 100_000);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod decode;
pub mod group;
pub mod instance;
pub mod prefill;
pub mod scaling;

pub use decode::{execute_decode, DecodeOutcome, DecodePlan, DecodePlanError, DecodeRequest};
pub use group::EspGroup;
pub use instance::{ElasticInstance, InstanceRegistry};
pub use prefill::{execute_prefill, PrefillOutcome, PrefillPlan, PrefillPlanError, PrefillRequest};
pub use scaling::{migrate_request, MigrationSummary, ScalingError};

/// Convenient glob-import of the most commonly used types.
pub mod prelude {
    pub use crate::decode::{
        execute_decode, DecodeOutcome, DecodePlan, DecodePlanError, DecodeRequest,
    };
    pub use crate::group::EspGroup;
    pub use crate::instance::{ElasticInstance, InstanceRegistry};
    pub use crate::prefill::{
        execute_prefill, PrefillOutcome, PrefillPlan, PrefillPlanError, PrefillRequest,
    };
    pub use crate::scaling::{migrate_request, MigrationSummary, ScalingError};
}
