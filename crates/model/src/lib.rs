//! # loong-model
//!
//! LLM cost modelling for LoongServe-RS.
//!
//! This crate answers the question every scheduler in the workspace asks:
//! *"how long will this iteration take, and how much memory will it use?"*
//!
//! * [`config`] — transformer architectures (LWM-1M-Text / Llama-2-7B and
//!   friends) and their derived parameter/KV-cache byte counts,
//! * [`attention`] — the attention-cost policy: dense (the paper's
//!   assumption), LServe-style page-sparse decode or hierarchical prefill,
//! * [`roofline`] — the iteration-time model combining a compute roofline
//!   with tensor-parallel and sequence-parallel communication costs; the
//!   simulated substitute for real CUDA kernels,
//! * [`builder`] — [`CostModelBuilder`], the named-parts front door to the
//!   cost API (model + GPU + attention policy),
//! * [`analytical`] — the paper's α + β·Σl + γ·Σl² model (Eq. 7) with its
//!   least-squares fit,
//! * [`sib`] — the Scaling Information Base: the fitted models and the
//!   thresholds the global manager consults every iteration.
//!
//! # Examples
//!
//! ```
//! use loong_model::prelude::*;
//! use loong_cluster::gpu::LinkSpec;
//!
//! let cost = CostModel::new(ModelConfig::lwm_1m_text());
//! let long = cost.prefill_cost(&[100_000], ParallelConfig::new(2, 4), LinkSpec::nvlink_a800());
//! let short = cost.prefill_cost(&[1_000], ParallelConfig::new(2, 4), LinkSpec::nvlink_a800());
//! assert!(long.total() > 10.0 * short.total());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analytical;
pub mod attention;
pub mod builder;
pub mod config;
pub mod roofline;
pub mod sib;

pub use analytical::{AnalyticalModel, BatchFeatures};
pub use attention::{AttentionCostPolicy, HierarchicalPrefill, PageSparseDecode};
pub use builder::CostModelBuilder;
pub use config::ModelConfig;
pub use roofline::{CostModel, IterationCost, ParallelConfig};
pub use sib::ScalingInfoBase;

/// Convenient glob-import of the most commonly used types.
pub mod prelude {
    pub use crate::analytical::{AnalyticalModel, BatchFeatures};
    pub use crate::attention::{AttentionCostPolicy, HierarchicalPrefill, PageSparseDecode};
    pub use crate::builder::CostModelBuilder;
    pub use crate::config::ModelConfig;
    pub use crate::roofline::{CostModel, IterationCost, ParallelConfig};
    pub use crate::sib::ScalingInfoBase;
}
