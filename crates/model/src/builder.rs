//! Builder for [`CostModel`] — the front door of the cost API.
//!
//! [`CostModel::new`] takes only the model config and fills in the paper's
//! testbed defaults. The builder names the two parts a run may change: the
//! GPU and the attention-cost policy.
//!
//! [`CostModel::new`]: crate::roofline::CostModel::new

use crate::attention::AttentionCostPolicy;
use crate::config::ModelConfig;
use crate::roofline::CostModel;
use loong_cluster::gpu::{GpuSpec, LinkSpec};

/// Assembles a [`CostModel`] from named parts instead of positional
/// constructor arguments. Defaults match [`CostModel::new`]: A800 GPUs,
/// NVLink within instances, dense attention.
///
/// ```
/// use loong_model::prelude::*;
///
/// let cm = CostModel::builder(ModelConfig::lwm_1m_text())
///     .attention(AttentionCostPolicy::PageSparseDecode)
///     .build();
/// assert_eq!(cm.attention().label(), "page-sparse-decode");
/// ```
///
/// [`CostModel::new`]: crate::roofline::CostModel::new
#[derive(Debug, Clone)]
pub struct CostModelBuilder {
    model: ModelConfig,
    gpu: GpuSpec,
    attention: AttentionCostPolicy,
}

impl CostModelBuilder {
    /// Starts a builder for the given model with testbed defaults.
    pub fn new(model: ModelConfig) -> Self {
        CostModelBuilder {
            model,
            gpu: GpuSpec::a800_80gb(),
            attention: AttentionCostPolicy::Dense,
        }
    }

    /// Sets the GPU device model.
    pub fn gpu(mut self, gpu: GpuSpec) -> Self {
        self.gpu = gpu;
        self
    }

    /// Sets the attention-cost policy.
    pub fn attention(mut self, attention: AttentionCostPolicy) -> Self {
        self.attention = attention;
        self
    }

    /// Builds the [`CostModel`].
    pub fn build(self) -> CostModel {
        CostModel::from_parts(
            self.model,
            self.gpu,
            LinkSpec::nvlink_a800(),
            self.attention,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_cost_model_new() {
        let built = CostModel::builder(ModelConfig::lwm_1m_text()).build();
        let direct = CostModel::new(ModelConfig::lwm_1m_text());
        assert_eq!(built, direct);
    }

    #[test]
    fn builder_sets_every_knob() {
        let mut gpu = GpuSpec::a800_80gb();
        gpu.per_layer_overhead_s *= 2.0;
        let cm = CostModel::builder(ModelConfig::llama2_7b())
            .gpu(gpu.clone())
            .attention(AttentionCostPolicy::HierarchicalPrefill)
            .build();
        assert_eq!(cm.gpu(), &gpu);
        assert_eq!(cm.attention().label(), "hierarchical-prefill");
        assert_eq!(cm.model(), &ModelConfig::llama2_7b());
    }
}
