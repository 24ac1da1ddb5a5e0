//! The Scaling Information Base (SIB).
//!
//! LoongServe's global manager consults the SIB before every scheduling
//! decision (paper §3, §5.5): it holds profiling results for a grid of
//! batch shapes and parallelism strategies, the analytical models fitted
//! from them, and derived thresholds such as the prefill "tipping point" and
//! the decode compute-bound batch size.
//!
//! The original system stores profiles in SQLite and gathers them with
//! dedicated profiling tools on real GPUs; here the profiles are produced by
//! the roofline substrate (optionally perturbed with measurement noise),
//! fitted as they are drawn and kept only as the fitted models and
//! thresholds, in memory, preserving the workflow: profile once, fit, and
//! consult cheap fitted models at scheduling time.

use crate::analytical::{AnalyticalModel, BatchFeatures};
use crate::config::ModelConfig;
use crate::roofline::{CostModel, ParallelConfig};
use loong_cluster::gpu::LinkSpec;
use loong_simcore::rng::SimRng;
use rand_like_noise::perturb;
use std::collections::HashMap;

/// Small helper module so the noise model is easy to audit.
mod rand_like_noise {
    use loong_simcore::rng::SimRng;
    use rand::Rng;

    /// Multiplies `value` by a factor drawn uniformly from
    /// `[1 - amplitude, 1 + amplitude]`, modelling run-to-run measurement
    /// jitter on real hardware.
    pub fn perturb(value: f64, amplitude: f64, rng: &mut SimRng) -> f64 {
        if amplitude == 0.0 {
            return value;
        }
        let factor = 1.0 + rng.gen_range(-amplitude..amplitude);
        value * factor
    }
}

/// Everything fitted and derived from the profiles.
#[derive(Debug, Clone)]
pub struct ScalingInfoBase {
    /// Fitted analytical models per parallelism strategy.
    pub prefill_models: HashMap<ParallelConfig, AnalyticalModel>,
    /// Prefill tipping point (tokens per iteration) per parallelism strategy.
    pub prefill_saturation_tokens: HashMap<ParallelConfig, u64>,
    /// Decode compute-bound batch-size threshold per tensor-parallel degree.
    pub decode_compute_bound_bs: HashMap<usize, usize>,
}

impl ScalingInfoBase {
    /// Creates an empty SIB.
    pub fn new() -> Self {
        ScalingInfoBase {
            prefill_models: HashMap::new(),
            prefill_saturation_tokens: HashMap::new(),
            decode_compute_bound_bs: HashMap::new(),
        }
    }

    /// Profiles a grid of batch shapes under every parallelism strategy in
    /// `configs`, fits the analytical models, and records the derived
    /// thresholds.
    ///
    /// `noise_amplitude` adds multiplicative measurement jitter (e.g. 0.02
    /// for ±2%), exercising the robustness of the least-squares fit exactly
    /// as real profiling noise would.
    pub fn profile(
        cost_model: &CostModel,
        configs: &[ParallelConfig],
        sp_link: LinkSpec,
        noise_amplitude: f64,
        rng: &mut SimRng,
    ) -> Self {
        let mut sib = ScalingInfoBase::new();
        let grid = Self::default_profile_grid(&cost_model.model);
        for &parallel in configs {
            let mut samples: Vec<(BatchFeatures, f64)> = Vec::new();
            for lens in &grid {
                let ideal = cost_model.prefill_cost(lens, parallel, sp_link).total();
                let measured = perturb(ideal, noise_amplitude, rng);
                samples.push((BatchFeatures::from_lens(lens), measured));
            }
            if let Some(fitted) = AnalyticalModel::fit_features(&samples) {
                sib.prefill_models.insert(parallel, fitted);
            }
            sib.prefill_saturation_tokens
                .insert(parallel, cost_model.prefill_saturation_tokens(parallel));
            sib.decode_compute_bound_bs
                .entry(parallel.tp)
                .or_insert_with(|| cost_model.decode_compute_bound_batch_size(parallel.tp));
        }
        sib
    }

    /// The batch-shape grid used for profiling: a spread of batch sizes and
    /// input lengths covering the model's context window, small enough to be
    /// "a few profiling results" (paper §5.5) yet diverse enough for a
    /// well-conditioned fit.
    pub fn default_profile_grid(model: &ModelConfig) -> Vec<Vec<u64>> {
        let max_len = model.max_context_len as u64;
        let lens: Vec<u64> = [1_000u64, 5_000, 10_000, 50_000, 100_000, 200_000, 400_000]
            .iter()
            .copied()
            .filter(|&l| l <= max_len)
            .collect();
        let batch_sizes = [1usize, 2, 4, 8, 16];
        let mut grid = Vec::new();
        for &bs in &batch_sizes {
            for &len in &lens {
                // Keep the total token count bounded so profiling stays cheap.
                if bs as u64 * len <= max_len {
                    grid.push(vec![len; bs]);
                }
            }
        }
        // A few mixed-length batches so Σl and Σl² decorrelate, sized as
        // fractions of the context window so they stay valid for
        // small-context models.
        grid.push(vec![max_len / 64, max_len / 8]);
        grid.push(vec![max_len / 128, max_len / 16, max_len / 4]);
        grid.push(vec![
            max_len / 256,
            max_len / 256,
            max_len / 256,
            max_len / 8,
        ]);
        grid.retain(|lens| lens.iter().all(|&l| l > 0));
        grid
    }

    /// The fitted prefill model for a parallelism strategy, if profiled.
    pub fn prefill_model(&self, parallel: ParallelConfig) -> Option<&AnalyticalModel> {
        self.prefill_models.get(&parallel)
    }

    /// Predicted prefill iteration time using the fitted model, falling back
    /// to `fallback` when the strategy was never profiled.
    pub fn predict_prefill(
        &self,
        lens: &[u64],
        parallel: ParallelConfig,
        fallback: impl FnOnce() -> f64,
    ) -> f64 {
        match self.prefill_model(parallel) {
            Some(m) => m.predict(lens).max(0.0),
            None => fallback(),
        }
    }

    /// The prefill tipping point (tokens) for a strategy, if profiled.
    pub fn saturation_tokens(&self, parallel: ParallelConfig) -> Option<u64> {
        self.prefill_saturation_tokens.get(&parallel).copied()
    }

    /// The decode compute-bound batch-size threshold for a tensor-parallel
    /// degree, if profiled.
    pub fn decode_threshold(&self, tp: usize) -> Option<usize> {
        self.decode_compute_bound_bs.get(&tp).copied()
    }
}

impl Default for ScalingInfoBase {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_configs() -> Vec<ParallelConfig> {
        vec![
            ParallelConfig::new(4, 2),
            ParallelConfig::new(2, 4),
            ParallelConfig::new(1, 8),
            ParallelConfig::new(8, 1),
            ParallelConfig::new(2, 1),
            ParallelConfig::new(2, 2),
            ParallelConfig::new(2, 3),
        ]
    }

    #[test]
    fn profiling_fits_every_config() {
        let cm = CostModel::new(ModelConfig::lwm_1m_text());
        let mut rng = SimRng::seed(1);
        let sib = ScalingInfoBase::profile(
            &cm,
            &paper_configs(),
            LinkSpec::nvlink_a800(),
            0.0,
            &mut rng,
        );
        for p in paper_configs() {
            assert!(
                sib.prefill_model(p).is_some(),
                "missing model for {}",
                p.label()
            );
            assert!(sib.saturation_tokens(p).is_some());
        }
        assert!(sib.decode_threshold(2).is_some());
    }

    #[test]
    fn fitted_model_matches_roofline_within_ten_percent() {
        // Figure 15: the analytical model stays within ~10% of measurements.
        let cm = CostModel::new(ModelConfig::lwm_1m_text());
        let mut rng = SimRng::seed(2);
        let configs = [
            ParallelConfig::new(4, 2),
            ParallelConfig::new(2, 4),
            ParallelConfig::new(1, 8),
        ];
        let sib = ScalingInfoBase::profile(&cm, &configs, LinkSpec::nvlink_a800(), 0.01, &mut rng);
        for p in configs {
            let model = sib.prefill_model(p).expect("profiled");
            let validation: Vec<(Vec<u64>, f64)> = [30_000u64, 80_000, 150_000, 300_000]
                .iter()
                .map(|&l| {
                    let lens = vec![l];
                    let t = cm.prefill_cost(&lens, p, LinkSpec::nvlink_a800()).total();
                    (lens, t)
                })
                .collect();
            let err = model.mean_relative_error(&validation);
            assert!(err < 0.10, "{}: mean relative error {err}", p.label());
        }
    }

    #[test]
    fn predict_prefill_falls_back_when_unprofiled() {
        let sib = ScalingInfoBase::new();
        let t = sib.predict_prefill(&[10_000], ParallelConfig::new(2, 4), || 42.0);
        assert_eq!(t, 42.0);
    }

    #[test]
    fn profile_grid_respects_context_window() {
        let small = ModelConfig::llama2_7b();
        let grid = ScalingInfoBase::default_profile_grid(&small);
        for lens in &grid {
            let total: u64 = lens.iter().sum();
            assert!(
                total <= small.max_context_len as u64 * 2,
                "grid entry exceeds context window badly"
            );
        }
    }
}
