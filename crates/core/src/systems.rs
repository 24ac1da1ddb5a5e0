//! The serving systems under comparison.
//!
//! A [`SystemKind`] bundles a scheduling policy with the parallelism shape
//! it requires (the tensor-parallel degree of the elastic instances), so a
//! single call can build the exact configuration the paper evaluates:
//! LoongServe with TP=2 and up to ESP=4 on one node, vLLM with TP=8,
//! DistServe with two TP=4 halves, and so on.

use crate::engine::{EngineConfig, HostSwapConfig, RunOutcome, ServingEngine};
use loong_cluster::topology::ClusterSpec;
use loong_kvcache::prefix::PrefixCacheConfig;
use loong_metrics::slo::SloSpec;
use loong_metrics::summary::RunSummary;
use loong_model::attention::AttentionCostPolicy;
use loong_model::config::ModelConfig;
use loong_sched::baselines::{BaselineScheduler, Layout};
use loong_sched::manager::{LoongServeConfig, LoongServeScheduler};
use loong_sched::pressure::PressureConfig;
use loong_sched::types::Scheduler;
use loong_simcore::ids::InstanceId;
use loong_simcore::time::SimDuration;
use loong_workload::trace::Trace;

/// The serving systems reproduced from the paper's evaluation (§7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// LoongServe with elastic sequence parallelism (TP=2, ESP up to the
    /// instance count).
    LoongServe,
    /// LoongServe with elastic scale-up disabled (the Figure 13a ablation).
    LoongServeNoScaleUp,
    /// vLLM-style static tensor parallelism over the whole node (TP=8).
    Vllm,
    /// DeepSpeed-MII with Dynamic SplitFuse chunked prefill (TP=8).
    DeepSpeedMii,
    /// LightLLM with SplitFuse and a workload-tuned chunk size (TP=8).
    LightLlmSplitFuse,
    /// DistServe-style prefill–decode disaggregation (two TP=4 halves).
    DistServe,
    /// Static hybrid parallelism: TP=2 with a fixed SP over all instances
    /// (the "w/o ESP (TP=2, SP=4)" ablation).
    StaticHybrid,
    /// Four independent TP=2 replicas (the "w/o ESP (TP=2) x 4" ablation).
    Replicated,
}

impl SystemKind {
    /// All systems compared in Figure 10.
    pub fn figure10_systems() -> Vec<SystemKind> {
        vec![
            SystemKind::LoongServe,
            SystemKind::Vllm,
            SystemKind::DeepSpeedMii,
            SystemKind::LightLlmSplitFuse,
            SystemKind::DistServe,
        ]
    }

    /// The parallelism ablations compared in Figure 12.
    pub fn figure12_systems() -> Vec<SystemKind> {
        vec![
            SystemKind::LoongServe,
            SystemKind::Vllm,
            SystemKind::StaticHybrid,
            SystemKind::Replicated,
        ]
    }

    /// The report label, matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::LoongServe => "LoongServe",
            SystemKind::LoongServeNoScaleUp => "LoongServe w/o Elastic Scale-up",
            SystemKind::Vllm => "vLLM (TP=8)",
            SystemKind::DeepSpeedMii => "DeepSpeed-MII (Dynamic SplitFuse)",
            SystemKind::LightLlmSplitFuse => "LightLLM w/ SplitFuse",
            SystemKind::DistServe => "DistServe (Prefill-Decoding Disaggregation)",
            SystemKind::StaticHybrid => "LoongServe w/o ESP (TP=2, SP=4)",
            SystemKind::Replicated => "LoongServe w/o ESP (TP=2) x 4",
        }
    }

    /// The tensor-parallel degree of each elastic instance for this system
    /// on a node with `gpus_per_node` GPUs.
    pub fn tp(&self, gpus_per_node: usize) -> usize {
        match self {
            SystemKind::LoongServe
            | SystemKind::LoongServeNoScaleUp
            | SystemKind::StaticHybrid
            | SystemKind::Replicated => 2,
            SystemKind::Vllm | SystemKind::DeepSpeedMii | SystemKind::LightLlmSplitFuse => {
                gpus_per_node
            }
            SystemKind::DistServe => (gpus_per_node / 2).max(1),
        }
    }

    /// Builds the scheduler for this system without memory-pressure
    /// handling. `trace` supplies workload statistics for policies that tune
    /// themselves per dataset (the SplitFuse chunk size, per §7.1).
    pub fn build_scheduler(
        &self,
        instances: &[InstanceId],
        trace: Option<&Trace>,
    ) -> Box<dyn Scheduler + Send> {
        self.scheduler(instances, trace, PressureMode::Off)
            .expect("every system builds without pressure handling")
    }

    /// Builds the scheduler for this system under `pressure`: the one
    /// construction path. Each static system is a [`BaselineScheduler`]
    /// over its [`Layout`], named by [`SystemKind::label`]. Errs, naming
    /// the system, when `pressure` is not [`PressureMode::Off`] and the
    /// system has no pressure-aware scheduler (the chunked-prefill,
    /// disaggregation and static-hybrid baselines), and when DistServe has
    /// fewer than two instances to split.
    pub fn scheduler(
        &self,
        instances: &[InstanceId],
        trace: Option<&Trace>,
        pressure: PressureMode,
    ) -> Result<Box<dyn Scheduler + Send>, String> {
        let pressure = pressure.config();
        let layout = match self {
            SystemKind::LoongServe | SystemKind::LoongServeNoScaleUp => {
                let mut scheduler = LoongServeScheduler::with_config(LoongServeConfig {
                    enable_scale_up: *self == SystemKind::LoongServe,
                });
                if let Some(config) = pressure {
                    scheduler = scheduler.with_pressure(config);
                }
                return Ok(Box::new(scheduler));
            }
            SystemKind::Vllm | SystemKind::Replicated => Layout::PerInstance,
            SystemKind::DeepSpeedMii => Layout::Chunked {
                chunk_tokens: Layout::DEFAULT_CHUNK_TOKENS,
            },
            SystemKind::LightLlmSplitFuse => {
                let (mean_in, mean_out) = trace
                    .map(|t| {
                        let s = t.stats();
                        (s.mean_input_len.max(1.0), s.mean_output_len.max(1.0))
                    })
                    .unwrap_or((8_192.0, 256.0));
                Layout::Chunked {
                    chunk_tokens: Layout::ideal_chunk_tokens(mean_in, mean_out),
                }
            }
            SystemKind::DistServe => {
                Layout::disaggregated(instances).map_err(|e| format!("{}: {e}", self.label()))?
            }
            SystemKind::StaticHybrid => Layout::OneGroup,
        };
        let scheduler = BaselineScheduler::new(self.label(), layout);
        Ok(Box::new(match pressure {
            Some(config) => scheduler.with_pressure(config)?,
            None => scheduler,
        }))
    }
}

/// How a system handles KV memory pressure.
///
/// `Off` is the pre-subsystem behaviour: conservative full-output
/// reservation at admission, so the pool can never be exhausted and the
/// golden digests stay bit-for-bit. The other two modes admit optimistically
/// and trade memory under pressure — for compute (`Recompute`, the
/// vLLM-style baseline) or for PCIe bandwidth (`SwapToHost`, which also
/// enables the host-DRAM tier).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PressureMode {
    /// No pressure handling (conservative admission; the default).
    Off,
    /// Preempt-and-recompute victims under pressure.
    Recompute,
    /// Swap victims to the host-DRAM tier and restore them later.
    SwapToHost,
}

impl PressureMode {
    fn config(&self) -> Option<PressureConfig> {
        match self {
            PressureMode::Off => None,
            PressureMode::Recompute => Some(PressureConfig::recompute()),
            PressureMode::SwapToHost => Some(PressureConfig::swap_to_host()),
        }
    }
}

/// A fully specified experiment: system + cluster + model.
#[derive(Debug, Clone)]
pub struct SystemUnderTest {
    /// Which system to run.
    pub kind: SystemKind,
    /// The simulated cluster.
    pub cluster: ClusterSpec,
    /// The model being served.
    pub model: ModelConfig,
    /// Seed for the engine's internal randomness.
    pub seed: u64,
    /// Memory-pressure handling.
    pub pressure: PressureMode,
    /// Per-instance KV capacity override for overload experiments.
    pub kv_capacity_override: Option<u64>,
    /// Hard cap on simulated time (a watchdog for overload experiments);
    /// `None` runs to completion.
    pub max_sim_time: Option<SimDuration>,
    /// The prefix-cache tier (KV reuse across conversation turns). `None`
    /// — the default — keeps runs bit-for-bit on the pre-tier path.
    pub prefix_cache: Option<PrefixCacheConfig>,
    /// Attention-cost policy priced by the run's cost model. `Dense` — the
    /// default — keeps runs bit-for-bit on the pre-policy path.
    pub attention: AttentionCostPolicy,
}

impl SystemUnderTest {
    /// The paper's single-node testbed for a given system.
    pub fn paper_single_node(kind: SystemKind) -> Self {
        SystemUnderTest {
            kind,
            cluster: ClusterSpec::single_node_a800(8),
            model: ModelConfig::lwm_1m_text(),
            seed: 0x5eed,
            pressure: PressureMode::Off,
            kv_capacity_override: None,
            max_sim_time: None,
            prefix_cache: None,
            attention: AttentionCostPolicy::Dense,
        }
    }

    /// Enables a memory-pressure mode (see [`PressureMode`]).
    pub fn with_pressure(mut self, pressure: PressureMode) -> Self {
        self.pressure = pressure;
        self
    }

    /// Enables the prefix-cache tier with the given configuration.
    pub fn with_prefix_cache(mut self, config: PrefixCacheConfig) -> Self {
        self.prefix_cache = Some(config);
        self
    }

    /// Selects the attention-cost policy for the run.
    pub fn with_attention(mut self, attention: AttentionCostPolicy) -> Self {
        self.attention = attention;
        self
    }

    /// Overrides the per-instance KV capacity (overload experiments).
    pub fn with_kv_capacity(mut self, capacity: u64) -> Self {
        self.kv_capacity_override = Some(capacity);
        self
    }

    /// Caps simulated time (a watchdog for overload experiments).
    pub fn with_max_sim_time(mut self, cap: SimDuration) -> Self {
        self.max_sim_time = Some(cap);
        self
    }

    /// The paper's two-node testbed (Figure 11) for a given system.
    pub fn paper_two_node(kind: SystemKind) -> Self {
        SystemUnderTest {
            cluster: ClusterSpec::two_node_a800(),
            ..Self::paper_single_node(kind)
        }
    }

    /// Checks everything a run would otherwise panic on mid-way: the
    /// cluster, that the system's TP divides the GPUs per node, the model,
    /// the attention policy, the prefix cache, and that the system has a
    /// scheduler for its pressure mode on this cluster.
    pub fn validate(&self) -> Result<(), String> {
        self.cluster.validate()?;
        let gpus = self.cluster.gpus_per_node;
        let tp = self.kind.tp(gpus);
        if !gpus.is_multiple_of(tp) {
            let label = self.kind.label();
            return Err(format!(
                "{label}: tp={tp} must divide the {gpus} GPUs per node"
            ));
        }
        self.model.validate()?;
        self.attention.validate()?;
        if let Some(prefix) = &self.prefix_cache {
            prefix.validate()?;
        }
        self.scheduler(None).map(drop)
    }

    /// Builds the serving engine for this system.
    ///
    /// # Panics
    ///
    /// Panics when the pressure mode needs a pressure-aware scheduler the
    /// system does not have (see [`SystemKind::scheduler`]).
    pub fn build_engine(&self, trace: Option<&Trace>) -> ServingEngine {
        let scheduler: Box<dyn Scheduler> = self.scheduler(trace).unwrap_or_else(|e| panic!("{e}"));
        ServingEngine::new(self.engine_config(), scheduler)
    }

    /// [`SystemUnderTest::build_engine`] with a `Send` scheduler: a fleet's
    /// replica engines move between pool workers. The fleet checks the
    /// scheduler builds before its run starts.
    pub(crate) fn build_send_engine(
        &self,
        trace: Option<&Trace>,
    ) -> ServingEngine<dyn Scheduler + Send> {
        let scheduler = self.scheduler(trace).expect("checked before the fleet run");
        ServingEngine::new(self.engine_config(), scheduler)
    }

    fn engine_config(&self) -> EngineConfig {
        // The host tier exists only under the swap mode; half the node's
        // DRAM is assumed available for swapped KV.
        let host_swap = match self.pressure {
            PressureMode::SwapToHost => Some(HostSwapConfig::from_cluster(
                &self.cluster,
                &self.model,
                0.5,
            )),
            _ => None,
        };
        EngineConfig {
            cluster: self.cluster.clone(),
            tp: self.kind.tp(self.cluster.gpus_per_node),
            model: self.model.clone(),
            workspace_fraction: 0.10,
            sib_noise: 0.01,
            seed: self.seed,
            max_sim_time: self.max_sim_time,
            host_swap,
            kv_capacity_override: self.kv_capacity_override,
            prefix_cache: self.prefix_cache,
            attention: self.attention,
        }
    }

    /// This system's scheduler; errs as [`SystemKind::scheduler`] does.
    pub(crate) fn scheduler(
        &self,
        trace: Option<&Trace>,
    ) -> Result<Box<dyn Scheduler + Send>, String> {
        // The scheduler needs the instance list, which depends on tp.
        let tp = self.kind.tp(self.cluster.gpus_per_node);
        let instances = loong_esp::instance::InstanceRegistry::build(&self.cluster, tp).all_ids();
        self.kind.scheduler(&instances, trace, self.pressure)
    }

    /// Runs this system over a trace and summarises the outcome.
    pub fn run(&self, trace: &Trace, request_rate: f64, slo: &SloSpec) -> (RunSummary, RunOutcome) {
        let mut engine = self.build_engine(Some(trace));
        let outcome = engine.run(trace);
        let summary = RunSummary::from_records(
            self.kind.label(),
            trace.label.clone(),
            request_rate,
            &outcome.records,
            slo,
        )
        .with_pressure(outcome.pressure)
        .with_cache(outcome.cache);
        (summary, outcome)
    }

    /// Runs this system with the engine observed by `recorder` and the
    /// recorder's per-phase time attribution attached to the summary.
    /// Identical decision-for-decision to [`SystemUnderTest::run`]: the
    /// recorder only receives copies of already-made decisions, so the
    /// returned [`RunOutcome`] is bit-for-bit the untraced one.
    pub fn run_traced(
        &self,
        trace: &Trace,
        request_rate: f64,
        slo: &SloSpec,
        recorder: &mut loong_trace::TraceRecorder,
    ) -> (RunSummary, RunOutcome) {
        let mut engine = self.build_engine(Some(trace));
        let outcome = engine.run_traced(trace, recorder);
        recorder.finalize(outcome.sim_time);
        let summary = RunSummary::from_records(
            self.kind.label(),
            trace.label.clone(),
            request_rate,
            &outcome.records,
            slo,
        )
        .with_pressure(outcome.pressure)
        .with_cache(outcome.cache)
        .with_attribution(recorder.attribution());
        (summary, outcome)
    }
}
