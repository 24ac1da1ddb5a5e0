//! # loong-sched
//!
//! Scheduling policies for LoongServe-RS: the LoongServe global manager and
//! every baseline system used in the paper's evaluation.
//!
//! * [`types`] — the [`Scheduler`] trait, the view of system state
//!   schedulers observe, and the actions they emit,
//! * [`manager`] — the LoongServe global manager's four-step algorithm
//!   (dispatching, elastic instance allocation, DP batching, scaling plan
//!   generation; paper §5),
//! * [`baselines`] — every static-parallelism baseline as one
//!   [`BaselineScheduler`] over a per-system [`Layout`]: per-instance
//!   engines (vLLM-style static tensor parallelism, replicated instances),
//!   chunked prefill (DeepSpeed-MII / LightLLM SplitFuse), DistServe-style
//!   prefill–decode disaggregation, and one static TP×SP group,
//! * [`pressure`] — the [`PressureMode`] a system runs under and its
//!   memory-pressure policies: watermark-driven victim
//!   selection (preempt-and-recompute vs swap-to-host) and re-admission,
//! * [`router`] — the fleet tier's cluster router: one [`Router`] type over
//!   five deterministic policies (round-robin, join-shortest-queue,
//!   least-KV-load, power-of-two-choices, prefix affinity) plus the
//!   single-replica passthrough, assigning arriving requests to replicas,
//! * [`reliability`] — the dispatcher's failure handling: health-aware
//!   candidate sets, per-request retry budgets with exponential backoff,
//!   and a per-replica count/window circuit breaker,
//! * [`elastic`] — the elasticity tier's controllers: the target-tracking
//!   fleet [`Autoscaler`] and the saturation-triggered
//!   [`AdmissionController`] with class-priority shedding and hysteresis.
//!
//! # Examples
//!
//! ```
//! use loong_sched::prelude::*;
//!
//! let loongserve = LoongServeScheduler::new();
//! let vllm = BaselineScheduler::new("vLLM (TP=8)", Layout::PerInstance);
//! assert_eq!(loongserve.name(), "LoongServe");
//! assert!(vllm.name().contains("vLLM"));
//!
//! // Only the per-instance layout handles memory pressure.
//! let mii = BaselineScheduler::new(
//!     "DeepSpeed-MII",
//!     Layout::Chunked { chunk_tokens: Layout::DEFAULT_CHUNK_TOKENS },
//! );
//! assert!(mii.with_pressure(PressureMode::Recompute).is_err());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baselines;
pub mod elastic;
pub mod manager;
pub mod pressure;
pub mod reliability;
pub mod router;
pub mod types;

pub use baselines::{BaselineScheduler, Layout};
pub use elastic::{
    AdmissionConfig, AdmissionController, AdmissionDecision, Autoscaler, AutoscalerConfig,
    FleetSignals, ScaleDecision, ShedReason,
};
pub use manager::{LoongServeConfig, LoongServeScheduler};
pub use pressure::{pressure_actions, pressure_actions_with_rescue, PressureMode};
pub use reliability::{healthy_candidates, CircuitBreaker, CircuitBreakerConfig, RetryPolicy};
pub use router::{all_replicas, FleetLoadTracker, ReplicaLoad, RouteRequest, Router, RouterPolicy};
pub use types::{
    Action, DecodeRepeat, DecodingRequest, PendingRequest, ScalingEvent, ScalingEventKind,
    Scheduler, SchedulerView,
};

/// Convenient glob-import of the most commonly used types.
pub mod prelude {
    pub use crate::baselines::{BaselineScheduler, Layout};
    pub use crate::elastic::{
        AdmissionConfig, AdmissionController, AdmissionDecision, Autoscaler, AutoscalerConfig,
        FleetSignals, ScaleDecision, ShedReason,
    };
    pub use crate::manager::{LoongServeConfig, LoongServeScheduler};
    pub use crate::pressure::{pressure_actions, pressure_actions_with_rescue, PressureMode};
    pub use crate::reliability::{
        healthy_candidates, CircuitBreaker, CircuitBreakerConfig, RetryPolicy,
    };
    pub use crate::router::{
        all_replicas, FleetLoadTracker, ReplicaLoad, RouteRequest, Router, RouterPolicy,
    };
    pub use crate::types::{
        Action, DecodeRepeat, DecodingRequest, PendingRequest, ScalingEvent, ScalingEventKind,
        Scheduler, SchedulerView,
    };
}
