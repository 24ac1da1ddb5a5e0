//! # loongserve
//!
//! LoongServe-RS: a full reproduction of *"LoongServe: Efficiently Serving
//! Long-Context Large Language Models with Elastic Sequence Parallelism"*
//! (SOSP 2024) on a deterministic simulated GPU cluster.
//!
//! The crate wires the workspace together:
//!
//! * [`engine`] — the discrete-event serving engine that runs any
//!   [`Scheduler`](loong_sched::types::Scheduler) over a workload trace,
//! * [`fleet`] — the fleet tier: N independent replicas behind a
//!   deterministic cluster router
//!   ([`RouterPolicy`](loong_sched::router::RouterPolicy)), run along one
//!   path, [`FleetEngine::run`], over a [`FleetPlan`],
//! * [`reliability`] — the plan's failure injection: crash boundaries,
//!   health-aware routing, retry/backoff, circuit breaking and the
//!   exactly-once casualty ledger,
//! * [`elastic`] — the plan's overload control: SLO-driven fleet
//!   autoscaling with provisioning delays, drain-before-retire scale-down
//!   (no request killed by a scale event), and hysteretic admission
//!   control that sheds best-effort traffic first,
//! * [`systems`] — the systems under comparison (LoongServe, vLLM,
//!   DeepSpeed-MII, LightLLM SplitFuse, DistServe, and the parallelism
//!   ablations) with their paper configurations,
//! * [`experiment`] — rate sweeps, goodput curves and multi-system
//!   comparisons,
//! * [`report`] — markdown/CSV rendering used by the figure-reproduction
//!   benches.
//!
//! See `DESIGN.md` at the repository root for the substitution rationale
//! (simulated substrate instead of real A800 GPUs) and `EXPERIMENTS.md` for
//! paper-vs-measured results.
//!
//! # Examples
//!
//! Serve a small mixed workload with LoongServe and print the summary:
//!
//! ```
//! use loongserve::prelude::*;
//!
//! let system = SystemUnderTest::paper_single_node(SystemKind::LoongServe);
//! let workload = WorkloadSpec::Dataset(DatasetKind::ShareGpt);
//! let trace = workload.generate(5.0, 20, 42);
//! let (summary, outcome) = system.run(&trace, 5.0, &SloSpec::default_for_lwm());
//! assert_eq!(summary.completed + outcome.unfinished + outcome.rejected.len(), 20);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod elastic;
pub mod engine;
pub mod experiment;
pub mod fleet;
pub mod reliability;
pub mod report;
pub mod systems;

pub use elastic::{
    ElasticConfig, ElasticFleetOutcome, FleetScaleEvent, FleetScaleKind, ShedRequest,
};
pub use engine::{EngineConfig, EngineSignals, HostSwapConfig, RunOutcome, ServingEngine};
pub use experiment::{compare_systems, sweep_system, SweepConfig, SweepResult, WorkloadSpec};
pub use fleet::{
    FleetConfig, FleetEngine, FleetFootprint, FleetOutcome, FleetPlan, FleetRun, ReplicaOutcome,
};
pub use loong_sched::pressure::PressureMode;
pub use loong_trace::{
    perfetto_json, series_csv, InstantEvent, NoopSink, Span, SpanPhase, Terminal, TraceConfig,
    TraceLedger, TraceRecorder, TraceSink,
};
pub use reliability::FailedRequest;
pub use systems::{SystemKind, SystemUnderTest};

/// Convenient glob-import of the most commonly used types across the whole
/// workspace.
pub mod prelude {
    pub use crate::elastic::{
        ElasticConfig, ElasticFleetOutcome, FleetScaleEvent, FleetScaleKind, ShedRequest,
    };
    pub use crate::engine::{
        EngineConfig, EngineSignals, HostSwapConfig, RunOutcome, ServingEngine,
    };
    pub use crate::experiment::{
        compare_systems, sweep_system, SweepConfig, SweepResult, WorkloadSpec,
    };
    pub use crate::fleet::{
        FleetConfig, FleetEngine, FleetFootprint, FleetOutcome, FleetPlan, FleetRun, ReplicaOutcome,
    };
    pub use crate::reliability::FailedRequest;
    pub use crate::report;
    pub use crate::systems::{SystemKind, SystemUnderTest};
    pub use loong_cluster::prelude::*;
    pub use loong_esp::prelude::*;
    pub use loong_kvcache::prelude::*;
    pub use loong_metrics::prelude::*;
    pub use loong_model::prelude::*;
    pub use loong_sched::prelude::*;
    pub use loong_simcore::ids::{GpuId, InstanceId, NodeId, ReplicaId, RequestId};
    pub use loong_simcore::{ProfileCounters, ProfileReport, SelfProfile};
    pub use loong_simcore::{SimDuration, SimRng, SimTime};
    pub use loong_trace::prelude::*;
    pub use loong_workload::prelude::*;
}
