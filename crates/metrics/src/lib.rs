//! # loong-metrics
//!
//! Metrics collection and aggregation for LoongServe-RS experiments.
//!
//! * [`record`] — per-request lifecycle records and the normalised latency
//!   metrics derived from them,
//! * [`latency`] — means, percentiles and latency summaries,
//! * [`slo`] — SLO specifications, the SLO rule and its per-class
//!   scaling, attainment and (P90) goodput,
//! * [`pressure`] — memory-pressure counters (preemptions, swap traffic),
//! * [`cache`] — prefix-cache counters (hit rate, reused tokens, saved
//!   prefill seconds, evictions),
//! * [`reliability`] — failure-injection KPIs: the whole-run reliability
//!   ledger (crashes, retries, re-prefilled tokens, MTTR) and windowed
//!   SLA/availability series,
//! * [`elasticity`] — autoscaling KPIs: the whole-run elasticity ledger
//!   (scale events, drains, shed-by-class, replica-seconds) and the
//!   headline SLO-goodput-per-replica-second metric,
//! * [`timeseries`] — binned event counters (e.g. scale-ups per 10 s),
//! * [`attribution`] — per-phase, per-class simulated-time attribution
//!   (the latency-breakdown denominator produced by the tracing tier),
//! * [`summary`] — per-run summaries and markdown comparison tables,
//! * [`fleet`] — fleet-level aggregation: merged metrics over every
//!   replica's records plus the per-replica breakdown.
//!
//! # Examples
//!
//! ```
//! use loong_metrics::prelude::*;
//! use loong_simcore::ids::RequestId;
//! use loong_simcore::time::SimTime;
//!
//! let record = RequestRecord {
//!     id: RequestId(0),
//!     arrival: SimTime::ZERO,
//!     input_len: 1000,
//!     output_len: 100,
//!     prefill_start: SimTime::from_secs(0.1),
//!     first_token: SimTime::from_secs(1.0),
//!     finish: SimTime::from_secs(6.0),
//!     preemptions: 0,
//!     class: Default::default(),
//! };
//! assert!(record.normalized_input_latency() <= 0.001);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod attribution;
pub mod cache;
pub mod elasticity;
pub mod fleet;
pub mod latency;
pub mod pressure;
pub mod record;
pub mod reliability;
pub mod slo;
pub mod summary;
pub mod timeseries;

pub use attribution::{PhaseSeconds, TimeAttribution};
pub use cache::CacheStats;
pub use elasticity::{slo_goodput_per_replica_second, ElasticityStats};
pub use fleet::FleetSummary;
pub use latency::{mean, percentile, LatencySummary};
pub use pressure::PressureStats;
pub use record::RequestRecord;
pub use reliability::{availability_windows, ReliabilityStats, SlaWindow};
pub use slo::{class_slo, goodput, SloPoint, SloSpec};
pub use summary::RunSummary;
pub use timeseries::{bin_index, BinnedCounter};

/// Convenient glob-import of the most commonly used types.
pub mod prelude {
    pub use crate::attribution::{PhaseSeconds, TimeAttribution};
    pub use crate::cache::CacheStats;
    pub use crate::elasticity::{slo_goodput_per_replica_second, ElasticityStats};
    pub use crate::fleet::FleetSummary;
    pub use crate::latency::{mean, percentile, LatencySummary};
    pub use crate::pressure::PressureStats;
    pub use crate::record::RequestRecord;
    pub use crate::reliability::{availability_windows, ReliabilityStats, SlaWindow};
    pub use crate::slo::{class_slo, goodput, SloPoint, SloSpec};
    pub use crate::summary::RunSummary;
    pub use crate::timeseries::{bin_index, BinnedCounter};
}
