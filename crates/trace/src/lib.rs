//! # loong-trace: the observability tier
//!
//! Per-request lifecycle spans, fleet timeseries, and Perfetto export for
//! the LoongServe simulator — designed around two invariants:
//!
//! 1. **Observer inertness.** The execution stack emits into a
//!    [`TraceSink`]; sinks receive copies of already-computed values and
//!    influence nothing, so an armed-but-no-op sink reproduces every
//!    pinned golden digest bit for bit (proven by the
//!    `observability_properties` suite).
//! 2. **Bounded residency.** The [`TraceRecorder`] stays
//!    `O(sampled + bins + peak-open)` at the 1M-request regime:
//!    deterministic seeded per-request sampling bounds spans, streaming
//!    binned aggregation bounds series, and the [`TraceLedger`] proves
//!    both, with every overflow drop counted.
//!
//! Module map:
//! * [`sink`] — the [`TraceSink`] trait, [`NoopSink`], and the event
//!   vocabulary ([`SpanPhase`], [`Terminal`], [`AdmitInfo`], [`Gauges`]).
//! * [`recorder`] — [`TraceConfig`], [`TraceRecorder`], [`TraceLedger`],
//!   and the engine-lifetime merge protocol.
//! * [`series`] — always-on streaming aggregation ([`GaugeSeries`],
//!   [`ReplicaSeries`], [`FleetSeries`]).
//! * [`export`] — [`perfetto_json`] and [`series_csv`].

#![warn(missing_docs)]

pub mod export;
pub mod recorder;
pub mod series;
pub mod sink;

pub use export::{perfetto_json, series_csv};
pub use recorder::{InstantEvent, Span, TraceConfig, TraceLedger, TraceRecorder};
pub use series::{FleetSeries, GaugeSeries, ReplicaSeries};
pub use sink::{AdmitInfo, Gauges, NoopSink, SpanPhase, Terminal, TraceSink};

/// Convenience glob-import for examples and tests.
pub mod prelude {
    pub use crate::export::{perfetto_json, series_csv};
    pub use crate::recorder::{TraceConfig, TraceLedger, TraceRecorder};
    pub use crate::sink::{NoopSink, SpanPhase, Terminal, TraceSink};
}
