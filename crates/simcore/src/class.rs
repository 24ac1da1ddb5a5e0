//! Traffic service classes.
//!
//! The class is the per-request SLO tag the serving frontend keys on: the
//! elasticity tier's admission controller sheds by class under saturation
//! and per-class reporting scales the base SLO by
//! [`TrafficClass::slo_scale`]. The type lives in the simulation core so
//! both the workload layer (which tags requests) and the metrics layer
//! (whose per-request records carry the class through to reporting) can
//! share it without a dependency cycle.

use serde::{Deserialize, Serialize};

/// The service class a request arrives under.
///
/// Classes order by *strictness*: interactive traffic has the tightest
/// latency expectations and is shed last; best-effort (batch/long-document)
/// traffic tolerates the loosest latency and is shed first when the fleet
/// saturates. The class never changes what a request costs to serve — only
/// how the frontend treats it under overload and which SLO it is judged by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TrafficClass {
    /// Chat-style traffic (ShareGPT-shaped): tight SLO, shed last.
    Interactive,
    /// Multi-turn assistant sessions: intermediate SLO.
    Standard,
    /// Long-document / batch analysis (L-Eval-shaped): loose SLO, shed
    /// first.
    BestEffort,
}

impl TrafficClass {
    /// Every class, in shed order (first element is shed first).
    pub fn all() -> [TrafficClass; 3] {
        [
            TrafficClass::BestEffort,
            TrafficClass::Standard,
            TrafficClass::Interactive,
        ]
    }

    /// Multiplier applied to the base [`SloSpec`] when judging this class:
    /// interactive requests are held to the base SLO, standard traffic to
    /// 2× and best-effort to 4× — looser classes trade latency for
    /// admission under load.
    ///
    /// [`SloSpec`]: https://docs.rs/loong-metrics
    pub fn slo_scale(&self) -> f64 {
        match self {
            TrafficClass::Interactive => 1.0,
            TrafficClass::Standard => 2.0,
            TrafficClass::BestEffort => 4.0,
        }
    }

    /// The report label.
    pub fn label(&self) -> &'static str {
        match self {
            TrafficClass::Interactive => "interactive",
            TrafficClass::Standard => "standard",
            TrafficClass::BestEffort => "best-effort",
        }
    }
}

impl Default for TrafficClass {
    /// Single-shot requests default to interactive — the class of every
    /// pre-elasticity trace, which keeps existing generators and goldens
    /// unchanged.
    fn default() -> Self {
        TrafficClass::Interactive
    }
}
