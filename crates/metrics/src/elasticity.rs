//! Elasticity KPIs for autoscaled fleet runs.
//!
//! Two things make an autoscaled fleet worth running: it should serve the
//! same SLO-compliant work with fewer **replica-seconds** than any static
//! fleet, and its scale events should be boring — drains that finish, cold
//! starts that arrive, shedding that only ever touches the classes it is
//! supposed to. [`ElasticityStats`] is the whole-run ledger of both, and
//! [`slo_goodput_per_replica_second`] is the headline efficiency metric the
//! `autoscale` bench gates on: SLO-met completions per replica-second,
//! directly comparable between an autoscaled fleet and static fleets of
//! every size.

use crate::record::RequestRecord;
use crate::slo::SloSpec;

/// Whole-run elasticity counters of one fleet run.
///
/// Every run accrues capacity: `replica_seconds` and the
/// `min/max_active_replicas` bounds are set even when no scale event or
/// shed decision ever fires. The event counters (scale-ups, drains,
/// provisioning, sheds) stay zero for an armed-but-idle tier.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ElasticityStats {
    /// Scale-up decisions that activated at least one replica.
    pub scale_up_events: u64,
    /// Scale-down decisions that started at least one drain.
    pub scale_down_events: u64,
    /// Drains that ran to completion (the replica retired).
    pub drains_completed: u64,
    /// Total time replicas spent draining, in sim-seconds.
    pub total_drain_s: f64,
    /// Longest single drain, in sim-seconds.
    pub max_drain_s: f64,
    /// Replica-seconds of capacity the run paid for: the sum over replicas
    /// of their active span (activation to retirement, or to the end of the
    /// run). The denominator of the headline efficiency metric.
    pub replica_seconds: f64,
    /// Smallest number of simultaneously active replicas observed at a
    /// control boundary.
    pub min_active_replicas: u64,
    /// Largest number of simultaneously active replicas observed at a
    /// control boundary.
    pub max_active_replicas: u64,
    /// Interactive-class requests shed at admission.
    pub shed_interactive: u64,
    /// Standard-class requests shed at admission.
    pub shed_standard: u64,
    /// Best-effort-class requests shed at admission.
    pub shed_best_effort: u64,
    /// Requests rejected because their estimated queueing delay already
    /// exceeded the class deadline (a subset of the shed counts).
    pub deadline_rejections: u64,
    /// Total time scale-ups spent provisioning (decision to routable), in
    /// sim-seconds.
    pub provisioning_s: f64,
}

impl ElasticityStats {
    /// Whether every counter is zero — the default ledger. A fleet run's
    /// ledger never is: it always accrues replica-seconds.
    pub fn is_zero(&self) -> bool {
        *self == ElasticityStats::default()
    }

    /// Requests shed at admission, over all classes.
    pub fn shed_total(&self) -> u64 {
        self.shed_interactive + self.shed_standard + self.shed_best_effort
    }
}

/// The headline efficiency metric of the elasticity tier: completions that
/// met the SLO, per replica-second of capacity paid for. An autoscaled
/// fleet justifies itself by beating every static fleet size on this number
/// over a diurnal trace. Returns 0.0 when no capacity was paid for
/// (`replica_seconds <= 0`) — an unpaid fleet serves nothing.
pub fn slo_goodput_per_replica_second(
    records: &[RequestRecord],
    slo: &SloSpec,
    replica_seconds: f64,
) -> f64 {
    if replica_seconds <= 0.0 {
        return 0.0;
    }
    let met = records.iter().filter(|r| slo.met_by(r)).count();
    met as f64 / replica_seconds
}

#[cfg(test)]
mod tests {
    use super::*;
    use loong_simcore::ids::RequestId;
    use loong_simcore::time::SimTime;

    fn record(id: u64, per_token: f64) -> RequestRecord {
        RequestRecord {
            id: RequestId(id),
            arrival: SimTime::ZERO,
            input_len: 50,
            output_len: 50,
            prefill_start: SimTime::ZERO,
            first_token: SimTime::from_secs(per_token * 25.0),
            finish: SimTime::from_secs(per_token * 100.0),
            preemptions: 0,
            class: Default::default(),
        }
    }

    fn slo() -> SloSpec {
        SloSpec {
            per_token_s: 1.0,
            input_s: 1.0,
            output_s: 2.0,
        }
    }

    #[test]
    fn zero_stats_report_zero() {
        let s = ElasticityStats::default();
        assert!(s.is_zero());
        assert_eq!(s.shed_total(), 0);
    }

    #[test]
    fn derived_ratios_follow_the_counters() {
        let s = ElasticityStats {
            scale_up_events: 2,
            scale_down_events: 2,
            drains_completed: 2,
            total_drain_s: 30.0,
            max_drain_s: 20.0,
            shed_interactive: 1,
            shed_standard: 2,
            shed_best_effort: 7,
            ..ElasticityStats::default()
        };
        assert!(!s.is_zero());
        assert_eq!(s.shed_total(), 10);
    }

    #[test]
    fn goodput_counts_only_slo_met_completions() {
        // Two records meet the SLO, one misses it; 50 replica-seconds.
        let records = [record(0, 0.5), record(1, 0.9), record(2, 5.0)];
        let g = slo_goodput_per_replica_second(&records, &slo(), 50.0);
        assert!((g - 2.0 / 50.0).abs() < 1e-12);
    }

    #[test]
    fn goodput_is_zero_without_capacity() {
        let records = [record(0, 0.5)];
        assert_eq!(slo_goodput_per_replica_second(&records, &slo(), 0.0), 0.0);
        assert_eq!(slo_goodput_per_replica_second(&records, &slo(), -1.0), 0.0);
        assert_eq!(slo_goodput_per_replica_second(&[], &slo(), 10.0), 0.0);
    }
}
