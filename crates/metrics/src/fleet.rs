//! Fleet-level metric aggregation.
//!
//! A fleet run produces one set of request records per replica. The
//! fleet-level metrics the paper's deployment story cares about — aggregate
//! latency distributions, SLO attainment, trace throughput — must be
//! computed over the **merged** records (a per-replica mean of means would
//! mis-weight unevenly loaded replicas), while capacity questions need the
//! per-replica breakdown. [`FleetSummary`] carries both.

use crate::cache::CacheStats;
use crate::elasticity::ElasticityStats;
use crate::pressure::PressureStats;
use crate::record::RequestRecord;
use crate::reliability::{ReliabilityStats, SlaWindow};
use crate::slo::SloSpec;
use crate::summary::RunSummary;

/// Aggregated metrics of one fleet run: the merged view plus a per-replica
/// breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Metrics over the union of every replica's records. Makespan — and
    /// therefore throughput — spans the whole fleet: earliest arrival to
    /// latest completion across replicas.
    pub fleet: RunSummary,
    /// Metrics of each replica over its own records, in replica-id order.
    pub per_replica: Vec<RunSummary>,
    /// Whole-run reliability counters. All-zero unless a failure schedule
    /// actually struck (armed-but-idle leaves no trace).
    pub reliability: ReliabilityStats,
    /// Time-resolved availability: the run cut into fixed windows, each
    /// with its completed/failed resolution counts. Empty unless attached
    /// by a reliability run.
    pub sla_windows: Vec<SlaWindow>,
    /// Whole-run elasticity counters. Replica-seconds and the active-size
    /// bounds accrue on every fleet run; the scale and shed counters stay
    /// zero unless a scale event or shed decision actually fired.
    pub elasticity: ElasticityStats,
}

impl FleetSummary {
    /// Builds a fleet summary from per-replica record sets (replica-id
    /// order, borrowed — nothing is copied except into the one merged
    /// aggregation). `system` and `workload` label the merged summary;
    /// replica summaries get `workload · replica i/N`.
    ///
    /// `request_rate` is the rate offered to the whole fleet; each
    /// replica's summary reports its share of it, weighted by the
    /// replica's fraction of the merged completed records — under a skewed
    /// routing policy an idle replica reports zero, not `rate / N`.
    pub fn from_replica_records(
        system: &str,
        workload: &str,
        request_rate: f64,
        replica_records: &[&[RequestRecord]],
        slo: &SloSpec,
    ) -> Self {
        let replicas = replica_records.len();
        let merged: Vec<RequestRecord> = replica_records
            .iter()
            .flat_map(|records| records.iter().copied())
            .collect();
        let fleet = RunSummary::from_records(system, workload, request_rate, &merged, slo);
        let total = merged.len();
        let per_replica = replica_records
            .iter()
            .enumerate()
            .map(|(i, records)| {
                let share = if total == 0 {
                    0.0
                } else {
                    records.len() as f64 / total as f64
                };
                RunSummary::from_records(
                    system,
                    format!("{workload} · replica {i}/{replicas}"),
                    request_rate * share,
                    records,
                    slo,
                )
            })
            .collect();
        FleetSummary {
            fleet,
            per_replica,
            reliability: ReliabilityStats::default(),
            sla_windows: Vec::new(),
            elasticity: ElasticityStats::default(),
        }
    }

    /// Attaches per-replica memory-pressure counters (replica-id order) to
    /// the rollup: each replica summary gets its own record and the merged
    /// summary gets the fleet-wide accumulation.
    ///
    /// # Panics
    ///
    /// Panics if the slice length does not match the replica count.
    pub fn attach_pressure(&mut self, per_replica: &[PressureStats]) {
        assert_eq!(
            per_replica.len(),
            self.per_replica.len(),
            "one pressure record per replica"
        );
        let mut merged = PressureStats::default();
        for (summary, stats) in self.per_replica.iter_mut().zip(per_replica) {
            summary.pressure = *stats;
            merged.merge(stats);
        }
        self.fleet.pressure = merged;
    }

    /// Attaches per-replica prefix-cache counters (replica-id order) to the
    /// rollup, mirroring [`FleetSummary::attach_pressure`]: each replica
    /// summary gets its own record and the merged summary gets the
    /// fleet-wide accumulation.
    ///
    /// # Panics
    ///
    /// Panics if the slice length does not match the replica count.
    pub fn attach_cache(&mut self, per_replica: &[CacheStats]) {
        assert_eq!(
            per_replica.len(),
            self.per_replica.len(),
            "one cache record per replica"
        );
        let mut merged = CacheStats::default();
        for (summary, stats) in self.per_replica.iter_mut().zip(per_replica) {
            summary.cache = *stats;
            merged.merge(stats);
        }
        self.fleet.cache = merged;
    }

    /// Attaches the whole-run reliability ledger and the time-resolved
    /// availability windows to the rollup. Reliability is a fleet-scope
    /// phenomenon — a casualty's retries hop replicas — so unlike pressure
    /// and cache there is no per-replica split.
    pub fn attach_reliability(&mut self, stats: ReliabilityStats, windows: Vec<SlaWindow>) {
        self.reliability = stats;
        self.sla_windows = windows;
    }

    /// Attaches the whole-run elasticity ledger to the rollup. Like
    /// reliability, elasticity is fleet-scope (scale and shed decisions
    /// look at the whole fleet), so there is no per-replica split.
    pub fn attach_elasticity(&mut self, stats: ElasticityStats) {
        self.elasticity = stats;
    }

    /// Success ratio over the whole run: completed over resolved requests,
    /// from the attached availability windows (1.0 when none resolved —
    /// matching [`SlaWindow::success_ratio`]).
    pub fn success_ratio(&self) -> f64 {
        let completed: u64 = self.sla_windows.iter().map(|w| w.completed).sum();
        let failed: u64 = self.sla_windows.iter().map(|w| w.failed).sum();
        if completed + failed == 0 {
            1.0
        } else {
            completed as f64 / (completed + failed) as f64
        }
    }

    /// Number of replicas in the fleet.
    pub fn replicas(&self) -> usize {
        self.per_replica.len()
    }

    /// Completed-request imbalance across replicas: the ratio of the most
    /// to the least loaded replica's completed count (1.0 = perfectly even;
    /// infinity if some replica completed nothing while another did).
    pub fn completion_imbalance(&self) -> f64 {
        let max = self.per_replica.iter().map(|s| s.completed).max();
        let min = self.per_replica.iter().map(|s| s.completed).min();
        match (max, min) {
            (Some(max), Some(min)) if max > 0 => max as f64 / (min as f64).max(f64::MIN_POSITIVE),
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loong_simcore::ids::RequestId;
    use loong_simcore::time::SimTime;

    fn record(id: u64, arrival: f64, finish: f64) -> RequestRecord {
        RequestRecord {
            id: RequestId(id),
            arrival: SimTime::from_secs(arrival),
            input_len: 100,
            output_len: 10,
            prefill_start: SimTime::from_secs(arrival + 0.1),
            first_token: SimTime::from_secs(arrival + 0.5),
            finish: SimTime::from_secs(finish),
            preemptions: 0,
            class: Default::default(),
        }
    }

    fn slo() -> SloSpec {
        SloSpec {
            per_token_s: 10.0,
            input_s: 10.0,
            output_s: 10.0,
        }
    }

    #[test]
    fn fleet_makespan_spans_all_replicas() {
        let r0 = [record(0, 0.0, 2.0)];
        let r1 = [record(1, 1.0, 9.0), record(2, 2.0, 4.0)];
        let s = FleetSummary::from_replica_records("fleet", "w", 2.0, &[&r0, &r1], &slo());
        assert_eq!(s.replicas(), 2);
        assert_eq!(s.fleet.completed, 3);
        // Earliest arrival 0.0 on replica 0, latest finish 9.0 on replica 1.
        assert!((s.fleet.makespan_s - 9.0).abs() < 1e-9);
        assert_eq!(s.per_replica[0].completed, 1);
        assert_eq!(s.per_replica[1].completed, 2);
        assert!((s.completion_imbalance() - 2.0).abs() < 1e-9);
        assert!(s.per_replica[1].workload.contains("replica 1/2"));
        // Per-replica offered rates are completed-weighted shares of the
        // fleet rate, and they sum back to it.
        assert!((s.per_replica[0].request_rate - 2.0 / 3.0).abs() < 1e-9);
        assert!((s.per_replica[1].request_rate - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_replicas_do_not_poison_the_merge() {
        let r0 = [record(0, 0.0, 2.0)];
        let s = FleetSummary::from_replica_records("fleet", "w", 1.0, &[&r0, &[]], &slo());
        assert_eq!(s.fleet.completed, 1);
        assert_eq!(s.per_replica[1].completed, 0);
        // A replica that served nothing reports zero offered rate, not a
        // phantom 1/N share.
        assert_eq!(s.per_replica[0].request_rate, 1.0);
        assert_eq!(s.per_replica[1].request_rate, 0.0);
        assert!(
            s.completion_imbalance() > 1e9,
            "max/0 is effectively infinite"
        );
    }

    #[test]
    fn pressure_rollup_sums_counters_and_maxes_watermark() {
        let r0 = [record(0, 0.0, 2.0)];
        let r1 = [record(1, 0.0, 2.0)];
        let mut s = FleetSummary::from_replica_records("fleet", "w", 1.0, &[&r0, &r1], &slo());
        assert!(s.fleet.pressure.is_zero());
        let p0 = PressureStats {
            preemptions: 2,
            swap_out_bytes: 5.0,
            max_outstanding_swapped_tokens: 100,
            ..PressureStats::default()
        };
        let p1 = PressureStats {
            swap_out_events: 1,
            swap_out_bytes: 3.0,
            max_outstanding_swapped_tokens: 400,
            ..PressureStats::default()
        };
        s.attach_pressure(&[p0, p1]);
        assert_eq!(s.per_replica[0].pressure, p0);
        assert_eq!(s.per_replica[1].pressure, p1);
        assert_eq!(s.fleet.pressure.preemptions, 2);
        assert_eq!(s.fleet.pressure.swap_out_events, 1);
        assert_eq!(s.fleet.pressure.swap_out_bytes, 8.0);
        assert_eq!(s.fleet.pressure.max_outstanding_swapped_tokens, 400);
    }

    #[test]
    fn reliability_rollup_attaches_ledger_and_windows() {
        let r0 = [record(0, 0.0, 2.0)];
        let mut s = FleetSummary::from_replica_records("fleet", "w", 1.0, &[&r0], &slo());
        assert!(s.reliability.is_zero());
        assert!(s.sla_windows.is_empty());
        assert_eq!(s.success_ratio(), 1.0);
        let stats = ReliabilityStats {
            crashes: 1,
            downtime_s: 10.0,
            retries_exhausted: 1,
            ..ReliabilityStats::default()
        };
        let windows = vec![
            SlaWindow {
                start_s: 0.0,
                end_s: 10.0,
                completed: 3,
                failed: 1,
            },
            SlaWindow {
                start_s: 10.0,
                end_s: 20.0,
                completed: 1,
                failed: 0,
            },
        ];
        s.attach_reliability(stats, windows);
        assert_eq!(s.reliability.crashes, 1);
        assert_eq!(s.sla_windows.len(), 2);
        assert!((s.success_ratio() - 4.0 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn success_ratio_conventions_are_pinned() {
        let r0 = [record(0, 0.0, 2.0)];
        let mut s = FleetSummary::from_replica_records("fleet", "w", 1.0, &[&r0], &slo());
        // No windows attached (a run the reliability tier never touched):
        // nothing resolved, so availability is identically 1.0, not 0/0.
        assert!(s.sla_windows.is_empty());
        assert_eq!(s.success_ratio(), 1.0);
        // Windows attached but all empty (idle horizon): still 1.0.
        s.attach_reliability(
            ReliabilityStats::default(),
            vec![SlaWindow {
                start_s: 0.0,
                end_s: 10.0,
                completed: 0,
                failed: 0,
            }],
        );
        assert_eq!(s.success_ratio(), 1.0);
        // Every resolution a failure: the ratio pins to exactly 0.0.
        s.attach_reliability(
            ReliabilityStats::default(),
            vec![SlaWindow {
                start_s: 0.0,
                end_s: 10.0,
                completed: 0,
                failed: 4,
            }],
        );
        assert_eq!(s.success_ratio(), 0.0);
    }

    #[test]
    fn elasticity_rollup_attaches_ledger() {
        let r0 = [record(0, 0.0, 2.0)];
        let mut s = FleetSummary::from_replica_records("fleet", "w", 1.0, &[&r0], &slo());
        assert!(s.elasticity.is_zero(), "armed-but-idle leaves no trace");
        let stats = ElasticityStats {
            scale_up_events: 1,
            replica_seconds: 40.0,
            shed_best_effort: 3,
            ..ElasticityStats::default()
        };
        s.attach_elasticity(stats);
        assert_eq!(s.elasticity.shed_total(), 3);
        assert_eq!(s.elasticity.replica_seconds, 40.0);
    }

    #[test]
    fn uniform_fleet_has_unit_imbalance() {
        let r0 = [record(0, 0.0, 2.0)];
        let r1 = [record(1, 0.0, 2.0)];
        let s = FleetSummary::from_replica_records("fleet", "w", 1.0, &[&r0, &r1], &slo());
        assert_eq!(s.completion_imbalance(), 1.0);
    }

    #[test]
    fn all_empty_fleet_is_all_zero() {
        let s = FleetSummary::from_replica_records("fleet", "w", 1.0, &[&[], &[]], &slo());
        assert_eq!(s.fleet.completed, 0);
        assert_eq!(s.per_replica[0].request_rate, 0.0);
        assert_eq!(s.completion_imbalance(), 1.0);
    }
}
