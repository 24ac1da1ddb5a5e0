//! Reliability and availability KPIs for fleet runs under failure
//! injection.
//!
//! Two views of the same run. [`ReliabilityStats`] is the whole-run ledger:
//! how many crashes struck, what they cost in retries, re-prefilled tokens
//! and terminal failures, and how fast replicas came back
//! (mean-time-to-recovery). [`SlaWindow`] is the operator's time-resolved
//! view: the sim horizon cut into fixed windows, each reporting the success
//! ratio of the requests that *resolved* (completed or terminally failed)
//! inside it — the availability series an SLA dashboard would plot, and the
//! shape in which an outage is visible as a dip rather than averaged away.

use crate::record::RequestRecord;
use loong_simcore::time::SimTime;

/// Whole-run reliability counters of one fleet run.
///
/// All-zero when the reliability tier is armed but no failure fires —
/// mirroring [`PressureStats`](crate::pressure::PressureStats), an armed
/// but idle tier leaves no trace in the rollup.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReliabilityStats {
    /// Replica crash events that struck during the run.
    pub crashes: u64,
    /// Total replica downtime in sim-seconds (summed over replicas).
    pub downtime_s: f64,
    /// Request attempts killed by a crash (in-flight or queued on the
    /// crashed replica). One request can contribute several.
    pub failed_attempts: u64,
    /// Re-submissions scheduled under the retry budget.
    pub retries_scheduled: u64,
    /// Requests that exhausted their retry budget and failed terminally.
    pub retries_exhausted: u64,
    /// Prompt tokens prefilled *again* because of crash re-submissions:
    /// the sum of `input_len` over scheduled retries. The headline cost of
    /// a failure under long contexts.
    pub re_prefilled_tokens: u64,
    /// Requests that lost at least one attempt to a crash but eventually
    /// completed.
    pub recovered_requests: u64,
    /// Times a replica's circuit breaker tripped open.
    pub breaker_opens: u64,
}

impl ReliabilityStats {
    /// Whether every counter is zero — a run no failure touched.
    pub fn is_zero(&self) -> bool {
        *self == ReliabilityStats::default()
    }

    /// Accumulates `other` into `self` (fleet-level rollup).
    pub fn merge(&mut self, other: &ReliabilityStats) {
        self.crashes += other.crashes;
        self.downtime_s += other.downtime_s;
        self.failed_attempts += other.failed_attempts;
        self.retries_scheduled += other.retries_scheduled;
        self.retries_exhausted += other.retries_exhausted;
        self.re_prefilled_tokens += other.re_prefilled_tokens;
        self.recovered_requests += other.recovered_requests;
        self.breaker_opens += other.breaker_opens;
    }

    /// Mean time-to-recovery in sim-seconds: average outage length over
    /// the crashes that struck (0 when none did).
    pub fn mean_time_to_recovery_s(&self) -> f64 {
        if self.crashes == 0 {
            0.0
        } else {
            self.downtime_s / self.crashes as f64
        }
    }
}

/// One availability window: the requests that *resolved* — completed or
/// terminally failed — within `[start_s, end_s)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaWindow {
    /// Window start on the sim clock, in seconds (inclusive).
    pub start_s: f64,
    /// Window end on the sim clock, in seconds (exclusive).
    pub end_s: f64,
    /// Requests that completed inside the window (by finish time).
    pub completed: u64,
    /// Requests that terminally failed inside the window.
    pub failed: u64,
}

impl SlaWindow {
    /// Success ratio of the window: completed over resolved. A window in
    /// which nothing resolved reports 1.0 — an idle service is up, and the
    /// convention keeps a zero-failure run's availability identically 1.0
    /// in every window.
    pub fn success_ratio(&self) -> f64 {
        let resolved = self.completed + self.failed;
        if resolved == 0 {
            1.0
        } else {
            self.completed as f64 / resolved as f64
        }
    }
}

/// Cuts the run into fixed `window_s`-second windows and buckets every
/// resolution: completions by record finish time, terminal failures by the
/// instant the retry budget ran out. Windows tile `[0, horizon)` where the
/// horizon is the latest resolution instant; an empty run yields no
/// windows.
///
/// # Panics
///
/// Panics unless `window_s` is positive.
pub fn availability_windows(
    window_s: f64,
    records: &[RequestRecord],
    failures: &[SimTime],
) -> Vec<SlaWindow> {
    assert!(window_s > 0.0, "window must be positive");
    let horizon = records
        .iter()
        .map(|r| r.finish)
        .chain(failures.iter().copied())
        .max()
        .map(|t| t.as_secs());
    let Some(horizon) = horizon else {
        return Vec::new();
    };
    let count = (horizon / window_s).floor() as usize + 1;
    let mut windows: Vec<SlaWindow> = (0..count)
        .map(|i| SlaWindow {
            start_s: i as f64 * window_s,
            end_s: (i + 1) as f64 * window_s,
            completed: 0,
            failed: 0,
        })
        .collect();
    let index = |t: SimTime| ((t.as_secs() / window_s).floor() as usize).min(count - 1);
    for record in records {
        windows[index(record.finish)].completed += 1;
    }
    for &failure in failures {
        windows[index(failure)].failed += 1;
    }
    windows
}

#[cfg(test)]
mod tests {
    use super::*;
    use loong_simcore::ids::RequestId;

    fn record(id: u64, finish: f64) -> RequestRecord {
        RequestRecord {
            id: RequestId(id),
            arrival: SimTime::ZERO,
            input_len: 100,
            output_len: 10,
            prefill_start: SimTime::from_secs(0.1),
            first_token: SimTime::from_secs(0.5),
            finish: SimTime::from_secs(finish),
            preemptions: 0,
            class: Default::default(),
        }
    }

    #[test]
    fn zero_stats_report_zero_and_merge_accumulates() {
        let mut a = ReliabilityStats::default();
        assert!(a.is_zero());
        assert_eq!(a.mean_time_to_recovery_s(), 0.0);
        let b = ReliabilityStats {
            crashes: 2,
            downtime_s: 30.0,
            failed_attempts: 3,
            retries_scheduled: 2,
            retries_exhausted: 1,
            re_prefilled_tokens: 4_000,
            recovered_requests: 1,
            breaker_opens: 1,
        };
        a.merge(&b);
        a.merge(&b);
        assert!(!a.is_zero());
        assert_eq!(a.crashes, 4);
        assert_eq!(a.re_prefilled_tokens, 8_000);
        assert!((a.mean_time_to_recovery_s() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn windows_tile_the_run_and_bucket_resolutions() {
        let records = [record(0, 5.0), record(1, 12.0), record(2, 14.9)];
        let failures = [SimTime::from_secs(13.0)];
        let windows = availability_windows(10.0, &records, &failures);
        assert_eq!(windows.len(), 2);
        assert_eq!((windows[0].completed, windows[0].failed), (1, 0));
        assert_eq!((windows[1].completed, windows[1].failed), (2, 1));
        assert_eq!(windows[0].success_ratio(), 1.0);
        assert!((windows[1].success_ratio() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(windows[1].start_s, 10.0);
        assert_eq!(windows[1].end_s, 20.0);
    }

    #[test]
    fn idle_windows_count_as_available() {
        // One completion at t=25 leaves windows 0 and 1 empty: both must
        // report availability 1.0, not 0/0.
        let windows = availability_windows(10.0, &[record(0, 25.0)], &[]);
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].success_ratio(), 1.0);
        assert_eq!(windows[1].success_ratio(), 1.0);
        assert_eq!(windows[2].completed, 1);
    }

    #[test]
    fn empty_run_has_no_windows() {
        assert!(availability_windows(10.0, &[], &[]).is_empty());
    }

    #[test]
    fn mttr_conventions_are_pinned() {
        // Zero crashes: MTTR is 0.0 by convention, never 0/0.
        let none = ReliabilityStats::default();
        assert_eq!(none.mean_time_to_recovery_s(), 0.0);
        // A crash that never recovered within the run: its outage clamps to
        // the horizon, so downtime can legitimately be 0 (crash at the very
        // end). MTTR must stay finite — 0.0, not NaN.
        let at_horizon = ReliabilityStats {
            crashes: 1,
            downtime_s: 0.0,
            ..ReliabilityStats::default()
        };
        let mttr = at_horizon.mean_time_to_recovery_s();
        assert!(mttr.is_finite());
        assert_eq!(mttr, 0.0);
        // Attempts with zero successes leave the ledger's derived values
        // finite too: all counters, no ratios that can divide by zero.
        let hopeless = ReliabilityStats {
            crashes: 2,
            downtime_s: 50.0,
            failed_attempts: 5,
            retries_scheduled: 3,
            retries_exhausted: 3,
            recovered_requests: 0,
            ..ReliabilityStats::default()
        };
        assert!((hopeless.mean_time_to_recovery_s() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn failures_only_runs_still_produce_windows() {
        // No completions at all — every resolution is a terminal failure.
        // The horizon comes from the failure instants and every window's
        // success ratio pins to 0.0 (or 1.0 where nothing resolved).
        let failures = [SimTime::from_secs(5.0), SimTime::from_secs(25.0)];
        let windows = availability_windows(10.0, &[], &failures);
        assert_eq!(windows.len(), 3);
        assert_eq!((windows[0].completed, windows[0].failed), (0, 1));
        assert_eq!(windows[0].success_ratio(), 0.0);
        assert_eq!(windows[1].success_ratio(), 1.0, "idle window is up");
        assert_eq!((windows[2].completed, windows[2].failed), (0, 1));
    }
}
