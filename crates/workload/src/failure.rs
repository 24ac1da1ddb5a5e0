//! Replica failure schedules: crash and recovery events on the sim clock.
//!
//! A fleet serving heavy traffic loses replicas. A [`FailureSchedule`] is
//! the deterministic script of those losses: for each replica, a set of
//! disjoint `[crash, recover)` downtime intervals, either written out by
//! hand (targeted experiments, property tests) or drawn from a seeded
//! MTBF/MTTR process (availability sweeps). The schedule is pure data on
//! the simulated clock — the reliability tier in `loongserve` interprets
//! it: a crashing replica loses its device KV, host-swap tier and prefix
//! cache wholesale, and every in-flight or queued request surfaces back to
//! the fleet for health-aware re-routing.
//!
//! Like arrival processes, schedules are seeded and replayable: the same
//! seed yields the same crashes, so a failure experiment is as reproducible
//! as the trace it runs over. An empty schedule is the explicit "tier
//! armed, nothing fails" configuration that must stay bit-for-bit on the
//! failure-free goldens.

use loong_simcore::distributions::Exponential;
use loong_simcore::ids::ReplicaId;
use loong_simcore::rng::SimRng;
use loong_simcore::time::{SimDuration, SimTime};

/// One replica failure: the replica is down on `[crash, recover)`.
///
/// A crash is total: the replica loses all device KV, any host-swapped KV
/// and its whole prefix cache. Work completing exactly at `crash` still
/// counts (the transfer finished before the machine died); a request
/// arriving exactly at `crash` does not — the replica is already down.
/// At `recover` the replica rejoins empty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureEvent {
    /// The replica that fails.
    pub replica: ReplicaId,
    /// When it crashes.
    pub crash: SimTime,
    /// When it rejoins the fleet (empty), strictly after `crash`.
    pub recover: SimTime,
}

impl FailureEvent {
    /// Creates a failure event.
    ///
    /// # Panics
    ///
    /// Panics unless `recover > crash`.
    pub fn new(replica: ReplicaId, crash: SimTime, recover: SimTime) -> Self {
        assert!(
            recover > crash,
            "recovery at {recover} must be strictly after the crash at {crash}"
        );
        FailureEvent {
            replica,
            crash,
            recover,
        }
    }

    /// Length of the outage.
    pub fn downtime(&self) -> SimDuration {
        self.recover.saturating_since(self.crash)
    }
}

/// A deterministic script of replica crashes and recoveries.
///
/// Events are kept sorted by `(crash, replica)` and validated: one
/// replica's downtime intervals may not overlap (a machine cannot crash
/// while it is already down), though back-to-back `recover == next crash`
/// is allowed (it rejoins for an instant and dies again).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailureSchedule {
    events: Vec<FailureEvent>,
}

impl FailureSchedule {
    /// The empty schedule: the reliability tier armed, nothing failing.
    pub fn none() -> Self {
        FailureSchedule { events: Vec::new() }
    }

    /// Builds a schedule from explicit events (targeted experiments and
    /// property tests). Events are sorted by `(crash, replica)`.
    ///
    /// # Panics
    ///
    /// Panics if any replica's downtime intervals overlap.
    pub fn from_events(mut events: Vec<FailureEvent>) -> Self {
        events.sort_by(|a, b| {
            a.crash
                .cmp(&b.crash)
                .then(a.replica.cmp(&b.replica))
                .then(a.recover.cmp(&b.recover))
        });
        let schedule = FailureSchedule { events };
        schedule.validate();
        schedule
    }

    /// Draws a schedule from a seeded MTBF/MTTR renewal process: each
    /// replica independently alternates exponential up-times (mean
    /// `mtbf_s`) and exponential repair times (mean `mttr_s`), starting
    /// up at time zero, until the horizon. Identical seeds yield identical
    /// schedules; each replica draws from its own RNG substream, so adding
    /// a replica never perturbs the others' crashes.
    ///
    /// # Panics
    ///
    /// Panics unless both means are positive and the horizon is non-zero.
    pub fn generate(
        replicas: usize,
        horizon: SimDuration,
        mtbf_s: f64,
        mttr_s: f64,
        seed: u64,
    ) -> Self {
        assert!(
            mtbf_s > 0.0 && mttr_s > 0.0,
            "MTBF and MTTR must be positive"
        );
        assert!(
            horizon > SimDuration::ZERO,
            "the failure horizon must be positive"
        );
        let up = Exponential::new(1.0 / mtbf_s);
        let repair = Exponential::new(1.0 / mttr_s);
        let mut root = SimRng::seed(seed);
        let mut events = Vec::new();
        for r in 0..replicas {
            let mut rng = root.fork(&format!("failures-replica-{r}"));
            let mut t = SimTime::ZERO;
            loop {
                let crash = t + SimDuration::from_secs(up.sample(&mut rng));
                if crash.saturating_since(SimTime::ZERO) >= horizon {
                    break;
                }
                let recover = crash + SimDuration::from_secs(repair.sample(&mut rng).max(1e-6));
                events.push(FailureEvent::new(ReplicaId::from(r), crash, recover));
                t = recover;
            }
        }
        Self::from_events(events)
    }

    /// The events, sorted by `(crash, replica)`.
    pub fn events(&self) -> &[FailureEvent] {
        &self.events
    }

    /// True if nothing ever fails.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total downtime scripted across all replicas.
    pub fn total_downtime(&self) -> SimDuration {
        self.events
            .iter()
            .fold(SimDuration::ZERO, |acc, e| acc + e.downtime())
    }

    /// The largest replica id named by any event, if any — fleets validate
    /// this against their replica count.
    pub fn max_replica(&self) -> Option<ReplicaId> {
        self.events.iter().map(|e| e.replica).max()
    }

    /// True if `replica` is down at `t` (down on `[crash, recover)`).
    pub fn is_down(&self, replica: ReplicaId, t: SimTime) -> bool {
        self.events
            .iter()
            .any(|e| e.replica == replica && t >= e.crash && t < e.recover)
    }

    /// The earliest time `>= t` at which `replica` is up: `t` itself if
    /// the replica is up, otherwise the end of the covering outage.
    pub fn next_up(&self, replica: ReplicaId, t: SimTime) -> SimTime {
        let mut t = t;
        // Back-to-back outages (`recover == next crash`) chain; events are
        // sorted by crash time, so one forward pass resolves them.
        for e in &self.events {
            if e.replica == replica && t >= e.crash && t < e.recover {
                t = e.recover;
            }
        }
        t
    }

    /// The distinct crash instants across the whole fleet, ascending.
    /// These are the reliability tier's era boundaries: every routing or
    /// retry decision between two consecutive crash instants sees the same
    /// set of discovered failures.
    pub fn crash_times(&self) -> Vec<SimTime> {
        let mut times: Vec<SimTime> = self.events.iter().map(|e| e.crash).collect();
        times.sort();
        times.dedup();
        times
    }

    fn validate(&self) {
        for pair in self.events.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if a.replica == b.replica {
                assert!(
                    b.crash >= a.recover,
                    "replica {} crashes at {} while still down until {}",
                    a.replica,
                    b.crash,
                    a.recover
                );
            }
        }
        // The windows check above only sees adjacent events of the same
        // replica when they sort together; a full per-replica pass catches
        // interleaved fleets.
        let mut replicas: Vec<ReplicaId> = self.events.iter().map(|e| e.replica).collect();
        replicas.sort();
        replicas.dedup();
        for r in replicas {
            let mut last_recover = SimTime::ZERO;
            for e in self.events.iter().filter(|e| e.replica == r) {
                assert!(
                    e.crash >= last_recover,
                    "replica {r} crashes at {} while still down until {last_recover}",
                    e.crash
                );
                last_recover = e.recover;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn manual_schedule_reports_downtime_intervals() {
        let schedule = FailureSchedule::from_events(vec![
            FailureEvent::new(ReplicaId(1), t(10.0), t(15.0)),
            FailureEvent::new(ReplicaId(0), t(5.0), t(8.0)),
        ]);
        assert_eq!(schedule.events().len(), 2);
        // Sorted by crash time.
        assert_eq!(schedule.events()[0].replica, ReplicaId(0));
        assert!(schedule.is_down(ReplicaId(0), t(5.0)));
        assert!(schedule.is_down(ReplicaId(0), t(7.999)));
        assert!(!schedule.is_down(ReplicaId(0), t(8.0)));
        assert!(!schedule.is_down(ReplicaId(0), t(4.999)));
        assert!(!schedule.is_down(ReplicaId(1), t(5.0)));
        assert_eq!(schedule.total_downtime().as_secs(), 8.0);
        assert_eq!(schedule.max_replica(), Some(ReplicaId(1)));
        assert_eq!(schedule.crash_times(), vec![t(5.0), t(10.0)]);
    }

    #[test]
    fn next_up_chains_back_to_back_outages() {
        let schedule = FailureSchedule::from_events(vec![
            FailureEvent::new(ReplicaId(0), t(5.0), t(8.0)),
            FailureEvent::new(ReplicaId(0), t(8.0), t(12.0)),
        ]);
        assert_eq!(schedule.next_up(ReplicaId(0), t(6.0)), t(12.0));
        assert_eq!(schedule.next_up(ReplicaId(0), t(12.0)), t(12.0));
        assert_eq!(schedule.next_up(ReplicaId(0), t(1.0)), t(1.0));
        assert_eq!(schedule.next_up(ReplicaId(1), t(6.0)), t(6.0));
    }

    #[test]
    fn up_segments_partition_the_timeline() {
        let schedule = FailureSchedule::from_events(vec![
            FailureEvent::new(ReplicaId(0), t(5.0), t(8.0)),
            FailureEvent::new(ReplicaId(0), t(20.0), t(21.0)),
        ]);
        // Up on [0, 5), [8, 20) and from 21 on; down in between.
        for (at, down) in [
            (0.0, false),
            (4.9, false),
            (5.0, true),
            (7.9, true),
            (8.0, false),
            (19.9, false),
            (20.0, true),
            (21.0, false),
            (1e6, false),
        ] {
            assert_eq!(schedule.is_down(ReplicaId(0), t(at)), down, "at {at}");
        }
        assert_eq!(schedule.next_up(ReplicaId(0), t(5.0)), t(8.0));
        assert_eq!(schedule.next_up(ReplicaId(0), t(20.0)), t(21.0));
        // An untouched replica is never down.
        assert!(!schedule.is_down(ReplicaId(1), t(5.0)));
    }

    #[test]
    #[should_panic(expected = "still down")]
    fn overlapping_outages_are_rejected() {
        let _ = FailureSchedule::from_events(vec![
            FailureEvent::new(ReplicaId(0), t(5.0), t(10.0)),
            FailureEvent::new(ReplicaId(0), t(7.0), t(12.0)),
        ]);
    }

    #[test]
    #[should_panic(expected = "strictly after")]
    fn zero_length_outages_are_rejected() {
        let _ = FailureEvent::new(ReplicaId(0), t(5.0), t(5.0));
    }

    #[test]
    fn generated_schedules_are_seed_deterministic_and_valid() {
        let a = FailureSchedule::generate(4, SimDuration::from_secs(500.0), 120.0, 20.0, 42);
        let b = FailureSchedule::generate(4, SimDuration::from_secs(500.0), 120.0, 20.0, 42);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "500 s at MTBF 120 s should crash something");
        for e in a.events() {
            assert!(e.recover > e.crash);
            assert!(e.crash < SimTime::ZERO + SimDuration::from_secs(500.0));
        }
        let c = FailureSchedule::generate(4, SimDuration::from_secs(500.0), 120.0, 20.0, 43);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn generated_replica_substreams_are_stable_under_fleet_growth() {
        let four = FailureSchedule::generate(4, SimDuration::from_secs(400.0), 100.0, 15.0, 7);
        let six = FailureSchedule::generate(6, SimDuration::from_secs(400.0), 100.0, 15.0, 7);
        for r in 0..4usize {
            let id = ReplicaId::from(r);
            let of = |s: &FailureSchedule| -> Vec<FailureEvent> {
                s.events()
                    .iter()
                    .copied()
                    .filter(|e| e.replica == id)
                    .collect()
            };
            assert_eq!(of(&four), of(&six), "replica {r} events moved");
        }
    }

    #[test]
    fn empty_schedule_is_inert() {
        let schedule = FailureSchedule::none();
        assert!(schedule.is_empty());
        assert!(!schedule.is_down(ReplicaId(0), t(100.0)));
        assert_eq!(schedule.crash_times(), Vec::<SimTime>::new());
        assert_eq!(schedule.max_replica(), None);
        assert_eq!(schedule.total_downtime(), SimDuration::ZERO);
    }
}
