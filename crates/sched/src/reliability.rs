//! Reliability policies for the fleet tier: retry budgets with exponential
//! backoff, a per-replica circuit breaker, and candidate-set construction.
//!
//! The failure *schedule* lives in `loong-workload` (it is seeded sim-clock
//! event generation, like arrivals); this module owns the *policy* side the
//! dispatcher runs when those failures strike: which replicas are routable
//! right now ([`healthy_candidates`]), whether a casualty gets another
//! attempt and when ([`RetryPolicy`]), and when a crash-looping replica is
//! taken out of rotation even though the schedule says it is up
//! ([`CircuitBreaker`]).
//!
//! Everything here is deterministic and driven purely by the sim clock:
//! identical failure histories produce identical breaker decisions and
//! identical backoff instants, which is what lets the reliability proptests
//! pin outcome digests per seed.

use loong_simcore::ids::ReplicaId;
use loong_simcore::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Per-request retry budget with exponential backoff on the sim clock.
///
/// A request whose replica crashes mid-flight (or that was queued on the
/// crashed replica) is a *casualty*. Under `RetryPolicy::none()` every
/// casualty is terminally failed; otherwise it is re-submitted to the fleet
/// frontend `backoff(attempt)` after the crash, re-enters admission on a
/// (usually different) replica, and re-prefills from scratch — up to
/// `max_retries` times, after which it fails terminally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum number of re-submissions per request (0 = fail fast).
    pub max_retries: u32,
    /// Backoff before the first retry, in sim-seconds.
    pub backoff_base_s: f64,
    /// Multiplier applied per subsequent retry (2.0 = classic doubling).
    pub backoff_factor: f64,
}

impl RetryPolicy {
    /// No retries: every casualty fails terminally.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff_base_s: 0.0,
            backoff_factor: 2.0,
        }
    }

    /// A doubling backoff starting at `backoff_base_s`.
    pub fn exponential(max_retries: u32, backoff_base_s: f64) -> Self {
        assert!(backoff_base_s >= 0.0, "backoff must be non-negative");
        RetryPolicy {
            max_retries,
            backoff_base_s,
            backoff_factor: 2.0,
        }
    }

    /// Whether a request that has already been re-submitted `retries_used`
    /// times gets another attempt.
    pub fn allows(&self, retries_used: u32) -> bool {
        retries_used < self.max_retries
    }

    /// Backoff before retry number `attempt` (1-based: the first retry is
    /// attempt 1), i.e. `base * factor^(attempt-1)`.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        assert!(attempt >= 1, "retry attempts are 1-based");
        let exp = (attempt - 1).min(62);
        SimDuration::from_secs(self.backoff_base_s * self.backoff_factor.powi(exp as i32))
    }
}

/// Configuration of the per-replica count/window circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircuitBreakerConfig {
    /// Failures within the window that trip the breaker.
    pub failure_threshold: u32,
    /// Length of the sliding failure-counting window, in sim-seconds.
    pub window_s: f64,
    /// How long a tripped breaker keeps the replica out of rotation, in
    /// sim-seconds.
    pub cooldown_s: f64,
}

impl CircuitBreakerConfig {
    /// A breaker tripping on `failure_threshold` failures within
    /// `window_s`, cooling down for `cooldown_s`.
    pub fn new(failure_threshold: u32, window_s: f64, cooldown_s: f64) -> Self {
        assert!(failure_threshold >= 1, "threshold must be at least 1");
        assert!(window_s > 0.0, "window must be positive");
        assert!(cooldown_s >= 0.0, "cooldown must be non-negative");
        CircuitBreakerConfig {
            failure_threshold,
            window_s,
            cooldown_s,
        }
    }
}

/// Per-replica count/window circuit breaker.
///
/// Tracks recent failures per replica on the sim clock. When a replica
/// accumulates `failure_threshold` failures within the trailing `window_s`
/// seconds, the breaker *opens*: the replica is excluded from routing for
/// `cooldown_s` seconds even if the failure schedule says it has recovered
/// — the dispatcher's defence against crash-looping hardware it cannot
/// introspect. Opening clears the failure history, so each open requires a
/// fresh run of failures. The breaker closes by timeout alone (at
/// `open-instant + cooldown_s`), the half-open probe being subsumed by
/// normal routing in a discrete-event setting.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: CircuitBreakerConfig,
    /// Failure instants within the current window, oldest first.
    failures: Vec<VecDeque<SimTime>>,
    /// Instant each replica's breaker closes again (ZERO = never opened).
    open_until: Vec<SimTime>,
    opens: u64,
}

impl CircuitBreaker {
    /// Creates a closed breaker for a fleet of `replicas`.
    pub fn new(config: CircuitBreakerConfig, replicas: usize) -> Self {
        assert!(replicas > 0, "a fleet needs at least one replica");
        CircuitBreaker {
            config,
            failures: vec![VecDeque::new(); replicas],
            open_until: vec![SimTime::ZERO; replicas],
            opens: 0,
        }
    }

    /// Records a failure attributed to `replica` at `now`. Returns `true`
    /// when this failure trips the breaker open.
    pub fn record_failure(&mut self, replica: ReplicaId, now: SimTime) -> bool {
        let window = SimDuration::from_secs(self.config.window_s);
        let history = &mut self.failures[replica.index()];
        history.push_back(now);
        while let Some(&oldest) = history.front() {
            if now.saturating_since(oldest) > window {
                history.pop_front();
            } else {
                break;
            }
        }
        if history.len() as u32 >= self.config.failure_threshold {
            history.clear();
            self.open_until[replica.index()] = now + SimDuration::from_secs(self.config.cooldown_s);
            self.opens += 1;
            true
        } else {
            false
        }
    }

    /// Whether `replica` is excluded from routing at `now` (open on
    /// `[trip, trip + cooldown)`).
    pub fn is_open(&self, replica: ReplicaId, now: SimTime) -> bool {
        now < self.open_until[replica.index()]
    }

    /// The instant `replica`'s breaker closes (ZERO if it never opened).
    pub fn open_until(&self, replica: ReplicaId) -> SimTime {
        self.open_until[replica.index()]
    }

    /// Total number of times any replica's breaker tripped open.
    pub fn opens(&self) -> u64 {
        self.opens
    }
}

/// The routable candidate set of an `n`-replica fleet: every replica for
/// which `excluded` returns `false`, in strictly ascending id order — the
/// shape [`Router::route`](crate::router::Router::route) requires.
///
/// May be empty (all replicas down); the caller owns the fallback, because
/// only it knows when each replica becomes routable again.
pub fn healthy_candidates(n: usize, mut excluded: impl FnMut(ReplicaId) -> bool) -> Vec<ReplicaId> {
    (0..n)
        .map(ReplicaId::from)
        .filter(|&r| !excluded(r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_policy_budget_and_backoff() {
        let policy = RetryPolicy::exponential(3, 0.5);
        assert!(policy.allows(0));
        assert!(policy.allows(2));
        assert!(!policy.allows(3));
        assert_eq!(policy.backoff(1), SimDuration::from_secs(0.5));
        assert_eq!(policy.backoff(2), SimDuration::from_secs(1.0));
        assert_eq!(policy.backoff(3), SimDuration::from_secs(2.0));
    }

    #[test]
    fn fail_fast_policy_allows_nothing() {
        let policy = RetryPolicy::none();
        assert!(!policy.allows(0));
    }

    #[test]
    fn breaker_trips_only_within_the_window() {
        let mut breaker = CircuitBreaker::new(CircuitBreakerConfig::new(2, 10.0, 30.0), 2);
        let r = ReplicaId(1);
        // Two failures 20s apart never coexist in a 10s window.
        assert!(!breaker.record_failure(r, SimTime::from_secs(0.0)));
        assert!(!breaker.record_failure(r, SimTime::from_secs(20.0)));
        assert!(!breaker.is_open(r, SimTime::from_secs(21.0)));
        // A second failure 5s after the last one trips it.
        assert!(breaker.record_failure(r, SimTime::from_secs(25.0)));
        assert_eq!(breaker.opens(), 1);
        assert!(breaker.is_open(r, SimTime::from_secs(25.0)));
        assert!(breaker.is_open(r, SimTime::from_secs(54.9)));
        // Closes exactly at trip + cooldown.
        assert!(!breaker.is_open(r, SimTime::from_secs(55.0)));
        assert_eq!(breaker.open_until(r), SimTime::from_secs(55.0));
        // The other replica was never affected.
        assert!(!breaker.is_open(ReplicaId(0), SimTime::from_secs(26.0)));
    }

    #[test]
    fn opening_clears_history_so_each_open_needs_a_fresh_run() {
        let mut breaker = CircuitBreaker::new(CircuitBreakerConfig::new(2, 100.0, 1.0), 1);
        let r = ReplicaId(0);
        assert!(!breaker.record_failure(r, SimTime::from_secs(1.0)));
        assert!(breaker.record_failure(r, SimTime::from_secs(2.0)));
        // One more failure inside the old window must NOT re-trip alone.
        assert!(!breaker.record_failure(r, SimTime::from_secs(3.0)));
        assert!(breaker.record_failure(r, SimTime::from_secs(4.0)));
        assert_eq!(breaker.opens(), 2);
    }

    #[test]
    fn healthy_candidates_is_sorted_and_filtered() {
        let down = [ReplicaId(0), ReplicaId(2)];
        assert_eq!(
            healthy_candidates(4, |r| down.contains(&r)),
            vec![ReplicaId(1), ReplicaId(3)]
        );
        assert!(healthy_candidates(2, |_| true).is_empty());
        assert_eq!(
            healthy_candidates(2, |_| false),
            vec![ReplicaId(0), ReplicaId(1)]
        );
    }
}
