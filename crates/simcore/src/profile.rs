//! Wall-clock self-profiling counters for the simulator itself.
//!
//! The simulator's *outputs* live on the sim clock; this module measures
//! the simulator's *throughput* on the host clock: scheduling points
//! executed, scheduler calls made at them, events popped, and pool jobs
//! completed per wall-second.
//! Counters are process-global relaxed atomics, bumped unconditionally on
//! the hot paths (traced and untraced runs pay the identical few-ns cost,
//! so self-profiling never skews tracing-overhead comparisons), and read
//! by differencing snapshots:
//!
//! ```
//! use loong_simcore::profile::SelfProfile;
//!
//! let profile = SelfProfile::start();
//! // ... run simulations ...
//! let report = profile.report();
//! assert!(report.wall_s >= 0.0);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static SCHED_POINTS: AtomicU64 = AtomicU64::new(0);
static SCHED_CALLS: AtomicU64 = AtomicU64::new(0);
static EVENTS_POPPED: AtomicU64 = AtomicU64::new(0);
static POOL_JOBS: AtomicU64 = AtomicU64::new(0);

/// Adds `n` executed scheduling points. Called by the engine run loop.
#[inline]
pub fn add_sched_points(n: u64) {
    SCHED_POINTS.fetch_add(n, Ordering::Relaxed);
}

/// Adds `n` scheduler calls. Called by the engine run loop, which calls
/// the scheduler at every scheduling point but those where it re-issues a
/// decode the scheduler certified would repeat.
#[inline]
pub fn add_sched_calls(n: u64) {
    SCHED_CALLS.fetch_add(n, Ordering::Relaxed);
}

/// Adds `n` popped simulation events. Called by the engine run loop.
#[inline]
pub fn add_events_popped(n: u64) {
    EVENTS_POPPED.fetch_add(n, Ordering::Relaxed);
}

/// Adds `n` completed pool jobs. Called by [`crate::pool::run_indexed`].
#[inline]
pub fn add_pool_jobs(n: u64) {
    POOL_JOBS.fetch_add(n, Ordering::Relaxed);
}

/// A snapshot of the process-global counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfileCounters {
    /// Scheduling points executed by engine run loops.
    pub sched_points: u64,
    /// Scheduler calls made at those points: the points less the certified
    /// repeats.
    pub sched_calls: u64,
    /// Events popped off simulation event queues.
    pub events_popped: u64,
    /// Jobs completed by the fork-join pool.
    pub pool_jobs: u64,
}

impl ProfileCounters {
    /// Reads the current process-global counter values.
    pub fn snapshot() -> Self {
        ProfileCounters {
            sched_points: SCHED_POINTS.load(Ordering::Relaxed),
            sched_calls: SCHED_CALLS.load(Ordering::Relaxed),
            events_popped: EVENTS_POPPED.load(Ordering::Relaxed),
            pool_jobs: POOL_JOBS.load(Ordering::Relaxed),
        }
    }

    fn since(self, base: ProfileCounters) -> ProfileCounters {
        ProfileCounters {
            sched_points: self.sched_points.saturating_sub(base.sched_points),
            sched_calls: self.sched_calls.saturating_sub(base.sched_calls),
            events_popped: self.events_popped.saturating_sub(base.events_popped),
            pool_jobs: self.pool_jobs.saturating_sub(base.pool_jobs),
        }
    }
}

/// A wall-clock profiling window: snapshot at [`SelfProfile::start`],
/// difference at [`SelfProfile::report`].
#[derive(Debug, Clone, Copy)]
pub struct SelfProfile {
    started: Instant,
    base: ProfileCounters,
}

impl SelfProfile {
    /// Opens a profiling window now.
    pub fn start() -> Self {
        SelfProfile {
            started: Instant::now(),
            base: ProfileCounters::snapshot(),
        }
    }

    /// Closes the window: counter deltas plus wall-clock rates.
    pub fn report(&self) -> ProfileReport {
        let wall_s = self.started.elapsed().as_secs_f64();
        ProfileReport {
            counters: ProfileCounters::snapshot().since(self.base),
            wall_s,
        }
    }
}

/// Counter deltas over a wall-clock window, with derived rates.
#[derive(Debug, Clone, Copy)]
pub struct ProfileReport {
    /// Counter deltas within the window.
    pub counters: ProfileCounters,
    /// Window length in wall-clock seconds.
    pub wall_s: f64,
}

impl ProfileReport {
    fn rate(&self, n: u64) -> f64 {
        if self.wall_s > 0.0 {
            n as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Scheduling points per wall-second.
    pub fn sched_points_per_s(&self) -> f64 {
        self.rate(self.counters.sched_points)
    }

    /// Events popped per wall-second.
    pub fn events_per_s(&self) -> f64 {
        self.rate(self.counters.events_popped)
    }

    /// Pool jobs per wall-second.
    pub fn pool_jobs_per_s(&self) -> f64 {
        self.rate(self.counters.pool_jobs)
    }
}

impl std::fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "wall={:.3}s sched_points={} ({:.0}/s) sched_calls={} events={} ({:.0}/s) pool_jobs={} ({:.0}/s)",
            self.wall_s,
            self.counters.sched_points,
            self.sched_points_per_s(),
            self.counters.sched_calls,
            self.counters.events_popped,
            self.events_per_s(),
            self.counters.pool_jobs,
            self.pool_jobs_per_s()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_difference_the_global_counters() {
        let window = SelfProfile::start();
        add_sched_points(5);
        add_sched_calls(3);
        add_events_popped(12);
        add_pool_jobs(2);
        let report = window.report();
        // Other tests may bump concurrently; deltas are at least ours.
        assert!(report.counters.sched_points >= 5);
        assert!(report.counters.sched_calls >= 3);
        assert!(report.counters.events_popped >= 12);
        assert!(report.counters.pool_jobs >= 2);
        assert!(report.wall_s >= 0.0);
        let rendered = format!("{report}");
        assert!(rendered.contains("sched_points="));
    }

    #[test]
    fn zero_window_rates_are_finite() {
        let report = ProfileReport {
            counters: ProfileCounters::default(),
            wall_s: 0.0,
        };
        assert_eq!(report.events_per_s(), 0.0);
        assert_eq!(report.sched_points_per_s(), 0.0);
        assert_eq!(report.pool_jobs_per_s(), 0.0);
    }
}
