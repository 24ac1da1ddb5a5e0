//! Reliability benchmark: availability and re-prefill cost under crashes.
//!
//! Replays one ShareGPT trace against a 3-replica LoongServe fleet under a
//! seeded MTBF/MTTR failure schedule, once per casualty policy — fail-fast
//! (no retries), a three-attempt exponential retry budget, and retries
//! plus a per-replica circuit breaker — with an armed-but-idle run as the
//! baseline. Reports completions, terminal failures, availability, the
//! worst SLA window's availability (report-only: the outage as an operator
//! sees it), recovered requests, re-prefilled prompt tokens (the crash tax
//! under long contexts) and breaker trips. Exactly-once accounting is
//! asserted inline on every run.
//!
//! Invocation (harness = false):
//!
//! ```text
//! cargo bench --bench reliability              # 800-request trace
//! cargo bench --bench reliability -- --smoke   # 240-request trace
//! ```
//!
//! The smoke mode additionally emits one `BENCH_SMOKE_JSON` line of
//! deterministic (wall-clock-free) metrics; CI feeds it to
//! `cargo run -p xtask -- bench-gate BENCH_reliability.json`, which
//! compares it against the reference checked in at the repository root.

use loong_bench::{banner, write_figure_csv};
use loongserve::prelude::*;
use std::time::Instant;

const COUNT: usize = 800;
const SMOKE_COUNT: usize = 240;
const RATE: f64 = 6.0;
const REPLICAS: usize = 3;
const SEED: u64 = 2028;

struct Sample {
    label: &'static str,
    wall_s: f64,
    outcome: FleetRun,
}

impl Sample {
    fn availability(&self) -> f64 {
        let completed = self.outcome.fleet.records.len() as f64;
        let failed = self.outcome.failed.len() as f64;
        completed / (completed + failed).max(1.0)
    }

    /// The lowest success ratio over the run's SLA windows.
    fn worst_window(&self) -> f64 {
        self.outcome
            .sla_windows
            .iter()
            .map(|w| w.success_ratio())
            .fold(1.0, f64::min)
    }
}

fn run(label: &'static str, trace: &Trace, plan: &FleetPlan) -> Sample {
    let mut config = FleetConfig::paper_fleet(
        SystemKind::LoongServe,
        REPLICAS,
        RouterPolicy::JoinShortestQueue,
    );
    // Replica engines advance on the bounded worker pool; bit-for-bit equal to
    // serial (tests/streaming_properties.rs), so the gate stays valid.
    config.parallel = true;
    let mut fleet = FleetEngine::new(config);
    let stream = TraceStream::from_trace(trace.clone());
    let start = Instant::now();
    let outcome = fleet.run(stream, plan, None).expect("valid plan");
    let wall_s = start.elapsed().as_secs_f64();
    assert_eq!(
        outcome.total_requests(),
        trace.len(),
        "{label}: exactly-once accounting must hold"
    );
    Sample {
        label,
        wall_s,
        outcome,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let count = if smoke { SMOKE_COUNT } else { COUNT };

    banner(&format!(
        "Reliability — ShareGPT, {count} requests @ {RATE}/s, {REPLICAS} LoongServe \
         replicas, JSQ routing, seeded MTBF/MTTR crashes{}",
        if smoke { " (smoke)" } else { "" }
    ));

    let trace = WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(RATE, count, SEED);
    let span_s = count as f64 / RATE;
    let schedule = FailureSchedule::generate(
        REPLICAS,
        SimDuration::from_secs(span_s),
        30.0,
        8.0,
        0xfa11_5eed,
    );
    println!(
        "trace: {} requests over {span_s:.0} s; schedule: {} crashes, {:.1} s total downtime",
        trace.len(),
        schedule.events().len(),
        schedule.total_downtime().as_secs()
    );

    let retry = RetryPolicy::exponential(3, 0.5);
    let breaker = CircuitBreakerConfig::new(2, 20.0, 15.0);
    let fixed = FleetPlan::fixed(REPLICAS);
    let crashing = fixed.clone().with_schedule(schedule);
    let retrying = crashing.clone().with_retry(retry);
    let [idle, fail_fast, retried, breakered] = [
        ("armed-idle", fixed.with_retry(retry).with_breaker(breaker)),
        ("fail-fast", crashing),
        ("retry-x3", retrying.clone()),
        ("retry+breaker", retrying.with_breaker(breaker)),
    ]
    .map(|(label, plan)| run(label, &trace, &plan));

    // The tier's headline contract, asserted on every bench run.
    assert!(idle.outcome.reliability.is_zero());
    assert_eq!(idle.availability(), 1.0);
    assert_eq!(idle.worst_window(), 1.0);
    assert!(!fail_fast.outcome.failed.is_empty(), "crashes must bite");
    assert!(retried.availability() >= fail_fast.availability());
    assert!(retried.outcome.reliability.re_prefilled_tokens > 0);
    assert!(breakered.availability() >= fail_fast.availability());

    let mut csv = String::from(
        "scenario,wall_s,completed,failed,availability,worst_window,failed_attempts,\
         retries_scheduled,recovered,re_prefilled_tokens,breaker_opens,makespan_s\n",
    );
    println!(
        "{:>14} {:>8} {:>10} {:>7} {:>13} {:>12} {:>9} {:>11} {:>13} {:>9} {:>11}",
        "scenario",
        "wall_s",
        "completed",
        "failed",
        "availability",
        "worst_window",
        "recovered",
        "re-prefill",
        "breaker_opens",
        "crashes",
        "makespan_s"
    );
    for s in [&idle, &fail_fast, &retried, &breakered] {
        let r = &s.outcome.reliability;
        println!(
            "{:>14} {:>8.3} {:>10} {:>7} {:>13.4} {:>12.4} {:>9} {:>11} {:>13} {:>9} {:>11.1}",
            s.label,
            s.wall_s,
            s.outcome.fleet.records.len(),
            s.outcome.failed.len(),
            s.availability(),
            s.worst_window(),
            r.recovered_requests,
            r.re_prefilled_tokens,
            r.breaker_opens,
            r.crashes,
            s.outcome.fleet.sim_time.as_secs()
        );
        csv.push_str(&format!(
            "{},{:.6},{},{},{:.6},{:.6},{},{},{},{},{},{:.3}\n",
            s.label,
            s.wall_s,
            s.outcome.fleet.records.len(),
            s.outcome.failed.len(),
            s.availability(),
            s.worst_window(),
            r.failed_attempts,
            r.retries_scheduled,
            r.recovered_requests,
            r.re_prefilled_tokens,
            r.breaker_opens,
            s.outcome.fleet.sim_time.as_secs()
        ));
    }

    // The line CI greps for in the reliability smoke step.
    println!(
        "RELIABILITY completed_fail_fast={} failed_fail_fast={} completed_retry={} \
         failed_retry={} recovered={} re_prefilled_tokens={} breaker_opens={} crashes={}",
        fail_fast.outcome.fleet.records.len(),
        fail_fast.outcome.failed.len(),
        retried.outcome.fleet.records.len(),
        retried.outcome.failed.len(),
        retried.outcome.reliability.recovered_requests,
        retried.outcome.reliability.re_prefilled_tokens,
        breakered.outcome.reliability.breaker_opens,
        retried.outcome.reliability.crashes
    );
    if smoke {
        // Machine-readable, wall-clock-free metrics for the bench gate.
        println!(
            "BENCH_SMOKE_JSON {{\"benchmark\":\"reliability\",\"completed_fail_fast\":{},\"failed_fail_fast\":{},\"completed_retry\":{},\"failed_retry\":{},\"failed_attempts\":{},\"retries_scheduled\":{},\"recovered\":{},\"re_prefilled_tokens\":{},\"breaker_opens\":{},\"crashes\":{}}}",
            fail_fast.outcome.fleet.records.len(),
            fail_fast.outcome.failed.len(),
            retried.outcome.fleet.records.len(),
            retried.outcome.failed.len(),
            retried.outcome.reliability.failed_attempts,
            retried.outcome.reliability.retries_scheduled,
            retried.outcome.reliability.recovered_requests,
            retried.outcome.reliability.re_prefilled_tokens,
            breakered.outcome.reliability.breaker_opens,
            retried.outcome.reliability.crashes
        );
    }

    let path = write_figure_csv("reliability.csv", &csv);
    println!("\nCSV written to {}", path.display());
}
