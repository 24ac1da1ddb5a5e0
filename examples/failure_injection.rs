//! Availability under failure injection: what retries and breakers buy.
//!
//! Replays one ShareGPT trace against a 3-replica LoongServe fleet four
//! ways: with the reliability tier armed but no failures, and with a
//! seeded MTBF/MTTR crash schedule under each casualty policy — fail-fast
//! (no retries), a three-attempt exponential retry budget, and retries
//! plus a per-replica circuit breaker. Prints the availability table an
//! operator would read off the SLA windows: completions, terminal
//! failures, overall and worst-window availability, recovered requests,
//! re-prefilled prompt tokens (the headline cost of a crash under long
//! contexts) and breaker trips.
//!
//! ```text
//! cargo run --release --example failure_injection
//! ```
//!
//! Set `LOONG_SMOKE=1` for the reduced configuration CI uses.

use loongserve::prelude::*;

const REPLICAS: usize = 3;
const RATE: f64 = 4.0;
const SEED: u64 = 4242;

struct Row {
    label: &'static str,
    outcome: FleetRun,
}

impl Row {
    fn availability(&self) -> f64 {
        let completed = self.outcome.fleet.records.len() as f64;
        let failed = self.outcome.failed.len() as f64;
        if completed + failed == 0.0 {
            1.0
        } else {
            completed / (completed + failed)
        }
    }

    fn worst_window(&self) -> f64 {
        self.outcome
            .sla_windows
            .iter()
            .map(|w| w.success_ratio())
            .fold(1.0, f64::min)
    }
}

fn run(label: &'static str, trace: &Trace, plan: &FleetPlan) -> Row {
    let mut fleet = FleetEngine::new(FleetConfig::paper_fleet(
        SystemKind::LoongServe,
        REPLICAS,
        RouterPolicy::JoinShortestQueue,
    ));
    let stream = TraceStream::from_trace(trace.clone());
    let outcome = fleet.run(stream, plan, None).expect("valid plan");
    assert_eq!(
        outcome.total_requests(),
        trace.len(),
        "{label}: every request must be accounted for exactly once"
    );
    Row { label, outcome }
}

fn main() {
    let smoke = std::env::var("LOONG_SMOKE").is_ok();
    let count = if smoke { 90 } else { 240 };
    let trace = WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(RATE, count, SEED);
    let span_s = count as f64 / RATE;

    // A seeded renewal process over the trace span: each replica
    // alternates exponential up-times (MTBF 25 s) and repairs (MTTR 6 s).
    let schedule = FailureSchedule::generate(
        REPLICAS,
        SimDuration::from_secs(span_s),
        25.0,
        6.0,
        0xfa11_5eed,
    );
    println!(
        "Failure injection: {} ShareGPT requests @ {RATE}/s over {REPLICAS} LoongServe \
         replicas (JSQ routing)\nschedule: {} crashes, {:.1} s total downtime over a \
         {span_s:.0} s trace\n",
        trace.len(),
        schedule.events().len(),
        schedule.total_downtime().as_secs()
    );

    let retry = RetryPolicy::exponential(3, 0.5);
    let breaker = CircuitBreakerConfig::new(2, 20.0, 15.0);
    let window = 15.0;
    let rows = [
        run(
            "no failures (tier armed)",
            &trace,
            &FleetPlan::fixed(REPLICAS)
                .with_retry(retry)
                .with_breaker(breaker)
                .with_sla_window(window),
        ),
        run(
            "failures, fail-fast",
            &trace,
            &FleetPlan::fixed(REPLICAS)
                .with_schedule(schedule.clone())
                .with_sla_window(window),
        ),
        run(
            "failures, retry x3",
            &trace,
            &FleetPlan::fixed(REPLICAS)
                .with_schedule(schedule.clone())
                .with_retry(retry)
                .with_sla_window(window),
        ),
        run(
            "failures, retry + breaker",
            &trace,
            &FleetPlan::fixed(REPLICAS)
                .with_schedule(schedule)
                .with_retry(retry)
                .with_breaker(breaker)
                .with_sla_window(window),
        ),
    ];

    println!(
        "| {:<26} | {:>5} | {:>6} | {:>6} | {:>9} | {:>9} | {:>11} | {:>7} | {:>9} |",
        "scenario",
        "done",
        "failed",
        "avail",
        "worst win",
        "recovered",
        "re-prefill",
        "breaker",
        "makespan"
    );
    println!(
        "|{}|{}|{}|{}|{}|{}|{}|{}|{}|",
        "-".repeat(28),
        "-".repeat(7),
        "-".repeat(8),
        "-".repeat(8),
        "-".repeat(11),
        "-".repeat(11),
        "-".repeat(13),
        "-".repeat(9),
        "-".repeat(11)
    );
    for row in &rows {
        let r = &row.outcome.reliability;
        println!(
            "| {:<26} | {:>5} | {:>6} | {:>5.3} | {:>9.3} | {:>9} | {:>11} | {:>7} | {:>8.1}s |",
            row.label,
            row.outcome.fleet.records.len(),
            row.outcome.failed.len(),
            row.availability(),
            row.worst_window(),
            r.recovered_requests,
            r.re_prefilled_tokens,
            r.breaker_opens,
            row.outcome.fleet.sim_time.as_secs()
        );
    }

    let [idle, fail_fast, retried, breakered] = &rows;
    // The idle tier is invisible: perfect availability, empty ledger.
    assert!(idle.outcome.reliability.is_zero());
    assert_eq!(idle.availability(), 1.0);
    assert_eq!(idle.worst_window(), 1.0);
    // Retries strictly dominate fail-fast on this schedule, at the price
    // of the re-prefilled prompt tokens the ledger itemises.
    assert!(!fail_fast.outcome.failed.is_empty(), "crashes must bite");
    assert!(retried.availability() >= fail_fast.availability());
    assert!(retried.outcome.reliability.re_prefilled_tokens > 0);
    assert!(breakered.availability() >= fail_fast.availability());

    println!(
        "\nFail-fast converts every casualty into a terminal failure — the\n\
         availability dip in its worst window is the outage, verbatim. The\n\
         retry budget re-routes casualties to surviving replicas and buys the\n\
         availability back with re-prefilled prompt tokens; the breaker\n\
         additionally keeps crash-looping replicas out of rotation so repeat\n\
         offenders stop collecting fresh casualties."
    );
}
