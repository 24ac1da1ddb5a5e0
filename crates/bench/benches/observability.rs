//! Tracing-overhead benchmark: what the observability tier costs.
//!
//! Replays the same streamed reliable workload twice over a 4-replica
//! LoongServe fleet under a staggered crash schedule:
//!
//! * **untraced** — `FleetEngine::run` without a recorder (the armed
//!   no-op sink compiles to the same thing: the recorder option is `None`
//!   and every emission site is a branch-not-taken);
//! * **traced** — `FleetEngine::run` with a recorder under the default
//!   [`TraceConfig`]: 1% deterministic span sampling, always-on
//!   per-replica timeseries, per-class time attribution.
//!
//! Both arms must produce bit-for-bit identical outcomes (the inertness
//! contract pinned by `tests/observability_properties.rs`), so the only
//! thing that can differ is wall-clock — and the smoke gate asserts the
//! traced arm stays within 10% of the untraced one. The recorder's
//! residency ledger (sampled requests, spans, series bins, peak open
//! state) is deterministic and gated against `BENCH_obs.json`; wall-clock
//! numbers are report-only.
//!
//! Invocation (harness = false):
//!
//! ```text
//! cargo bench --bench observability            # 100k requests, best-of-2 walls
//! cargo bench --bench observability -- --smoke # 20k requests, best-of-3, <10% assert
//! ```

use loong_bench::banner;
use loongserve::prelude::*;
use std::time::Instant;

const RATE: f64 = 120.0;
const COUNT: usize = 100_000;
const SMOKE_COUNT: usize = 20_000;
const REPLICAS: usize = 4;
const CRASH_PERIOD_S: f64 = 30.0;
const SEED: u64 = 2026;

/// Every replica crashes once per `period` seconds, staggered — same
/// shape as the million-scale bench so the eras keep flushing.
fn staggered_schedule(replicas: usize, period: f64, horizon: f64) -> FailureSchedule {
    let mut events = Vec::new();
    for r in 0..replicas {
        let offset = period * (r as f64 + 1.0) / replicas as f64;
        let mut at = offset;
        while at < horizon {
            events.push(FailureEvent::new(
                ReplicaId::from(r),
                SimTime::from_secs(at),
                SimTime::from_secs(at + 1.0),
            ));
            at += period;
        }
    }
    FailureSchedule::from_events(events)
}

fn plan(count: usize) -> FleetPlan {
    let horizon = count as f64 / RATE + 200.0;
    FleetPlan::fixed(REPLICAS)
        .with_schedule(staggered_schedule(REPLICAS, CRASH_PERIOD_S, horizon))
        .with_retry(RetryPolicy::exponential(3, 0.25))
        .with_sla_window(60.0)
}

fn fleet() -> FleetEngine {
    let mut config = FleetConfig::paper_fleet(
        SystemKind::LoongServe,
        REPLICAS,
        RouterPolicy::JoinShortestQueue,
    );
    config.parallel = true;
    FleetEngine::new(config)
}

fn stream(count: usize) -> TraceStream {
    TraceStream::dataset(
        DatasetKind::ShareGpt,
        ArrivalProcess::Poisson { rate: RATE },
        count,
        &mut SimRng::seed(SEED),
    )
}

/// One arm execution: wall seconds plus the outcome's Debug rendering
/// (the bit-for-bit equality witness) and the recorder, if armed.
fn run_arm(count: usize, traced: bool) -> (f64, String, Option<TraceRecorder>) {
    let plan = plan(count);
    let mut engine = fleet();
    let start = Instant::now();
    let (outcome, recorder) = if traced {
        let mut rec = TraceRecorder::new(TraceConfig::default());
        let outcome = engine.run(stream(count), &plan, Some(&mut rec));
        (outcome, Some(rec))
    } else {
        (engine.run(stream(count), &plan, None), None)
    };
    let wall_s = start.elapsed().as_secs_f64();
    let outcome = outcome.expect("valid plan");
    assert_eq!(outcome.total_requests(), count);
    (wall_s, format!("{outcome:?}"), recorder)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let (count, rounds) = if smoke { (SMOKE_COUNT, 3) } else { (COUNT, 2) };

    banner(&format!(
        "Observability overhead — ShareGPT @ {RATE} req/s, {count} requests streamed, \
         {REPLICAS} LoongServe replicas, crashes every {CRASH_PERIOD_S}s; untraced vs \
         1%-sampled recorder, best-of-{rounds} walls{}",
        if smoke { " (smoke)" } else { "" }
    ));

    let profile = SelfProfile::start();
    let mut best_plain = f64::INFINITY;
    let mut best_traced = f64::INFINITY;
    let mut recorder = None;
    // Interleave the arms so ambient load hits both symmetrically.
    for _ in 0..rounds {
        let (wall, plain_witness, _) = run_arm(count, false);
        best_plain = best_plain.min(wall);
        let (wall, witness, rec) = run_arm(count, true);
        best_traced = best_traced.min(wall);
        assert_eq!(
            plain_witness, witness,
            "tracing must be inert: traced and untraced outcomes diverged"
        );
        recorder = rec;
    }
    let recorder = recorder.expect("traced arm ran");
    let ledger = recorder.ledger();
    let completed = recorder
        .series()
        .values()
        .map(|s| s.completions.total())
        .sum::<u64>();
    let overhead_ratio = best_traced / best_plain.max(1e-9);

    // The recorder's residency proof: O(sampled + bins + peak-open), with
    // the sampled set within a factor of two of the nominal 1%.
    assert_eq!(ledger.open_requests, 0);
    assert!(ledger.spans_dropped == 0 && ledger.instants_dropped == 0);
    let sampled_share = ledger.sampled_requests as f64 / count as f64;
    assert!(
        (0.005..=0.02).contains(&sampled_share),
        "1% sampling drifted: {} of {count} sampled",
        ledger.sampled_requests
    );

    println!(
        "{:>9} {:>9} {:>8} {:>11} {:>10} {:>13} {:>13} {:>9}",
        "sampled",
        "spans",
        "instants",
        "series_bins",
        "peak_open",
        "untraced_s",
        "traced_s",
        "ratio"
    );
    println!(
        "{:>9} {:>9} {:>8} {:>11} {:>10} {:>13.3} {:>13.3} {:>9.3}",
        ledger.sampled_requests,
        ledger.spans_recorded,
        ledger.instants_recorded,
        ledger.series_bins,
        ledger.peak_open_requests,
        best_plain,
        best_traced,
        overhead_ratio
    );
    println!("report-only self-profile: {}", profile.report());

    // The line CI greps for in the observability smoke step.
    println!(
        "OBSERVABILITY sampled={} spans={} overhead_ratio={:.3}",
        ledger.sampled_requests, ledger.spans_recorded, overhead_ratio
    );

    if smoke {
        assert!(
            overhead_ratio < 1.10,
            "tracing at 1% sampling must cost <10% wall-clock: untraced {best_plain:.3}s, \
             traced {best_traced:.3}s (ratio {overhead_ratio:.3})"
        );
        // Machine-readable metrics for the bench gate; overhead_ratio is
        // wall-clock and stays out of the gated set.
        println!(
            "BENCH_SMOKE_JSON {{\"benchmark\":\"observability\",\"sampled\":{},\"spans\":{},\"instants\":{},\"series_bins\":{},\"peak_open\":{},\"completed\":{},\"overhead_ratio\":{:.3}}}",
            ledger.sampled_requests,
            ledger.spans_recorded,
            ledger.instants_recorded,
            ledger.series_bins,
            ledger.peak_open_requests,
            completed,
            overhead_ratio
        );
    }
}
