//! Million-request fleet benchmark: the streamed reliable path at scale.
//!
//! The simulator's north star is replaying million-request traces at
//! hardware speed, and this bench is where that claim is measured end to
//! end: a ShareGPT Poisson trace is generated **lazily** by a
//! [`TraceStream`] and fed to `FleetEngine::run` over an 8-replica
//! LoongServe fleet behind JSQ routing, with the replicas' live engines
//! advanced on the bounded worker pool. A staggered periodic crash
//! schedule touches every replica, exercising crash casualties and retries
//! at scale; each crash is also an era boundary, at which every replica
//! admits what was routed to it and advances, so the [`FleetFootprint`]
//! ledger shows the fleet held O(active + one era's routing +
//! pending-retries) requests, never the whole trace. The run is observed
//! end to end by a 1%-sampling [`TraceRecorder`], whose own ledger proves
//! the observability tier's O(sampled + bins + peak-open) residency bound
//! at the same scale (and whose smoke-mode Perfetto export feeds the
//! `xtask trace-check` CI step).
//!
//! Two kinds of numbers are printed:
//!
//! * **Deterministic** (gated): completions, terminal failures, crash
//!   count, simulated makespan, streamed requests and the peak-resident
//!   high-water. These are simulation-exact and bit-for-bit reproducible
//!   on any host; the smoke gate compares them against
//!   `BENCH_million.json`.
//! * **Report-only**: wall-clock, requests per wall-second and the
//!   process's `VmHWM` resident high-water (Linux only). Wall-clock
//!   speedup from the pooled era execution needs cores — on an N-core
//!   host the pool caps at min(N-1, replicas) workers, so the ≥4× claim
//!   at 8 replicas applies to ≥8-core hosts; single-core CI boxes see
//!   pool overhead only, which is why no wall-clock number is gated.
//!
//! Invocation (harness = false):
//!
//! ```text
//! cargo bench --bench million_scale                      # 1M requests, 8 replicas
//! cargo bench --bench million_scale -- --smoke           # 20k requests, 4 replicas
//! cargo bench --bench million_scale -- --compare-serial  # also run serial, print speedup
//! ```

use loong_bench::banner;
use loongserve::prelude::*;
use std::time::Instant;

/// Offered ShareGPT rate (req/s): ~70% of the 8-replica fleet's sustainable
/// capacity (8 × 42.7 req/s recorded in `BENCH_fleet.json`), so the run is
/// busy but the backlog stays bounded — the regime where the O(active)
/// frontend claim is meaningful.
const RATE: f64 = 240.0;
const COUNT: usize = 1_000_000;
const REPLICAS: usize = 8;
const SMOKE_RATE: f64 = 120.0;
const SMOKE_COUNT: usize = 20_000;
const SMOKE_REPLICAS: usize = 4;
const SEED: u64 = 2026;

/// Every replica crashes once per `period` seconds, staggered so one
/// boundary lands every `period / replicas` seconds fleet-wide.
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

/// The process's peak resident set (`VmHWM`) in kilobytes, if the host
/// exposes `/proc/self/status`. Report-only: RSS is never bit-for-bit
/// reproducible across hosts, unlike the [`FleetFootprint`] ledger.
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

struct Run {
    wall_s: f64,
    outcome: FleetRun,
    recorder: Option<TraceRecorder>,
}

fn run_streamed(
    count: usize,
    rate: f64,
    replicas: usize,
    crash_period: f64,
    parallel: bool,
    traced: bool,
) -> Run {
    // Arrivals end around count/rate; pad the crash horizon past the drain
    // tail so the crashes keep striking to the end.
    let horizon = count as f64 / rate + 200.0;
    let schedule = staggered_schedule(replicas, crash_period, horizon);
    let plan = FleetPlan::fixed(replicas)
        .with_schedule(schedule)
        .with_retry(RetryPolicy::exponential(3, 0.25))
        .with_sla_window(60.0);
    let mut config = FleetConfig::paper_fleet(
        SystemKind::LoongServe,
        replicas,
        RouterPolicy::JoinShortestQueue,
    );
    config.parallel = parallel;
    let mut fleet = FleetEngine::new(config);
    let stream = TraceStream::dataset(
        DatasetKind::ShareGpt,
        ArrivalProcess::Poisson { rate },
        count,
        &mut SimRng::seed(SEED),
    );
    let start = Instant::now();
    let (outcome, recorder) = if traced {
        // The default config: 1% deterministic span sampling, always-on
        // per-replica timeseries. Tracing is bit-for-bit inert (pinned by
        // tests/observability_properties.rs), so the gated metrics below
        // are identical with or without the recorder.
        let mut rec = TraceRecorder::new(TraceConfig::default());
        let outcome = fleet.run(stream, &plan, Some(&mut rec));
        (outcome, Some(rec))
    } else {
        (fleet.run(stream, &plan, None), None)
    };
    let outcome = outcome.expect("valid plan");
    let wall_s = start.elapsed().as_secs_f64();
    assert_eq!(
        outcome.total_requests(),
        count,
        "exactly-once accounting must hold at scale"
    );
    Run {
        wall_s,
        outcome,
        recorder,
    }
}

/// The recorder's residency proof at scale: memory is O(sampled + bins +
/// peak-open), never O(trace). Asserted against the streamed count so a
/// regression that starts retaining unsampled state fails loudly.
fn assert_recorder_bounded(recorder: &TraceRecorder, streamed: usize) {
    let ledger = recorder.ledger();
    assert_eq!(ledger.open_requests, 0, "finalize must close every span");
    assert_eq!(
        ledger.spans_dropped, 0,
        "the default span cap must clear the 1M regime"
    );
    let sampled_share = ledger.sampled_requests as f64 / streamed.max(1) as f64;
    assert!(
        (0.005..=0.02).contains(&sampled_share),
        "1% sampling drifted: {} of {streamed} sampled",
        ledger.sampled_requests
    );
    assert!(
        ledger.spans_recorded <= 64 * ledger.sampled_requests,
        "spans must stay proportional to the sampled set ({} spans, {} sampled)",
        ledger.spans_recorded,
        ledger.sampled_requests
    );
    assert!(
        (ledger.peak_open_requests as usize) < streamed / 20,
        "open-request state must track the active window, not the trace \
         (peak {} vs {streamed} streamed)",
        ledger.peak_open_requests
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let compare_serial = args.iter().any(|a| a == "--compare-serial");
    let (count, rate, replicas, crash_period) = if smoke {
        (SMOKE_COUNT, SMOKE_RATE, SMOKE_REPLICAS, 30.0)
    } else {
        (COUNT, RATE, REPLICAS, 120.0)
    };

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    banner(&format!(
        "Million-scale fleet — ShareGPT @ {rate} req/s, {count} requests streamed, \
         {replicas} LoongServe replicas, JSQ router, staggered crashes every {crash_period}s, \
         pooled eras on {cores} core(s){}",
        if smoke { " (smoke)" } else { "" }
    ));

    let run = run_streamed(count, rate, replicas, crash_period, true, true);
    let crashes = run.outcome.reliability.crashes;
    let makespan_s = run.outcome.fleet.sim_time.as_secs();
    let completed = run.outcome.fleet.records.len();
    let failed = run.outcome.failed.len();
    let resident_share = run.outcome.footprint.peak_resident_requests as f64
        / run.outcome.footprint.streamed_requests.max(1) as f64;

    println!(
        "{:>10} {:>9} {:>8} {:>8} {:>11} {:>10} {:>13} {:>9}",
        "streamed",
        "completed",
        "failed",
        "crashes",
        "makespan_s",
        "peak_res",
        "res_share",
        "wall_s"
    );
    println!(
        "{:>10} {:>9} {:>8} {:>8} {:>11.1} {:>10} {:>12.2}% {:>9.2}",
        run.outcome.footprint.streamed_requests,
        completed,
        failed,
        crashes,
        makespan_s,
        run.outcome.footprint.peak_resident_requests,
        resident_share * 100.0,
        run.wall_s
    );
    println!(
        "report-only: {:.0} requests/wall-second{}",
        count as f64 / run.wall_s.max(1e-9),
        match vm_hwm_kb() {
            Some(kb) => format!(", VmHWM {:.1} MiB", kb as f64 / 1024.0),
            None => String::new(),
        }
    );

    // The whole run was observed by a 1%-sampling recorder; prove its
    // residency bound and surface the ledger next to the footprint.
    let recorder = run.recorder.as_ref().expect("the main run is traced");
    assert_recorder_bounded(recorder, run.outcome.footprint.streamed_requests);
    let ledger = recorder.ledger();
    println!(
        "trace ledger: {} sampled of {} seen, {} spans, {} instants, \
         {} series bins, peak {} open",
        ledger.sampled_requests,
        ledger.requests_seen,
        ledger.spans_recorded,
        ledger.instants_recorded,
        ledger.series_bins,
        ledger.peak_open_requests
    );

    // The line CI greps for in the million-scale smoke step.
    println!(
        "MILLION_SCALE streamed={} peak_resident={} failed_terminal={}",
        run.outcome.footprint.streamed_requests,
        run.outcome.footprint.peak_resident_requests,
        failed
    );

    if smoke {
        // Machine-readable, wall-clock-free metrics for the bench gate
        // (`cargo run -p xtask -- bench-gate BENCH_million.json`).
        println!(
            "BENCH_SMOKE_JSON {{\"benchmark\":\"million_scale\",\"streamed\":{},\"completed\":{},\"failed\":{},\"crashes\":{},\"makespan_s\":{:.3},\"peak_resident\":{}}}",
            run.outcome.footprint.streamed_requests, completed, failed, crashes, makespan_s,
            run.outcome.footprint.peak_resident_requests
        );
        // Export the sampled spans for `xtask trace-check` (the ci.sh
        // step that cross-validates the document against this ledger).
        // Anchored to the workspace root: cargo bench runs with the
        // package directory as CWD.
        let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target");
        std::fs::create_dir_all(&out_dir).expect("create target/");
        let path = out_dir.join("million_scale.perfetto.json");
        std::fs::write(&path, perfetto_json(recorder)).expect("write perfetto json");
        println!("wrote {}", path.display());
    }

    if compare_serial {
        let serial = run_streamed(count, rate, replicas, crash_period, false, false);
        assert_eq!(serial.outcome.fleet.records.len(), completed);
        assert_eq!(serial.outcome.failed.len(), failed);
        println!(
            "serial wall_s={:.2} pooled wall_s={:.2} speedup={:.2} (cores={cores}; \
             expect ≥4x at 8 replicas only on ≥8-core hosts)",
            serial.wall_s,
            run.wall_s,
            serial.wall_s / run.wall_s.max(1e-9)
        );
    }
}
