//! End-to-end trace export: observe an elastic fleet ride a flash crowd
//! through crashes, and dump everything the observability tier records.
//!
//! Replays one mixed-class diurnal + flash-crowd trace against an
//! SLO-driven elastic LoongServe fleet under a seeded crash schedule, with
//! a [`TraceRecorder`] watching the whole run. Emits:
//!
//! * `target/trace_export.perfetto.json` — Chrome trace-event JSON of the
//!   sampled request lifecycle spans and fleet instants (crashes,
//!   recoveries, scale events, sheds, retries). Open it at
//!   <https://ui.perfetto.dev> or `chrome://tracing`; validate it with
//!   `cargo run -p xtask -- trace-check target/trace_export.perfetto.json`.
//! * `target/trace_export.series.csv` — the per-replica streamed
//!   timeseries (queue depth, batch size, KV utilization, completions,
//!   SLO hits) plus fleet-scope counters.
//! * The per-class time-attribution table — where the latency went.
//!
//! ```text
//! cargo run --release --example trace_export
//! ```
//!
//! Set `LOONG_SMOKE=1` for the reduced configuration CI uses.

use loongserve::prelude::*;
use std::path::Path;

const MAX_REPLICAS: usize = 4;
const SEED: u64 = 2026;

fn arrivals() -> ArrivalProcess {
    ArrivalProcess::DiurnalFlash {
        trough_rate: 0.4,
        peak_rate: 1.2,
        period_secs: 300.0,
        flash_start_s: 80.0,
        flash_secs: 50.0,
        flash_rate: 8.0,
    }
}

fn scaler() -> AutoscalerConfig {
    let mut scaler = AutoscalerConfig::overload_defaults(1, MAX_REPLICAS);
    scaler.control_interval_s = 10.0;
    scaler.cooldown_s = 5.0;
    scaler.provisioning_delay_s = 5.0;
    scaler.scale_up_backlog_tokens = 24_000;
    scaler.scale_down_backlog_tokens = 12_000;
    scaler
}

fn main() {
    let smoke = std::env::var("LOONG_SMOKE").is_ok();
    let count = if smoke { 160 } else { 400 };
    let trace = Trace::generate_mixed_classes(
        arrivals(),
        count,
        &MixedClassProfile::overload_mix(),
        &mut SimRng::seed(SEED),
    );
    // A crash roughly every 90 s over the horizon: the exported trace
    // shows casualties, retries and the downtime they cost.
    let schedule = FailureSchedule::generate(
        MAX_REPLICAS,
        SimDuration::from_secs(300.0),
        90.0,
        15.0,
        SEED ^ 0xfa11,
    );
    let plan = FleetPlan::new(scaler())
        .with_schedule(schedule)
        .with_retry(RetryPolicy::exponential(2, 0.5))
        .with_sla_window(30.0);

    // Sample every request — this run is small enough to keep all spans;
    // the 1M-request regime uses the default 1% (see the million_scale
    // bench, whose ledger proves the O(sampled + bins) residency bound).
    let mut recorder = TraceRecorder::new(TraceConfig::sample_all());
    let mut fleet = FleetEngine::new(FleetConfig::paper_fleet(
        SystemKind::LoongServe,
        MAX_REPLICAS,
        RouterPolicy::JoinShortestQueue,
    ));
    let stream = TraceStream::from_trace(trace.clone());
    let outcome = fleet
        .run(stream, &plan, Some(&mut recorder))
        .expect("valid plan");

    assert_eq!(
        outcome.total_requests(),
        trace.len(),
        "every request must be accounted for exactly once"
    );
    let ledger = recorder.ledger();
    assert_eq!(ledger.open_requests, 0, "finalize closes every span");
    assert!(
        recorder.instants().iter().any(|i| i.name == "crash"),
        "the schedule must actually crash a replica inside the horizon"
    );

    println!(
        "Traced elastic run: {} mixed-class requests, {} replicas max, \
         {} crashes injected\n",
        trace.len(),
        MAX_REPLICAS,
        recorder
            .instants()
            .iter()
            .filter(|i| i.name == "crash")
            .count()
    );
    println!(
        "recorder ledger: {} admissions seen, {} sampled, {} spans, \
         {} instants, {} series bins, peak {} open",
        ledger.requests_seen,
        ledger.sampled_requests,
        ledger.spans_recorded,
        ledger.instants_recorded,
        ledger.series_bins,
        ledger.peak_open_requests
    );

    // Anchored to the workspace root so the paths land in the top-level
    // target/ regardless of the invoking directory.
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target");
    let out_dir = out_dir.as_path();
    std::fs::create_dir_all(out_dir).expect("create target/");
    let perfetto_path = out_dir.join("trace_export.perfetto.json");
    let csv_path = out_dir.join("trace_export.series.csv");
    std::fs::write(&perfetto_path, perfetto_json(&recorder)).expect("write perfetto json");
    std::fs::write(&csv_path, series_csv(&recorder)).expect("write series csv");
    println!("\nwrote {}", perfetto_path.display());
    println!("wrote {}", csv_path.display());

    println!("\nWhere did the simulated time go?\n");
    print!("{}", recorder.attribution().markdown_table());

    let total = recorder.attribution().total();
    assert!(total.prefill_s > 0.0 && total.decode_s > 0.0);
    if outcome.reliability.recovered_requests > 0 {
        assert!(
            total.downtime_s > 0.0,
            "recovered casualties must attribute their backoff downtime"
        );
    }

    println!(
        "\nEvery span above is simulated time on the deterministic clock —\n\
         the run itself is bit-for-bit identical with the recorder detached\n\
         (pinned by tests/observability_properties.rs). Load the JSON into\n\
         ui.perfetto.dev to see each sampled request's queued → prefill →\n\
         decode lifecycle per replica, with crash/recover/scale/shed marks\n\
         on the fleet track."
    );
}
