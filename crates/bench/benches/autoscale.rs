//! Autoscale benchmark: SLO-goodput per replica-second under overload.
//!
//! Replays one mixed-class diurnal + flash-crowd trace against LoongServe
//! fleets provisioned four ways — static fleets of every size from 1 to
//! the maximum, an SLO-driven elastic fleet, and the elastic fleet with
//! the admission controller armed. The headline metric is **SLO-goodput
//! per replica-second**: completions inside the SLO divided by the
//! replica-seconds the fleet actually paid for. A static fleet sized for
//! the flash wastes replica-seconds through the trough; a static fleet
//! sized for the trough melts in the flash; the autoscaled fleet must beat
//! both, and shedding must hold interactive SLO attainment through the
//! burst. Both claims are asserted inline on every run.
//!
//! Invocation (harness = false):
//!
//! ```text
//! cargo bench --bench autoscale              # 500-event trace
//! cargo bench --bench autoscale -- --smoke   # 180-event trace
//! ```
//!
//! The smoke mode additionally emits one `BENCH_SMOKE_JSON` line of
//! deterministic (wall-clock-free) metrics; CI feeds it to
//! `cargo run -p xtask -- bench-gate BENCH_autoscale.json`, which
//! compares it against the reference checked in at the repository root.

use loong_bench::{banner, write_figure_csv};
use loongserve::prelude::*;
use std::time::Instant;

const COUNT: usize = 600;
const SMOKE_COUNT: usize = 280;
const MAX_REPLICAS: usize = 4;
const SEED: u64 = 2026;

const TROUGH_RATE: f64 = 0.4;
const PEAK_RATE: f64 = 1.2;
const PERIOD_S: f64 = 300.0;
const FLASH_START_S: f64 = 80.0;
const FLASH_SECS: f64 = 50.0;
const FLASH_RATE: f64 = 8.0;

fn arrivals() -> ArrivalProcess {
    ArrivalProcess::DiurnalFlash {
        trough_rate: TROUGH_RATE,
        peak_rate: PEAK_RATE,
        period_secs: PERIOD_S,
        flash_start_s: FLASH_START_S,
        flash_secs: FLASH_SECS,
        flash_rate: FLASH_RATE,
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

/// The elastic configuration shared by the autoscaled scenarios. The
/// *signal* SLO the controller tracks is 2x looser than the measurement
/// SLO: late-finishing flash stragglers should not re-trigger scale-ups
/// after the burst has already passed.
fn elastic_cfg() -> FleetPlan {
    FleetPlan::new(scaler()).with_signal_slo(SloSpec::scaled_from_baseline(
        0.05,
        0.002,
        0.05,
        2.0 * SloSpec::PAPER_SCALE,
    ))
}

fn admission() -> AdmissionConfig {
    let mut adm = AdmissionConfig::overload_defaults();
    adm.replica_capacity_tokens = 25_000;
    adm.service_tokens_per_s = 8_000.0;
    adm
}

struct Sample {
    label: String,
    wall_s: f64,
    completed: usize,
    shed: usize,
    replica_seconds: f64,
    goodput_per_rs: f64,
    interactive_flash_attainment: f64,
    makespan_s: f64,
    scale_ups: u64,
    scale_downs: u64,
}

/// SLO attainment of the interactive requests that arrived during the
/// flash crowd (with a short cool-off) — the burst the shedder must
/// protect.
fn interactive_flash_attainment(trace: &Trace, records: &[RequestRecord], slo: &SloSpec) -> f64 {
    let window = FLASH_START_S..(FLASH_START_S + FLASH_SECS + 10.0);
    let burst_ids: std::collections::BTreeSet<RequestId> = trace
        .requests
        .iter()
        .filter(|r| r.class == TrafficClass::Interactive && window.contains(&r.arrival.as_secs()))
        .map(|r| r.id)
        .collect();
    let burst: Vec<RequestRecord> = records
        .iter()
        .filter(|r| burst_ids.contains(&r.id))
        .copied()
        .collect();
    if burst_ids.is_empty() {
        return 1.0;
    }
    // Non-completions count against the burst: attainment over arrivals,
    // not over survivors.
    let met = burst.iter().filter(|r| slo.met_by(r)).count();
    met as f64 / burst_ids.len() as f64
}

fn static_fleet(n: usize, trace: &Trace, slo: &SloSpec) -> Sample {
    let mut config =
        FleetConfig::paper_fleet(SystemKind::LoongServe, n, RouterPolicy::JoinShortestQueue);
    config.parallel = true;
    let mut engine = FleetEngine::new(config);
    let stream = TraceStream::from_trace(trace.clone());
    let start = Instant::now();
    let outcome = engine.run(stream, &FleetPlan::fixed(n), None);
    let outcome = outcome.expect("valid plan").fleet;
    let wall_s = start.elapsed().as_secs_f64();
    let replica_seconds = n as f64 * outcome.sim_time.as_secs();
    Sample {
        label: format!("static x{n}"),
        wall_s,
        completed: outcome.records.len(),
        shed: 0,
        replica_seconds,
        goodput_per_rs: slo_goodput_per_replica_second(&outcome.records, slo, replica_seconds),
        interactive_flash_attainment: interactive_flash_attainment(trace, &outcome.records, slo),
        makespan_s: outcome.sim_time.as_secs(),
        scale_ups: 0,
        scale_downs: 0,
    }
}

fn elastic_fleet(label: &str, trace: &Trace, slo: &SloSpec, plan: &FleetPlan) -> Sample {
    let mut config = FleetConfig::paper_fleet(
        SystemKind::LoongServe,
        MAX_REPLICAS,
        RouterPolicy::JoinShortestQueue,
    );
    // Pooled era execution; serial-equivalent per streaming_properties.
    config.parallel = true;
    let mut engine = FleetEngine::new(config);
    let stream = TraceStream::from_trace(trace.clone());
    let start = Instant::now();
    let outcome = engine.run(stream, plan, None).expect("valid plan");
    let wall_s = start.elapsed().as_secs_f64();
    assert_eq!(
        outcome.total_requests(),
        trace.len(),
        "{label}: exactly-once accounting must hold"
    );
    Sample {
        label: label.to_string(),
        wall_s,
        completed: outcome.fleet.records.len(),
        shed: outcome.shed.len(),
        replica_seconds: outcome.elasticity.replica_seconds,
        goodput_per_rs: slo_goodput_per_replica_second(
            &outcome.fleet.records,
            slo,
            outcome.elasticity.replica_seconds,
        ),
        interactive_flash_attainment: interactive_flash_attainment(
            trace,
            &outcome.fleet.records,
            slo,
        ),
        makespan_s: outcome.fleet.sim_time.as_secs(),
        scale_ups: outcome.elasticity.scale_up_events,
        scale_downs: outcome.elasticity.scale_down_events,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let count = if smoke { SMOKE_COUNT } else { COUNT };

    banner(&format!(
        "Autoscale — mixed-class diurnal + flash trace ({count} events), LoongServe \
         fleets behind JSQ: static x1..x{MAX_REPLICAS} vs SLO-driven elastic \
         (1..{MAX_REPLICAS}){}",
        if smoke { " (smoke)" } else { "" }
    ));

    let mut rng = SimRng::seed(SEED);
    let trace = Trace::generate_mixed_classes(
        arrivals(),
        count,
        &MixedClassProfile::overload_mix(),
        &mut rng,
    );
    let slo = SloSpec::default_for_lwm();
    println!(
        "trace: {} requests (diurnal {TROUGH_RATE}-{PEAK_RATE}/s, period {PERIOD_S} s; \
         flash {FLASH_RATE}/s at {FLASH_START_S} s for {FLASH_SECS} s)",
        trace.len()
    );

    let mut samples: Vec<Sample> = (1..=MAX_REPLICAS)
        .map(|n| static_fleet(n, &trace, &slo))
        .collect();
    samples.push(elastic_fleet("autoscaled", &trace, &slo, &elastic_cfg()));
    samples.push(elastic_fleet(
        "autoscaled+shed",
        &trace,
        &slo,
        &elastic_cfg().with_admission(admission()),
    ));

    let mut csv = String::from(
        "scenario,wall_s,completed,shed,replica_seconds,goodput_per_replica_second,\
         interactive_flash_attainment,makespan_s,scale_ups,scale_downs\n",
    );
    println!(
        "{:>16} {:>8} {:>10} {:>6} {:>11} {:>14} {:>12} {:>10} {:>7} {:>7}",
        "scenario",
        "wall_s",
        "completed",
        "shed",
        "replica_s",
        "goodput/rep-s",
        "flash_attain",
        "makespan_s",
        "ups",
        "downs"
    );
    for s in &samples {
        println!(
            "{:>16} {:>8.3} {:>10} {:>6} {:>11.1} {:>14.5} {:>12.3} {:>10.1} {:>7} {:>7}",
            s.label,
            s.wall_s,
            s.completed,
            s.shed,
            s.replica_seconds,
            s.goodput_per_rs,
            s.interactive_flash_attainment,
            s.makespan_s,
            s.scale_ups,
            s.scale_downs
        );
        csv.push_str(&format!(
            "{},{:.6},{},{},{:.3},{:.6},{:.6},{:.3},{},{}\n",
            s.label,
            s.wall_s,
            s.completed,
            s.shed,
            s.replica_seconds,
            s.goodput_per_rs,
            s.interactive_flash_attainment,
            s.makespan_s,
            s.scale_ups,
            s.scale_downs
        ));
    }

    // The tier's headline contracts, asserted on every bench run.
    let best_static = samples[..MAX_REPLICAS]
        .iter()
        .max_by(|a, b| a.goodput_per_rs.total_cmp(&b.goodput_per_rs))
        .expect("static fleets exist");
    let autoscaled = &samples[MAX_REPLICAS];
    let shed = &samples[MAX_REPLICAS + 1];
    assert!(
        autoscaled.goodput_per_rs > best_static.goodput_per_rs,
        "autoscaled ({:.5}) must beat the best static fleet ({}: {:.5}) on \
         SLO-goodput per replica-second",
        autoscaled.goodput_per_rs,
        best_static.label,
        best_static.goodput_per_rs
    );
    assert!(
        shed.interactive_flash_attainment >= 0.90,
        "shedding must hold interactive SLO attainment >= 90% through the \
         flash, got {:.3}",
        shed.interactive_flash_attainment
    );
    assert!(autoscaled.scale_ups >= 1, "the flash must trigger scale-up");
    assert!(
        autoscaled.scale_downs >= 1,
        "the trough must trigger scale-down"
    );

    // The line CI greps for in the autoscale smoke step.
    println!(
        "AUTOSCALE best_static={} best_static_goodput={:.5} autoscaled_goodput={:.5} \
         shed_goodput={:.5} shed_count={} flash_attainment={:.3} scale_ups={} scale_downs={}",
        best_static.label,
        best_static.goodput_per_rs,
        autoscaled.goodput_per_rs,
        shed.goodput_per_rs,
        shed.shed,
        shed.interactive_flash_attainment,
        autoscaled.scale_ups,
        autoscaled.scale_downs
    );
    if smoke {
        // Machine-readable, wall-clock-free metrics for the bench gate.
        println!(
            "BENCH_SMOKE_JSON {{\"benchmark\":\"autoscale\",\"completed_autoscaled\":{},\"completed_shed\":{},\"shed_count\":{},\"replica_seconds_autoscaled\":{:.1},\"goodput_ratio_vs_best_static\":{:.4},\"flash_attainment_shed\":{:.4},\"scale_ups\":{},\"scale_downs\":{}}}",
            autoscaled.completed,
            shed.completed,
            shed.shed,
            autoscaled.replica_seconds,
            autoscaled.goodput_per_rs / best_static.goodput_per_rs,
            shed.interactive_flash_attainment,
            autoscaled.scale_ups,
            autoscaled.scale_downs
        );
    }

    let path = write_figure_csv("autoscale.csv", &csv);
    println!("\nCSV written to {}", path.display());
}
