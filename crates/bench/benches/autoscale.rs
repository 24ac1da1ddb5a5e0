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
//! burst. Both claims are asserted inline on every run, as are the
//! elastic fleet paying fewer replica-seconds than the flash-sized one and
//! shedding dropping best-effort work before interactive. Each row also
//! reports SLO attainment and sheds per traffic class (report-only).
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

/// The per-class columns' order.
const CLASSES: [TrafficClass; 3] = [
    TrafficClass::Interactive,
    TrafficClass::Standard,
    TrafficClass::BestEffort,
];

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
    /// Scheduling points the engines executed per scheduler call the
    /// outcome reports: 1.0 unless some of the work was simulated twice.
    replay_ratio: f64,
    /// SLO attainment of each class's completed requests, in [`CLASSES`]
    /// order, each judged by its class-scaled SLO.
    class_attainment: [f64; 3],
    /// Requests shed per class, in [`CLASSES`] order.
    class_shed: [u64; 3],
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
    if burst_ids.is_empty() {
        return 1.0;
    }
    // Non-completions count against the burst: attainment over arrivals,
    // not over survivors.
    let met = records
        .iter()
        .filter(|r| burst_ids.contains(&r.id) && slo.met_by(r))
        .count();
    met as f64 / burst_ids.len() as f64
}

/// Runs `plan` on a fleet of `replicas`. A static plan pays for every
/// replica over the whole makespan, an elastic one for the replica-seconds
/// its ledger records.
fn run_fleet(label: &str, replicas: usize, trace: &Trace, plan: &FleetPlan) -> Sample {
    let slo = &SloSpec::default_for_lwm();
    let mut config = FleetConfig::paper_fleet(
        SystemKind::LoongServe,
        replicas,
        RouterPolicy::JoinShortestQueue,
    );
    // Pooled era execution; serial-equivalent per streaming_properties.
    config.parallel = true;
    let mut engine = FleetEngine::new(config);
    let stream = TraceStream::from_trace(trace.clone());
    let start = Instant::now();
    let profile = SelfProfile::start();
    let run = engine.run(stream, plan, None).expect("valid plan");
    let sched_points = profile.report().counters.sched_points;
    let wall_s = start.elapsed().as_secs_f64();
    assert_eq!(
        run.total_requests(),
        trace.len(),
        "{label}: exactly-once accounting must hold"
    );
    let records = &run.fleet.records;
    let makespan_s = run.fleet.sim_time.as_secs();
    let e = &run.elasticity;
    let replica_seconds = if plan.autoscaler.is_elastic() {
        e.replica_seconds
    } else {
        replicas as f64 * makespan_s
    };
    let attainment = run.class_attainment(slo);
    let class_attainment = CLASSES.map(|class| {
        let found = attainment.iter().find(|(c, _)| *c == class);
        found.expect("every class is reported").1
    });
    Sample {
        label: label.to_string(),
        wall_s,
        completed: records.len(),
        shed: run.shed.len(),
        replica_seconds,
        goodput_per_rs: slo_goodput_per_replica_second(records, slo, replica_seconds),
        interactive_flash_attainment: interactive_flash_attainment(trace, records, slo),
        makespan_s,
        scale_ups: e.scale_up_events,
        scale_downs: e.scale_down_events,
        replay_ratio: sched_points as f64 / run.fleet.scheduler_calls as f64,
        class_attainment,
        class_shed: [e.shed_interactive, e.shed_standard, e.shed_best_effort],
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
    println!(
        "trace: {} requests (diurnal {TROUGH_RATE}-{PEAK_RATE}/s, period {PERIOD_S} s; \
         flash {FLASH_RATE}/s at {FLASH_START_S} s for {FLASH_SECS} s)",
        trace.len()
    );

    let mut samples: Vec<Sample> = (1..=MAX_REPLICAS)
        .map(|n| run_fleet(&format!("static x{n}"), n, &trace, &FleetPlan::fixed(n)))
        .collect();
    let shedding = elastic_cfg().with_admission(admission());
    for (label, plan) in [("autoscaled", elastic_cfg()), ("autoscaled+shed", shedding)] {
        samples.push(run_fleet(label, MAX_REPLICAS, &trace, &plan));
    }

    let mut csv = String::from(
        "scenario,wall_s,completed,shed,replica_seconds,goodput_per_replica_second,\
         interactive_flash_attainment,makespan_s,scale_ups,scale_downs,replay_ratio,\
         attain_interactive,attain_standard,attain_best_effort,\
         shed_interactive,shed_standard,shed_best_effort\n",
    );
    println!(
        "{:>16} {:>8} {:>10} {:>6} {:>11} {:>14} {:>12} {:>10} {:>7} {:>7} {:>7} {:>17} {:>15}",
        "scenario",
        "wall_s",
        "completed",
        "shed",
        "replica_s",
        "goodput/rep-s",
        "flash_attain",
        "makespan_s",
        "ups",
        "downs",
        "replay",
        "attain int/std/be",
        "shed int/std/be"
    );
    for s in &samples {
        let attain = s.class_attainment.map(|a| format!("{a:.3}"));
        let shed = s.class_shed.map(|n| n.to_string());
        println!(
            "{:>16} {:>8.3} {:>10} {:>6} {:>11.1} {:>14.5} {:>12.3} {:>10.1} {:>7} {:>7} {:>7.3} \
             {:>17} {:>15}",
            s.label,
            s.wall_s,
            s.completed,
            s.shed,
            s.replica_seconds,
            s.goodput_per_rs,
            s.interactive_flash_attainment,
            s.makespan_s,
            s.scale_ups,
            s.scale_downs,
            s.replay_ratio,
            attain.join("/"),
            shed.join("/")
        );
        csv.push_str(&format!(
            "{},{:.6},{},{},{:.3},{:.6},{:.6},{:.3},{},{},{:.4},{:.6},{:.6},{:.6},{}\n",
            s.label,
            s.wall_s,
            s.completed,
            s.shed,
            s.replica_seconds,
            s.goodput_per_rs,
            s.interactive_flash_attainment,
            s.makespan_s,
            s.scale_ups,
            s.scale_downs,
            s.replay_ratio,
            s.class_attainment[0],
            s.class_attainment[1],
            s.class_attainment[2],
            shed.join(",")
        ));
    }

    // The tier's headline contracts, asserted on every bench run.
    let best_static = samples[..MAX_REPLICAS]
        .iter()
        .max_by(|a, b| a.goodput_per_rs.total_cmp(&b.goodput_per_rs))
        .expect("static fleets exist");
    let trough_sized = &samples[0];
    let flash_sized = &samples[MAX_REPLICAS - 1];
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
    assert!(
        autoscaled.replica_seconds < flash_sized.replica_seconds,
        "autoscaling must pay fewer replica-seconds than the flash-sized fleet"
    );
    // Shedding is class-priority: it drops best-effort work before
    // interactive, and interactive attainment beats the melting
    // trough-sized fleet's.
    assert!(shed.shed > 0, "the flash must trigger shedding");
    assert!(shed.class_shed[2] >= shed.class_shed[0]);
    assert!(shed.class_attainment[0] > trough_sized.class_attainment[0]);

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
            "BENCH_SMOKE_JSON {{\"benchmark\":\"autoscale\",\"completed_autoscaled\":{},\"completed_shed\":{},\"shed_count\":{},\"replica_seconds_autoscaled\":{:.1},\"goodput_ratio_vs_best_static\":{:.4},\"flash_attainment_shed\":{:.4},\"scale_ups\":{},\"scale_downs\":{},\"replay_ratio\":{:.4}}}",
            autoscaled.completed,
            shed.completed,
            shed.shed,
            autoscaled.replica_seconds,
            autoscaled.goodput_per_rs / best_static.goodput_per_rs,
            shed.interactive_flash_attainment,
            autoscaled.scale_ups,
            autoscaled.scale_downs,
            autoscaled.replay_ratio
        );
    }

    let path = write_figure_csv("autoscale.csv", &csv);
    println!("\nCSV written to {}", path.display());
}
