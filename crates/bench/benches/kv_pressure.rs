//! KV memory-pressure benchmark: recompute vs swap under overload.
//!
//! Drives a KV-starved single node (a few percent of the real slot budget)
//! through a bursty MMPP ShareGPT overload under both victim policies —
//! the vLLM-style baseline with preempt-and-recompute and the LoongServe
//! manager with the host-DRAM swap tier — and reports completion, pressure
//! activity (preemptions, swap traffic, stall time) and trace throughput.
//! The run also measures the simulator's own overhead on pressure-heavy
//! traces: eviction storms must not blow up the O(active) engine loop.
//!
//! Two report-only rows run each system with pressure handling off. They
//! show the gap the tier closes: admission reservations last one
//! scheduling round, the pool over-fills, decode can no longer append KV
//! and the run wedges with most requests unfinished.
//!
//! Invocation (harness = false):
//!
//! ```text
//! cargo bench --bench kv_pressure              # 480-request trace
//! cargo bench --bench kv_pressure -- --smoke   # 120-request trace
//! ```
//!
//! Reference numbers for the current tree are checked in as
//! `BENCH_pressure.json` at the repository root.

use loong_bench::{banner, write_figure_csv};
use loongserve::prelude::*;
use std::time::Instant;

/// Total KV slots across the node (split across each system's instances).
const CAPACITY: u64 = 6_000;
const COUNT: usize = 480;
const SMOKE_COUNT: usize = 120;
const SEED: u64 = 2026;

fn arrivals() -> ArrivalProcess {
    ArrivalProcess::MarkovModulated {
        rate_high: 40.0,
        rate_low: 2.0,
        mean_high_secs: 3.0,
        mean_low_secs: 3.0,
    }
}

struct Sample {
    policy: &'static str,
    wall_s: f64,
    makespan_s: f64,
    completed: usize,
    unfinished: usize,
    throughput_rps: f64,
    preemptions: u64,
    swap_events: u64,
    swap_gb: f64,
    stall_s: f64,
    /// Median normalised per-token latency, seconds per token.
    p50_s_per_token: f64,
}

fn run_policy(policy: &'static str, kind: SystemKind, mode: PressureMode, count: usize) -> Sample {
    let mut rng = SimRng::seed(SEED);
    let trace = Trace::generate(DatasetKind::ShareGpt, arrivals(), count, &mut rng);
    let instances = (8 / kind.tp(8)).max(1) as u64;
    let system = SystemUnderTest::paper_single_node(kind)
        .with_pressure(mode)
        .with_kv_capacity(CAPACITY / instances);
    let mut engine = system.build_engine(Some(&trace));
    let start = Instant::now();
    let outcome = engine.run(&trace);
    let wall_s = start.elapsed().as_secs_f64();
    let summary = RunSummary::from_records(
        policy,
        "ShareGPT burst",
        arrivals().mean_rate(),
        &outcome.records,
        &SloSpec::default_for_lwm(),
    );
    Sample {
        policy,
        wall_s,
        makespan_s: summary.makespan_s,
        completed: summary.completed,
        unfinished: outcome.unfinished,
        throughput_rps: summary.throughput_rps,
        preemptions: outcome.pressure.preemptions,
        swap_events: outcome.pressure.swap_out_events + outcome.pressure.swap_in_events,
        swap_gb: outcome.pressure.swap_bytes_total() / 1e9,
        stall_s: outcome.pressure.swap_stall_s,
        p50_s_per_token: summary.per_token_latency.p50,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let count = if smoke { SMOKE_COUNT } else { COUNT };

    banner(&format!(
        "KV memory pressure — bursty MMPP ShareGPT overload, {count} requests, \
         {CAPACITY} total KV slots{}",
        if smoke { " (smoke)" } else { "" }
    ));

    let samples = [
        ("recompute", SystemKind::Vllm, PressureMode::Recompute),
        ("swap", SystemKind::LoongServe, PressureMode::SwapToHost),
        ("vllm-off", SystemKind::Vllm, PressureMode::Off),
        ("loong-off", SystemKind::LoongServe, PressureMode::Off),
    ]
    .map(|(policy, kind, mode)| run_policy(policy, kind, mode, count));
    // Only the two pressure policies are gated.
    let gated = 2;

    let mut csv = String::from(
        "policy,wall_s,makespan_s,completed,unfinished,throughput_rps,preemptions,swap_events,swap_gb,stall_s,p50_s_per_token\n",
    );
    println!(
        "{:>10} {:>8} {:>11} {:>10} {:>11} {:>15} {:>11} {:>11} {:>8} {:>8} {:>10}",
        "policy",
        "wall_s",
        "makespan_s",
        "completed",
        "unfinished",
        "throughput_rps",
        "preemptions",
        "swap_events",
        "swap_gb",
        "stall_s",
        "p50_s/tok"
    );
    for (i, s) in samples.iter().enumerate() {
        println!(
            "{:>10} {:>8.3} {:>11.1} {:>10} {:>11} {:>15.2} {:>11} {:>11} {:>8.2} {:>8.3} {:>10.4}",
            s.policy,
            s.wall_s,
            s.makespan_s,
            s.completed,
            s.unfinished,
            s.throughput_rps,
            s.preemptions,
            s.swap_events,
            s.swap_gb,
            s.stall_s,
            s.p50_s_per_token
        );
        if i < gated {
            // The line CI greps for in the pressure smoke step.
            println!(
                "KV_PRESSURE policy={} completed={} unfinished={} preemptions={} swap_events={} trace_throughput_rps={:.2}",
                s.policy, s.completed, s.unfinished, s.preemptions, s.swap_events, s.throughput_rps
            );
        }
        csv.push_str(&format!(
            "{},{:.6},{:.3},{},{},{:.3},{},{},{:.4},{:.4},{:.6}\n",
            s.policy,
            s.wall_s,
            s.makespan_s,
            s.completed,
            s.unfinished,
            s.throughput_rps,
            s.preemptions,
            s.swap_events,
            s.swap_gb,
            s.stall_s,
            s.p50_s_per_token
        ));
    }

    if smoke {
        // Machine-readable, wall-clock-free metrics for the bench gate
        // (`cargo run -p xtask -- bench-gate BENCH_pressure.json`).
        let r = &samples[0];
        let w = &samples[1];
        println!(
            "BENCH_SMOKE_JSON {{\"benchmark\":\"kv_pressure\",\"recompute_completed\":{},\"recompute_unfinished\":{},\"recompute_preemptions\":{},\"swap_completed\":{},\"swap_unfinished\":{},\"swap_events\":{}}}",
            r.completed, r.unfinished, r.preemptions, w.completed, w.unfinished, w.swap_events
        );
    }

    let path = write_figure_csv("kv_pressure.csv", &csv);
    println!("\nCSV written to {}", path.display());
}
