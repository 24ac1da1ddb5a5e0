//! Engine-scaling benchmark: wall-clock cost of the serving-engine run loop
//! as the trace length grows.
//!
//! The global manager must decide inside an iteration-scale budget of tens
//! of milliseconds (paper §5), and the simulator's north star is replaying
//! million-request traces at hardware speed. This bench measures the only
//! number that matters for that goal: **simulated requests per wall-clock
//! second** on ShareGPT traces of 1k / 4k / 16k requests. A run loop that
//! costs O(all requests) per scheduling point shows up here as throughput
//! collapsing with trace length; an O(active) loop keeps it flat.
//!
//! Invocation (harness = false):
//!
//! ```text
//! cargo bench --bench engine_scaling              # 1k, 4k, 16k and 64k traces
//! cargo bench --bench engine_scaling -- --smoke   # 1k only (CI perf smoke)
//! ```
//!
//! The full million-request regime (streamed workload, 8-replica fleet,
//! staggered crashes) lives in `cargo bench --bench million_scale`,
//! gated by `BENCH_million.json`.
//!
//! Reference numbers for the current tree are checked in as
//! `BENCH_engine.json` at the repository root.

use loong_bench::{banner, write_figure_csv};
use loongserve::prelude::*;
use std::time::Instant;

/// Offered ShareGPT rate (req/s). Chosen so the paper's single-node
/// configuration keeps up: the active set stays bounded while the trace
/// length grows, which is exactly the regime where per-point O(all
/// requests) scans dominate.
const RATE: f64 = 8.0;
const SEED: u64 = 2024;

struct Sample {
    requests: usize,
    wall_s: f64,
    sim_s: f64,
    iterations: u64,
    /// Scheduling points: `RunOutcome::scheduler_calls`.
    scheduler_calls: u64,
    /// Scheduler calls made at them: the points less the certified repeats.
    sched_calls: u64,
    completed: usize,
    req_per_wall_s: f64,
}

fn run_size(count: usize) -> Sample {
    let trace = WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(RATE, count, SEED);
    let system = SystemUnderTest::paper_single_node(SystemKind::LoongServe);
    let mut engine = system.build_engine(Some(&trace));
    let profile = SelfProfile::start();
    let start = Instant::now();
    let outcome = engine.run(&trace);
    let wall_s = start.elapsed().as_secs_f64();
    let sched_calls = profile.report().counters.sched_calls;
    Sample {
        requests: count,
        wall_s,
        sim_s: outcome.sim_time.as_secs(),
        iterations: outcome.iterations,
        scheduler_calls: outcome.scheduler_calls,
        sched_calls,
        completed: outcome.records.len(),
        req_per_wall_s: count as f64 / wall_s.max(1e-9),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes: &[usize] = if smoke {
        &[1_000]
    } else {
        &[1_000, 4_000, 16_000, 64_000]
    };

    banner(&format!(
        "Engine scaling — ShareGPT @ {RATE} req/s, LoongServe, 8 GPUs TP=2{}",
        if smoke { " (smoke: 1k only)" } else { "" }
    ));

    let mut csv = String::from("requests,wall_s,sim_s,iterations,scheduler_calls,req_per_wall_s\n");
    println!(
        "{:>9} {:>10} {:>10} {:>11} {:>11} {:>11} {:>10} {:>16}",
        "requests",
        "wall_s",
        "sim_s",
        "iterations",
        "sched_pts",
        "sched_calls",
        "completed",
        "req_per_wall_s"
    );
    for &count in sizes {
        let s = run_size(count);
        println!(
            "{:>9} {:>10.3} {:>10.1} {:>11} {:>11} {:>11} {:>10} {:>16.1}",
            s.requests,
            s.wall_s,
            s.sim_s,
            s.iterations,
            s.scheduler_calls,
            s.sched_calls,
            s.completed,
            s.req_per_wall_s
        );
        // The line CI greps for in the perf smoke step.
        println!(
            "ENGINE_SCALING requests={} simulated_requests_per_wall_second={:.1}",
            s.requests, s.req_per_wall_s
        );
        if smoke {
            // Machine-readable, wall-clock-free metrics for the bench gate
            // (`cargo run -p xtask -- bench-gate BENCH_engine.json`).
            println!(
                "BENCH_SMOKE_JSON {{\"benchmark\":\"engine_scaling\",\"requests\":{},\"completed\":{},\"iterations\":{},\"scheduler_calls\":{},\"sched_calls\":{},\"sim_s\":{:.3}}}",
                s.requests, s.completed, s.iterations, s.scheduler_calls, s.sched_calls, s.sim_s
            );
        }
        csv.push_str(&format!(
            "{},{:.6},{:.3},{},{},{:.1}\n",
            s.requests, s.wall_s, s.sim_s, s.iterations, s.scheduler_calls, s.req_per_wall_s
        ));
    }

    let path = write_figure_csv("engine_scaling.csv", &csv);
    println!("\nCSV written to {}", path.display());
}
