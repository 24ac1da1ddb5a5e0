//! Fleet-scaling benchmark: trace throughput as replicas are added.
//!
//! The fleet tier's reason to exist is horizontal scaling: N independent
//! LoongServe replicas behind the cluster router should serve an
//! overloaded trace ~N× faster than one replica. This bench runs the same
//! Poisson ShareGPT mix — offered well above single-replica capacity, so
//! every fleet size is work-bound — through 1, 2 and 4 replicas under
//! round-robin routing and reports **trace throughput**: completed
//! requests per simulated second of fleet makespan (earliest arrival to
//! latest completion across replicas). Near-linear speedup (≥1.8× at 2,
//! ≥3.2× at 4) is the acceptance bar; sub-linear results point at routing
//! imbalance, since the replicas themselves share nothing.
//!
//! Invocation (harness = false):
//!
//! ```text
//! cargo bench --bench fleet_scaling              # 1, 2, 4 and 8 replicas
//! cargo bench --bench fleet_scaling -- --smoke   # 1 and 2, smaller trace
//! ```
//!
//! The million-request streamed regime (crash-flushed frontend, bounded
//! memory) lives in `cargo bench --bench million_scale`, gated by
//! `BENCH_million.json`.
//!
//! Reference numbers for the current tree are checked in as
//! `BENCH_fleet.json` at the repository root.

use loong_bench::{banner, write_figure_csv};
use loongserve::prelude::*;
use std::time::Instant;

/// Offered ShareGPT rate (req/s): ~6× one replica's sustainable rate
/// (42.7 req/s recorded in `BENCH_fleet.json`), so even the 4-replica
/// fleet stays saturated and the comparison measures capacity, not
/// arrival spacing.
const RATE: f64 = 240.0;
const COUNT: usize = 9600;
const SMOKE_COUNT: usize = 800;
const SEED: u64 = 2025;

struct Sample {
    replicas: usize,
    wall_s: f64,
    makespan_s: f64,
    completed: usize,
    throughput_rps: f64,
    imbalance: f64,
}

fn run_fleet(replicas: usize, count: usize) -> Sample {
    let trace = WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(RATE, count, SEED);
    let mut config =
        FleetConfig::paper_fleet(SystemKind::LoongServe, replicas, RouterPolicy::RoundRobin);
    config.parallel = true;
    let mut fleet = FleetEngine::new(config);
    let stream = TraceStream::from_trace(trace.clone());
    let start = Instant::now();
    let outcome = fleet.run(stream, &FleetPlan::fixed(replicas), None);
    let outcome = outcome.expect("valid plan").fleet;
    let wall_s = start.elapsed().as_secs_f64();
    let summary = outcome.summary(
        "LoongServe fleet",
        "ShareGPT",
        RATE,
        &SloSpec::default_for_lwm(),
    );
    Sample {
        replicas,
        wall_s,
        makespan_s: summary.fleet.makespan_s,
        completed: summary.fleet.completed,
        throughput_rps: summary.fleet.throughput_rps,
        imbalance: summary.completion_imbalance(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sizes, count): (&[usize], usize) = if smoke {
        (&[1, 2], SMOKE_COUNT)
    } else {
        (&[1, 2, 4, 8], COUNT)
    };

    banner(&format!(
        "Fleet scaling — ShareGPT @ {RATE} req/s, {count} requests, round-robin router, \
         LoongServe replicas of 8 GPUs TP=2{}",
        if smoke { " (smoke)" } else { "" }
    ));

    let mut csv =
        String::from("replicas,wall_s,makespan_s,completed,throughput_rps,speedup,imbalance\n");
    println!(
        "{:>8} {:>9} {:>11} {:>10} {:>15} {:>8} {:>10}",
        "replicas", "wall_s", "makespan_s", "completed", "throughput_rps", "speedup", "imbalance"
    );
    let mut base_throughput = None;
    let mut samples: Vec<Sample> = Vec::new();
    for &replicas in sizes {
        let s = run_fleet(replicas, count);
        let base = *base_throughput.get_or_insert(s.throughput_rps);
        let speedup = s.throughput_rps / base;
        println!(
            "{:>8} {:>9.3} {:>11.1} {:>10} {:>15.2} {:>8.2} {:>10.3}",
            s.replicas, s.wall_s, s.makespan_s, s.completed, s.throughput_rps, speedup, s.imbalance
        );
        // The line CI greps for in the fleet perf smoke step.
        println!(
            "FLEET_SCALING replicas={} trace_throughput_rps={:.2} speedup_vs_1={:.2}",
            s.replicas, s.throughput_rps, speedup
        );
        csv.push_str(&format!(
            "{},{:.6},{:.3},{},{:.3},{:.3},{:.3}\n",
            s.replicas, s.wall_s, s.makespan_s, s.completed, s.throughput_rps, speedup, s.imbalance
        ));
        samples.push(s);
    }
    if smoke {
        // Machine-readable, wall-clock-free metrics for the bench gate
        // (`cargo run -p xtask -- bench-gate BENCH_fleet.json`). Makespans
        // are simulated seconds, so the 2-replica speedup is deterministic.
        let one = &samples[0];
        let two = &samples[1];
        println!(
            "BENCH_SMOKE_JSON {{\"benchmark\":\"fleet_scaling\",\"completed\":{},\"makespan_1_s\":{:.3},\"makespan_2_s\":{:.3},\"speedup_2\":{:.4}}}",
            one.completed + two.completed,
            one.makespan_s,
            two.makespan_s,
            one.makespan_s / two.makespan_s
        );
    }

    let path = write_figure_csv("fleet_scaling.csv", &csv);
    println!("\nCSV written to {}", path.display());
}
