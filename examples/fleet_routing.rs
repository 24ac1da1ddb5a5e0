//! Compare the fleet routing policies on a skewed long-context mix.
//!
//! Runs the same Zipf-reshaped Mixed trace — a few enormous prompts amid
//! many chat-sized ones, the regime where routing policy matters — through
//! a 4-replica LoongServe fleet under each policy, and reports fleet
//! throughput, latency and how evenly work landed across replicas.
//!
//! ```text
//! cargo run --release --example fleet_routing
//! ```

use loongserve::prelude::*;

fn main() {
    let replicas = 4;
    let rate = 12.0;
    let count = 240;
    let trace = WorkloadSpec::ZipfMixed { exponent: 1.2 }.generate(rate, count, 77);
    let stats = trace.stats();
    println!(
        "workload: {} requests, mean prompt {:.0} tokens, max prompt {} tokens\n",
        stats.count, stats.mean_input_len, stats.max_input_len
    );

    println!(
        "{:<22} {:>9} {:>10} {:>13} {:>11} {:>18}",
        "policy", "completed", "tput_rps", "p90_tok_lat_s", "imbalance", "assigned/replica"
    );
    for policy in RouterPolicy::all_policies() {
        let config = FleetConfig::paper_fleet(SystemKind::LoongServe, replicas, policy);
        let mut fleet = FleetEngine::new(config);
        let plan = FleetPlan::fixed(replicas);
        let stream = TraceStream::from_trace(trace.clone());
        let outcome = fleet.run(stream, &plan, None).expect("valid plan").fleet;
        let summary = outcome.summary(
            "LoongServe fleet",
            &trace.label,
            rate,
            &SloSpec::default_for_lwm(),
        );
        let assigned: Vec<String> = outcome
            .per_replica
            .iter()
            .map(|r| r.assigned.to_string())
            .collect();
        println!(
            "{:<22} {:>9} {:>10.2} {:>13.4} {:>11.2} {:>18}",
            fleet.router_name(),
            summary.fleet.completed,
            summary.fleet.throughput_rps,
            summary.fleet.per_token_latency.p90,
            summary.completion_imbalance(),
            assigned.join("/")
        );
    }

    println!(
        "\nAll four policies are deterministic (sorted tie-breaking; seeded probes for \
         power-of-two-choices): rerunning this example reproduces every number bit for bit."
    );
}
