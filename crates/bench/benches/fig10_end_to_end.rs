//! Figure 10 / §7.2: end-to-end comparison of LoongServe against vLLM,
//! DeepSpeed-MII (Dynamic SplitFuse), LightLLM w/ SplitFuse and DistServe on
//! the four workloads (ShareGPT, L-Eval, LV-Eval, Mixed), sweeping the
//! offered request rate and reporting normalised per-token / input / output
//! latency plus the headline throughput-improvement factors.

use loong_bench::{banner, write_figure_csv};
use loongserve::prelude::*;
use loongserve::report;

fn main() {
    let slo = SloSpec::default_for_lwm();
    let mut all_csv = String::new();

    for dataset in DatasetKind::all() {
        banner(&format!(
            "Figure 10 — {} (8 GPUs, single node)",
            dataset.name()
        ));
        // Sweep a subset of the paper's rate range, scaled to keep the whole
        // harness runnable in minutes.
        let rates: Vec<f64> = dataset.figure10_rates().into_iter().step_by(2).collect();
        // Short-request workloads need longer traces before queueing effects
        // appear; long-context workloads are already expensive per request.
        let requests_per_run = if dataset == DatasetKind::ShareGpt {
            240
        } else {
            60
        };
        let config = SweepConfig {
            workload: WorkloadSpec::Dataset(dataset),
            rates,
            requests_per_run,
            slo,
            seed: 10,
        };
        // DeepSpeed-MII only appears in the ShareGPT row (it fails on >32K
        // prompts in the paper; we mirror the omission).
        let systems: Vec<SystemKind> = SystemKind::figure10_systems()
            .into_iter()
            .filter(|s| *s != SystemKind::DeepSpeedMii || dataset == DatasetKind::ShareGpt)
            .collect();
        let results = compare_systems(&systems, &config, SystemUnderTest::paper_single_node);

        println!("\n{}", report::sweep_markdown(&results));
        println!("{}", report::goodput_markdown(&results));
        for baseline in [
            "vLLM (TP=8)",
            "LightLLM w/ SplitFuse",
            "DeepSpeed-MII (Dynamic SplitFuse)",
            "DistServe (Prefill-Decoding Disaggregation)",
        ] {
            if let Some(x) = report::throughput_improvement(&results, "LoongServe", baseline) {
                println!("LoongServe vs {baseline}: {x:.2}x sustained token throughput");
            }
        }
        all_csv.push_str(&report::sweep_csv(&results));
    }

    let path = write_figure_csv("fig10_end_to_end.csv", &all_csv);
    println!("\nCSV written to {}", path.display());
}
