//! Figure 11: multi-node performance on a 16-GPU (two-node) cluster serving
//! the Mixed workload. LoongServe extends ESP across nodes (DoP up to 8),
//! while the baselines deploy one independent engine per node.

use loong_bench::{banner, write_figure_csv};
use loongserve::prelude::*;
use loongserve::report;

fn main() {
    banner("Figure 11 — multi-node (2 x 8 GPUs) performance on Mixed");
    let config = SweepConfig {
        workload: WorkloadSpec::Dataset(DatasetKind::Mixed),
        rates: vec![0.1, 0.3, 0.6, 0.9],
        requests_per_run: 60,
        slo: SloSpec::default_for_lwm(),
        seed: 11,
    };
    let systems = [
        SystemKind::LoongServe,
        SystemKind::Vllm,
        SystemKind::LightLlmSplitFuse,
    ];
    let results = compare_systems(&systems, &config, SystemUnderTest::paper_two_node);

    println!("\n{}", report::sweep_markdown(&results));
    println!("{}", report::goodput_markdown(&results));
    for baseline in ["vLLM (TP=8)", "LightLLM w/ SplitFuse"] {
        if let Some(x) = report::throughput_improvement(&results, "LoongServe", baseline) {
            println!("LoongServe vs {baseline}: {x:.2}x sustained token throughput");
        }
    }

    let path = write_figure_csv("fig11_multinode.csv", &report::sweep_csv(&results));
    println!("\nCSV written to {}", path.display());
}
