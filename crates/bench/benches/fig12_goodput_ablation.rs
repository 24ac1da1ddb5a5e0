//! Figure 12: P90 goodput of LoongServe vs the static-parallelism ablations
//! (pure TP=8, static hybrid TP=2×SP=4, and four replicated TP=2 engines)
//! under Zipf-reshaped Mixed workloads capped at 200K tokens.

use loong_bench::{banner, write_figure_csv};
use loongserve::prelude::*;
use loongserve::report;

fn main() {
    let mut csv = String::new();
    for &zipf in &[1.0f64, 1.2, 1.4] {
        banner(&format!("Figure 12 — P90 goodput, Mixed with Zipf={zipf}"));
        // Steeper Zipf exponents skew towards short requests and sustain
        // higher rates, as in the paper's three panels.
        let rates: Vec<f64> = match zipf {
            z if z < 1.1 => vec![0.3, 0.8, 1.5, 2.5, 4.0],
            z if z < 1.3 => vec![0.5, 1.5, 3.0, 5.0, 8.0],
            _ => vec![1.0, 3.0, 6.0, 9.0, 14.0],
        };
        let config = SweepConfig {
            workload: WorkloadSpec::ZipfMixed { exponent: zipf },
            rates,
            requests_per_run: 80,
            slo: SloSpec::default_for_lwm(),
            seed: 12,
        };
        let results = compare_systems(
            &SystemKind::figure12_systems(),
            &config,
            SystemUnderTest::paper_single_node,
        );
        println!("\n{}", report::goodput_markdown(&results));
        let loong = results
            .iter()
            .find(|r| r.system == "LoongServe")
            .map(|r| r.p90_goodput)
            .unwrap_or(0.0);
        for r in &results {
            if r.system != "LoongServe" && r.p90_goodput > 0.0 {
                println!(
                    "LoongServe vs {}: {:.2}x P90 goodput",
                    r.system,
                    loong / r.p90_goodput
                );
            }
        }
        csv.push_str(&report::sweep_csv(&results));
    }
    let path = write_figure_csv("fig12_goodput_ablation.csv", &csv);
    println!("\nCSV written to {}", path.display());
}
