//! Figure 13: the elastic scale-up ablation.
//!
//! (a) SLO attainment / goodput of LoongServe with and without elastic
//!     scale-up on ShareGPT (short prompts, long outputs).
//! (b) The number of scale-up operations triggered per 10-second interval
//!     at a high request rate, and the run's proactive scale-downs.

use loong_bench::{banner, write_figure_csv};
use loongserve::prelude::*;
use loongserve::report;

fn main() {
    banner("Figure 13a — SLO attainment with vs without elastic scale-up (ShareGPT)");
    let config = SweepConfig {
        workload: WorkloadSpec::Dataset(DatasetKind::ShareGpt),
        rates: vec![10.0, 20.0, 30.0, 45.0, 60.0],
        requests_per_run: 300,
        slo: SloSpec::default_for_lwm(),
        seed: 13,
    };
    let systems = [SystemKind::LoongServe, SystemKind::LoongServeNoScaleUp];
    let results = compare_systems(&systems, &config, SystemUnderTest::paper_single_node);
    println!("\n{}", report::sweep_markdown(&results));
    println!("{}", report::goodput_markdown(&results));
    let with = results
        .iter()
        .find(|r| r.system == "LoongServe")
        .map(|r| r.p90_goodput)
        .unwrap_or(0.0);
    let without = results
        .iter()
        .find(|r| r.system.contains("w/o Elastic Scale-up"))
        .map(|r| r.p90_goodput)
        .unwrap_or(0.0);
    if without > 0.0 {
        println!(
            "elastic scale-up improves P90 goodput by {:.2}x (paper reports 2.87x)",
            with / without
        );
    }
    let mut csv = report::sweep_csv(&results);

    banner("Figure 13b — scale-up operations per 10 s interval (ShareGPT)");
    let rate = 45.0;
    let trace = WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(rate, 600, 13);
    let system = SystemUnderTest::paper_single_node(SystemKind::LoongServe);
    let (_summary, outcome) = system.run(&trace, rate, &SloSpec::default_for_lwm());
    let mut counter = BinnedCounter::new(10.0);
    let mut scale_downs = 0;
    for e in &outcome.scaling_events {
        match e.kind {
            ScalingEventKind::ScaleUp => counter.record(e.at),
            ScalingEventKind::ProactiveScaleDown => scale_downs += 1,
        }
    }
    println!("interval_start_s,scale_ups");
    csv.push_str("\ninterval_start_s,scale_ups\n");
    for (i, &count) in counter.bins().iter().enumerate() {
        println!("{},{count}", i * 10);
        csv.push_str(&format!("{},{count}\n", i * 10));
    }
    println!(
        "\nmean {:.2} scale-ups per 10 s, max {} (paper reports mean 7.12 at 25 req/s on its hardware)",
        counter.mean_per_bin(),
        counter.max_per_bin()
    );
    println!("{scale_downs} proactive scale-downs over the run");

    let path = write_figure_csv("fig13_scaleup_ablation.csv", &csv);
    println!("CSV written to {}", path.display());
}
