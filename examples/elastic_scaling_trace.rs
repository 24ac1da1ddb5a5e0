//! Trace the elastic scaling decisions LoongServe makes under a bursty
//! ShareGPT-style workload.
//!
//! ```bash
//! cargo run --release --example elastic_scaling_trace
//! ```
//!
//! ShareGPT requests have short prompts and long outputs, so the decode
//! phase keeps growing and triggers frequent elastic scale-ups (the
//! behaviour behind Figure 13 of the paper). The example prints a
//! per-10-second histogram of scale-up operations together with the
//! proactive scale-downs performed at prefill/decode boundaries.

use loongserve::prelude::*;

fn main() {
    let rate = 20.0;
    let system = SystemUnderTest::paper_single_node(SystemKind::LoongServe);
    let workload = WorkloadSpec::Dataset(DatasetKind::ShareGpt);
    let trace = workload.generate(rate, 400, 1234);
    let slo = SloSpec::default_for_lwm();

    let (summary, outcome) = system.run(&trace, rate, &slo);

    println!(
        "ShareGPT at {rate} req/s: {} requests completed in {:.1} simulated seconds",
        summary.completed, summary.makespan_s
    );
    println!(
        "SLO attainment {:.1}%, mean output latency {:.4} s/token\n",
        summary.slo_attainment * 100.0,
        summary.output_latency.mean
    );

    // Bin the scale-up events into 10-second intervals, as in Figure 13b.
    let mut scale_ups = BinnedCounter::new(10.0);
    let mut scale_downs = BinnedCounter::new(10.0);
    for event in &outcome.scaling_events {
        match event.kind {
            ScalingEventKind::ScaleUp => scale_ups.record(event.at),
            ScalingEventKind::ProactiveScaleDown => scale_downs.record(event.at),
        }
    }

    println!("elastic scale-up operations per 10 s interval:");
    let max = scale_ups.max_per_bin().max(1);
    for (i, &count) in scale_ups.bins().iter().enumerate() {
        let bar = "#".repeat((count * 40 / max) as usize);
        println!(
            "  [{:>4}-{:<4}s] {:>3} {}",
            i * 10,
            (i + 1) * 10,
            count,
            bar
        );
    }
    println!(
        "\ntotal: {} scale-ups (mean {:.2} per 10 s), {} proactive scale-downs",
        scale_ups.total(),
        scale_ups.mean_per_bin(),
        scale_downs.total()
    );
    println!(
        "KV bytes migrated: {:.3} GB — elastic scaling itself migrates nothing",
        outcome.migration_bytes / 1e9
    );
}
