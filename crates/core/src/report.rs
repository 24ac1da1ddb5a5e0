//! Report formatting: markdown and CSV output for experiment results.
//!
//! The figure-reproduction binaries in `loong-bench` print these tables so
//! a run of `cargo bench` (or the standalone binaries) regenerates every
//! table/figure of the paper in a diff-able text form, recorded in
//! `EXPERIMENTS.md`.

use crate::experiment::SweepResult;
use loong_metrics::summary::RunSummary;
use std::fmt::Write as _;

/// Renders a set of sweep results as a markdown table with one row per
/// (system, rate) pair — the tabular form of a Figure 10 panel.
pub fn sweep_markdown(results: &[SweepResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", RunSummary::markdown_header());
    for result in results {
        for summary in &result.summaries {
            let _ = writeln!(out, "{}", summary.markdown_row());
        }
    }
    out
}

/// Renders the P90-goodput comparison of a set of sweeps (the form of
/// Figures 12 and 13a).
pub fn goodput_markdown(results: &[SweepResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| system | workload | P90 goodput (req/s) | max fully-served rate (req/s) |"
    );
    let _ = writeln!(out, "|---|---|---|---|");
    for r in results {
        let _ = writeln!(
            out,
            "| {} | {} | {:.3} | {:.3} |",
            r.system, r.workload, r.p90_goodput, r.max_completed_rate
        );
    }
    out
}

/// Renders sweep results as CSV (one row per system and rate) for plotting.
pub fn sweep_csv(results: &[SweepResult]) -> String {
    let mut out = String::from(
        "system,workload,request_rate,completed,throughput_rps,throughput_tokens_per_s,per_token_latency_mean,input_latency_mean,output_latency_mean,slo_attainment\n",
    );
    for result in results {
        for s in &result.summaries {
            let _ = writeln!(
                out,
                "{},{},{},{},{:.6},{:.3},{:.6},{:.6},{:.6},{:.4}",
                escape_csv(&s.system),
                escape_csv(&s.workload),
                s.request_rate,
                s.completed,
                s.throughput_rps,
                s.throughput_tokens_per_s,
                s.per_token_latency.mean,
                s.input_latency.mean,
                s.output_latency.mean,
                s.slo_attainment
            );
        }
    }
    out
}

/// Computes the throughput improvement of `system` over `baseline` at each
/// system's best sustained rate — the "up to N×" headline numbers of §7.2.
pub fn throughput_improvement(
    results: &[SweepResult],
    system: &str,
    baseline: &str,
) -> Option<f64> {
    let best = |name: &str| -> Option<f64> {
        results
            .iter()
            .filter(|r| r.system == name)
            .map(|r| {
                r.summaries
                    .iter()
                    .filter(|s| s.slo_attainment >= 0.9 && s.completed > 0)
                    .map(|s| s.throughput_tokens_per_s)
                    .fold(0.0, f64::max)
            })
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.max(v)))
            })
    };
    let sys = best(system)?;
    let base = best(baseline)?;
    if base <= 0.0 {
        return None;
    }
    Some(sys / base)
}

fn escape_csv(field: &str) -> String {
    if field.contains(',') || field.contains('"') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loong_metrics::latency::LatencySummary;
    use loong_metrics::slo::SloPoint;

    fn summary(system: &str, rate: f64, tokens_per_s: f64, attainment: f64) -> RunSummary {
        RunSummary {
            system: system.to_string(),
            workload: "test".to_string(),
            request_rate: rate,
            completed: 10,
            makespan_s: 10.0,
            throughput_rps: 1.0,
            throughput_tokens_per_s: tokens_per_s,
            input_throughput_tokens_per_s: tokens_per_s * 0.9,
            per_token_latency: LatencySummary::from_values(&[0.01]),
            input_latency: LatencySummary::from_values(&[0.001]),
            output_latency: LatencySummary::from_values(&[0.02]),
            slo_attainment: attainment,
            preemptions: 0,
            pressure: loong_metrics::pressure::PressureStats::default(),
            cache: loong_metrics::cache::CacheStats::default(),
            attribution: loong_metrics::TimeAttribution::default(),
        }
    }

    fn sweep(system: &str, tokens: f64) -> SweepResult {
        SweepResult {
            system: system.to_string(),
            workload: "test".to_string(),
            summaries: vec![
                summary(system, 1.0, tokens, 1.0),
                summary(system, 2.0, tokens * 1.5, 0.95),
            ],
            slo_curve: vec![SloPoint {
                request_rate: 1.0,
                attainment: 1.0,
                throughput: 1.0,
            }],
            p90_goodput: 1.5,
            max_completed_rate: 2.0,
        }
    }

    #[test]
    fn markdown_tables_include_every_run() {
        let results = vec![sweep("LoongServe", 1000.0), sweep("vLLM (TP=8)", 400.0)];
        let md = sweep_markdown(&results);
        assert_eq!(md.lines().count(), 2 + 4, "header + separator + 4 rows");
        let gp = goodput_markdown(&results);
        assert!(gp.contains("LoongServe") && gp.contains("vLLM"));
    }

    #[test]
    fn csv_has_one_row_per_summary() {
        let results = vec![sweep("LoongServe", 1000.0)];
        let csv = sweep_csv(&results);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("system,"));
    }

    #[test]
    fn improvement_is_ratio_of_best_sustained_throughput() {
        let results = vec![sweep("LoongServe", 1000.0), sweep("vLLM (TP=8)", 400.0)];
        let imp =
            throughput_improvement(&results, "LoongServe", "vLLM (TP=8)").expect("both present");
        assert!((imp - 2.5).abs() < 1e-9);
        assert!(throughput_improvement(&results, "LoongServe", "missing").is_none());
    }

    #[test]
    fn csv_escaping_handles_commas() {
        let csv = sweep_csv(&[sweep("vLLM (TP=8), tuned \"hot\"", 400.0)]);
        assert!(csv.contains("\n\"vLLM (TP=8), tuned \"\"hot\"\"\",test,"));
    }
}
