//! Per-run summaries and comparison helpers.
//!
//! A [`RunSummary`] condenses the request records of one simulation run into
//! the metrics the paper reports: mean normalised per-token / input / output
//! latency, throughput, and SLO attainment. The figure-reproduction benches
//! assemble tables of these summaries across systems and request rates.

use crate::attribution::TimeAttribution;
use crate::cache::CacheStats;
use crate::latency::LatencySummary;
use crate::pressure::PressureStats;
use crate::record::RequestRecord;
use crate::slo::SloSpec;

/// Aggregated metrics of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Label of the serving system that produced the run.
    pub system: String,
    /// Label of the workload that was served.
    pub workload: String,
    /// Offered request rate in requests/second.
    pub request_rate: f64,
    /// Number of completed requests.
    pub completed: usize,
    /// Simulated makespan (first arrival to last completion) in seconds.
    pub makespan_s: f64,
    /// Achieved throughput in requests/second.
    pub throughput_rps: f64,
    /// Achieved throughput in total (input + output) tokens per second.
    pub throughput_tokens_per_s: f64,
    /// Input-token throughput in tokens/second.
    pub input_throughput_tokens_per_s: f64,
    /// Summary of normalised per-token latency (s/token).
    pub per_token_latency: LatencySummary,
    /// Summary of normalised input latency (s/token).
    pub input_latency: LatencySummary,
    /// Summary of normalised output latency (s/token).
    pub output_latency: LatencySummary,
    /// Fraction of requests meeting the SLO used for the run.
    pub slo_attainment: f64,
    /// Total number of preemptions across requests.
    pub preemptions: u64,
    /// Memory-pressure counters for the run (all-zero when the run never
    /// crossed a pressure watermark). Record-derived constructors leave
    /// this at zero; callers holding engine-level counters attach them via
    /// [`RunSummary::with_pressure`].
    pub pressure: PressureStats,
    /// Prefix-cache counters for the run (all-zero when the tier is
    /// disabled or never reused a prefix). Attached via
    /// [`RunSummary::with_cache`], like the pressure block.
    pub cache: CacheStats,
    /// Per-phase, per-class simulated-time attribution (all-zero unless a
    /// tracing recorder observed the run). Attached via
    /// [`RunSummary::with_attribution`].
    pub attribution: TimeAttribution,
}

impl RunSummary {
    /// Builds a summary from request records.
    ///
    /// Returns an all-zero summary when no requests completed (the caller
    /// typically treats that as an overloaded or failed run).
    pub fn from_records(
        system: impl Into<String>,
        workload: impl Into<String>,
        request_rate: f64,
        records: &[RequestRecord],
        slo: &SloSpec,
    ) -> Self {
        let system = system.into();
        let workload = workload.into();
        if records.is_empty() {
            return RunSummary {
                system,
                workload,
                request_rate,
                completed: 0,
                makespan_s: 0.0,
                throughput_rps: 0.0,
                throughput_tokens_per_s: 0.0,
                input_throughput_tokens_per_s: 0.0,
                per_token_latency: LatencySummary::empty(),
                input_latency: LatencySummary::empty(),
                output_latency: LatencySummary::empty(),
                slo_attainment: 0.0,
                preemptions: 0,
                pressure: PressureStats::default(),
                cache: CacheStats::default(),
                attribution: TimeAttribution::default(),
            };
        }
        let first_arrival = records
            .iter()
            .map(|r| r.arrival)
            .min()
            .expect("non-empty records");
        let last_finish = records
            .iter()
            .map(|r| r.finish)
            .max()
            .expect("non-empty records");
        let makespan_s = last_finish
            .saturating_since(first_arrival)
            .as_secs()
            .max(1e-9);
        let total_tokens: u64 = records.iter().map(|r| r.sequence_len()).sum();
        let total_input: u64 = records.iter().map(|r| r.input_len).sum();

        let per_token: Vec<f64> = records
            .iter()
            .map(|r| r.normalized_per_token_latency())
            .collect();
        let input: Vec<f64> = records
            .iter()
            .map(|r| r.normalized_input_latency())
            .collect();
        let output: Vec<f64> = records
            .iter()
            .map(|r| r.normalized_output_latency())
            .collect();

        RunSummary {
            system,
            workload,
            request_rate,
            completed: records.len(),
            makespan_s,
            throughput_rps: records.len() as f64 / makespan_s,
            throughput_tokens_per_s: total_tokens as f64 / makespan_s,
            input_throughput_tokens_per_s: total_input as f64 / makespan_s,
            per_token_latency: LatencySummary::from_values(&per_token),
            input_latency: LatencySummary::from_values(&input),
            output_latency: LatencySummary::from_values(&output),
            slo_attainment: slo.attainment(records),
            preemptions: records.iter().map(|r| u64::from(r.preemptions)).sum(),
            pressure: PressureStats::default(),
            cache: CacheStats::default(),
            attribution: TimeAttribution::default(),
        }
    }

    /// Attaches engine-level memory-pressure counters to the summary.
    pub fn with_pressure(mut self, pressure: PressureStats) -> Self {
        self.pressure = pressure;
        self
    }

    /// Attaches engine-level prefix-cache counters to the summary.
    pub fn with_cache(mut self, cache: CacheStats) -> Self {
        self.cache = cache;
        self
    }

    /// Attaches a tracing recorder's per-phase time attribution.
    pub fn with_attribution(mut self, attribution: TimeAttribution) -> Self {
        self.attribution = attribution;
        self
    }

    /// One line of a markdown comparison table.
    pub fn markdown_row(&self) -> String {
        format!(
            "| {} | {} | {:.3} | {} | {:.1} | {:.4} | {:.4} | {:.4} | {:.1}% |",
            self.system,
            self.workload,
            self.request_rate,
            self.completed,
            self.throughput_tokens_per_s,
            self.per_token_latency.mean,
            self.input_latency.mean,
            self.output_latency.mean,
            self.slo_attainment * 100.0
        )
    }

    /// Header matching [`Self::markdown_row`].
    pub fn markdown_header() -> String {
        "| system | workload | rate (req/s) | completed | tok/s | per-token (s) | input (s/tok) | output (s/tok) | SLO |\n|---|---|---|---|---|---|---|---|---|".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loong_simcore::ids::RequestId;
    use loong_simcore::time::SimTime;

    fn record(i: u64, arrival: f64, finish: f64) -> RequestRecord {
        RequestRecord {
            id: RequestId(i),
            arrival: SimTime::from_secs(arrival),
            input_len: 100,
            output_len: 10,
            prefill_start: SimTime::from_secs(arrival + 0.1),
            first_token: SimTime::from_secs(arrival + 0.5),
            finish: SimTime::from_secs(finish),
            preemptions: 1,
            class: Default::default(),
        }
    }

    fn slo() -> SloSpec {
        SloSpec {
            per_token_s: 10.0,
            input_s: 10.0,
            output_s: 10.0,
        }
    }

    #[test]
    fn summary_aggregates_throughput_and_latency() {
        let records = vec![record(0, 0.0, 2.0), record(1, 1.0, 5.0)];
        let s = RunSummary::from_records("LoongServe", "test", 1.0, &records, &slo());
        assert_eq!(s.completed, 2);
        assert!((s.makespan_s - 5.0).abs() < 1e-9);
        assert!((s.throughput_rps - 0.4).abs() < 1e-9);
        assert!((s.throughput_tokens_per_s - 220.0 / 5.0).abs() < 1e-9);
        assert_eq!(s.preemptions, 2);
        assert_eq!(s.slo_attainment, 1.0);
        assert!(s.per_token_latency.mean > 0.0);
    }

    #[test]
    fn empty_run_is_all_zero() {
        let s = RunSummary::from_records("X", "w", 2.0, &[], &slo());
        assert_eq!(s.completed, 0);
        assert_eq!(s.throughput_rps, 0.0);
        assert_eq!(s.slo_attainment, 0.0);
    }

    #[test]
    fn markdown_row_mentions_system_and_workload() {
        let records = vec![record(0, 0.0, 2.0)];
        let s = RunSummary::from_records("vLLM", "ShareGPT", 5.0, &records, &slo());
        let row = s.markdown_row();
        assert!(row.contains("vLLM"));
        assert!(row.contains("ShareGPT"));
        assert!(RunSummary::markdown_header().starts_with("| system"));
    }
}
