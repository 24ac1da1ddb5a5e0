//! Service-level objectives, attainment and goodput.
//!
//! Following the paper (§7.1), systems are compared by the maximum request
//! rate they can sustain while keeping normalised latency within an SLO set
//! to a multiple (25×) of the unloaded inference latency. Figure 12 and 13a
//! additionally report **P90 goodput**: the highest request rate at which at
//! least 90% of requests meet the SLO.

use crate::record::{normalized, RequestRecord};
use loong_simcore::class::TrafficClass;
use loong_simcore::time::SimTime;

/// A latency service-level objective on normalised latencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Maximum acceptable normalised per-token latency (s/token).
    pub per_token_s: f64,
    /// Maximum acceptable normalised input latency (s/token).
    pub input_s: f64,
    /// Maximum acceptable normalised output latency (s/token).
    pub output_s: f64,
}

impl SloSpec {
    /// The scale factor the paper applies to the unloaded latency.
    pub const PAPER_SCALE: f64 = 25.0;

    /// Builds an SLO as `scale ×` a baseline (unloaded) latency profile.
    pub fn scaled_from_baseline(
        baseline_per_token_s: f64,
        baseline_input_s: f64,
        baseline_output_s: f64,
        scale: f64,
    ) -> Self {
        assert!(scale > 0.0, "SLO scale must be positive");
        SloSpec {
            per_token_s: baseline_per_token_s * scale,
            input_s: baseline_input_s * scale,
            output_s: baseline_output_s * scale,
        }
    }

    /// A generous default SLO for the LWM-1M model on A800s, used when no
    /// measured baseline is available: 25× a typical unloaded profile.
    pub fn default_for_lwm() -> Self {
        SloSpec::scaled_from_baseline(0.05, 0.002, 0.05, Self::PAPER_SCALE)
    }

    /// The SLO rule: whether a request that arrived at `arrival`, produced
    /// its first token at `first_token` and its last at `finish` met every
    /// bound, each latency normalised as the paper does (end to end per
    /// sequence token, arrival to first token per prompt token, first to
    /// last token per generated token). [`SloSpec::met_by`] judges a
    /// finished record by it, and the trace recorder each completion it
    /// sees.
    pub fn met(
        &self,
        arrival: SimTime,
        first_token: SimTime,
        finish: SimTime,
        input_len: u64,
        output_len: u64,
    ) -> bool {
        normalized(arrival, finish, input_len + output_len) <= self.per_token_s
            && normalized(arrival, first_token, input_len) <= self.input_s
            && normalized(first_token, finish, output_len) <= self.output_s
    }

    /// Returns true if a request met every component of the SLO.
    pub fn met_by(&self, r: &RequestRecord) -> bool {
        self.met(
            r.arrival,
            r.first_token,
            r.finish,
            r.input_len,
            r.output_len,
        )
    }

    /// Fraction of requests meeting the SLO (1.0 for an empty set, matching
    /// the convention that an idle system violates nothing).
    pub fn attainment(&self, records: &[RequestRecord]) -> f64 {
        if records.is_empty() {
            return 1.0;
        }
        let met = records.iter().filter(|r| self.met_by(r)).count();
        met as f64 / records.len() as f64
    }
}

/// The SLO a traffic class is judged by: `base` with every bound scaled by
/// [`TrafficClass::slo_scale`].
pub fn class_slo(base: &SloSpec, class: TrafficClass) -> SloSpec {
    let s = class.slo_scale();
    SloSpec {
        per_token_s: base.per_token_s * s,
        input_s: base.input_s * s,
        output_s: base.output_s * s,
    }
}

/// A single point on a rate-sweep curve: the offered load and the fraction
/// of requests that met the SLO at that load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPoint {
    /// Offered request rate in requests/second.
    pub request_rate: f64,
    /// Fraction of requests that met the SLO.
    pub attainment: f64,
    /// Achieved throughput in requests/second (completed / makespan).
    pub throughput: f64,
}

/// Computes the P-`target` goodput from a rate sweep: the highest offered
/// rate whose attainment is at least `target` (e.g. 0.9 for P90 goodput).
/// Linear interpolation is applied between the last passing and first
/// failing point, matching how goodput is usually read off such curves.
/// Returns 0.0 if even the lowest rate misses the target.
pub fn goodput(points: &[SloPoint], target: f64) -> f64 {
    assert!((0.0..=1.0).contains(&target), "target must be a fraction");
    let mut sorted: Vec<SloPoint> = points.to_vec();
    sorted.sort_by(|a, b| {
        a.request_rate
            .partial_cmp(&b.request_rate)
            .expect("rates are finite")
    });
    let mut best = 0.0f64;
    for i in 0..sorted.len() {
        if sorted[i].attainment >= target {
            best = sorted[i].request_rate;
        } else {
            // Interpolate between the previous passing point and this one.
            if i > 0 && sorted[i - 1].attainment >= target {
                let (lo, hi) = (sorted[i - 1], sorted[i]);
                let span = hi.attainment - lo.attainment;
                if span.abs() > 1e-12 {
                    let frac = (target - lo.attainment) / span;
                    best = best.max(lo.request_rate + frac * (hi.request_rate - lo.request_rate));
                }
            }
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use loong_simcore::ids::RequestId;
    use loong_simcore::time::SimTime;

    fn record(per_token: f64) -> RequestRecord {
        // 100-token sequence with the requested per-token latency; input and
        // output latencies scaled to stay comfortably within their SLOs.
        RequestRecord {
            id: RequestId(0),
            arrival: SimTime::ZERO,
            input_len: 50,
            output_len: 50,
            prefill_start: SimTime::ZERO,
            first_token: SimTime::from_secs(per_token * 25.0),
            finish: SimTime::from_secs(per_token * 100.0),
            preemptions: 0,
            class: Default::default(),
        }
    }

    fn slo() -> SloSpec {
        SloSpec {
            per_token_s: 1.0,
            input_s: 1.0,
            output_s: 2.0,
        }
    }

    #[test]
    fn attainment_counts_passing_requests() {
        let records = vec![record(0.5), record(0.9), record(1.5)];
        let a = slo().attainment(&records);
        assert!((a - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_set_attains_fully() {
        assert_eq!(slo().attainment(&[]), 1.0);
    }

    #[test]
    fn scaled_slo_multiplies_baseline() {
        let s = SloSpec::scaled_from_baseline(0.01, 0.001, 0.02, 25.0);
        assert!((s.per_token_s - 0.25).abs() < 1e-12);
        assert!((s.input_s - 0.025).abs() < 1e-12);
        assert!((s.output_s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn goodput_finds_the_knee() {
        let points = vec![
            SloPoint {
                request_rate: 1.0,
                attainment: 1.0,
                throughput: 1.0,
            },
            SloPoint {
                request_rate: 2.0,
                attainment: 0.95,
                throughput: 2.0,
            },
            SloPoint {
                request_rate: 4.0,
                attainment: 0.5,
                throughput: 3.0,
            },
        ];
        let g = goodput(&points, 0.9);
        // Interpolated between 2.0 (95%) and 4.0 (50%).
        assert!(g > 2.0 && g < 3.0, "goodput {g}");
    }

    #[test]
    fn goodput_zero_when_always_failing() {
        let points = vec![SloPoint {
            request_rate: 1.0,
            attainment: 0.1,
            throughput: 0.5,
        }];
        assert_eq!(goodput(&points, 0.9), 0.0);
    }

    #[test]
    fn goodput_full_when_never_failing() {
        let points = vec![
            SloPoint {
                request_rate: 1.0,
                attainment: 1.0,
                throughput: 1.0,
            },
            SloPoint {
                request_rate: 8.0,
                attainment: 0.93,
                throughput: 7.5,
            },
        ];
        assert_eq!(goodput(&points, 0.9), 8.0);
    }

    #[test]
    fn goodput_is_order_invariant() {
        let a = vec![
            SloPoint {
                request_rate: 4.0,
                attainment: 0.5,
                throughput: 3.0,
            },
            SloPoint {
                request_rate: 1.0,
                attainment: 1.0,
                throughput: 1.0,
            },
            SloPoint {
                request_rate: 2.0,
                attainment: 0.95,
                throughput: 2.0,
            },
        ];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(goodput(&a, 0.9), goodput(&b, 0.9));
    }
}
