//! Per-request latency records.
//!
//! The serving engine fills in one [`RequestRecord`] per request as it moves
//! through the system. All of the paper's metrics — normalised per-token
//! latency, normalised input (prefill) latency, normalised output (decode)
//! latency, SLO attainment and goodput — derive from these records.

use loong_simcore::class::TrafficClass;
use loong_simcore::ids::RequestId;
use loong_simcore::time::SimTime;

/// The lifecycle timestamps and sizes of one served request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// Request identifier.
    pub id: RequestId,
    /// Arrival at the serving frontend.
    pub arrival: SimTime,
    /// Prompt length in tokens.
    pub input_len: u64,
    /// Generated length in tokens.
    pub output_len: u64,
    /// Instant the prefill iteration containing this request started.
    pub prefill_start: SimTime,
    /// Instant the first output token was produced (end of prefill).
    pub first_token: SimTime,
    /// Instant the last output token was produced.
    pub finish: SimTime,
    /// Number of times the request was preempted/evicted and later resumed.
    pub preemptions: u32,
    /// The service class the request arrived under — carried through from
    /// the request so per-class reporting never needs the originating trace
    /// (streamed runs have no materialised trace to look classes up in).
    /// Defaults to [`TrafficClass::Interactive`], the class of every
    /// pre-elasticity record.
    pub class: TrafficClass,
}

impl RequestRecord {
    /// End-to-end latency from arrival to the last token.
    pub fn end_to_end_latency(&self) -> f64 {
        self.finish.saturating_since(self.arrival).as_secs()
    }

    /// Queueing delay from arrival until the prefill phase started.
    pub fn queueing_delay(&self) -> f64 {
        self.prefill_start.saturating_since(self.arrival).as_secs()
    }

    /// Input (prefill-phase) latency: arrival to first output token. This is
    /// the "time to first token" the paper normalises by the input length.
    pub fn input_latency(&self) -> f64 {
        self.first_token.saturating_since(self.arrival).as_secs()
    }

    /// Output (decode-phase) latency: first token to last token.
    pub fn output_latency(&self) -> f64 {
        self.finish.saturating_since(self.first_token).as_secs()
    }

    /// Total sequence length (prompt + generated).
    pub fn sequence_len(&self) -> u64 {
        self.input_len + self.output_len
    }

    /// End-to-end latency divided by the sequence length (the paper's
    /// "normalised per-token latency").
    pub fn normalized_per_token_latency(&self) -> f64 {
        normalized(self.arrival, self.finish, self.sequence_len())
    }

    /// Input latency divided by the input length (the paper's "normalised
    /// input latency").
    pub fn normalized_input_latency(&self) -> f64 {
        normalized(self.arrival, self.first_token, self.input_len)
    }

    /// Output latency divided by the output length (the paper's "normalised
    /// output latency").
    pub fn normalized_output_latency(&self) -> f64 {
        normalized(self.first_token, self.finish, self.output_len)
    }

    /// Validates that the timestamps are causally ordered.
    pub fn validate(&self) -> Result<(), String> {
        if self.prefill_start < self.arrival {
            return Err(format!("{}: prefill started before arrival", self.id));
        }
        if self.first_token < self.prefill_start {
            return Err(format!("{}: first token before prefill start", self.id));
        }
        if self.finish < self.first_token {
            return Err(format!("{}: finished before first token", self.id));
        }
        Ok(())
    }
}

/// The seconds from `from` to `to` per token of `tokens` (at least one):
/// how the paper normalises each latency.
pub(crate) fn normalized(from: SimTime, to: SimTime, tokens: u64) -> f64 {
    to.saturating_since(from).as_secs() / tokens.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> RequestRecord {
        RequestRecord {
            id: RequestId(0),
            arrival: SimTime::from_secs(1.0),
            input_len: 1000,
            output_len: 100,
            prefill_start: SimTime::from_secs(2.0),
            first_token: SimTime::from_secs(4.0),
            finish: SimTime::from_secs(9.0),
            preemptions: 0,
            class: TrafficClass::default(),
        }
    }

    #[test]
    fn latencies_derive_from_timestamps() {
        let r = record();
        assert_eq!(r.end_to_end_latency(), 8.0);
        assert_eq!(r.queueing_delay(), 1.0);
        assert_eq!(r.input_latency(), 3.0);
        assert_eq!(r.output_latency(), 5.0);
        assert_eq!(r.sequence_len(), 1100);
    }

    #[test]
    fn normalized_metrics_divide_by_lengths() {
        let r = record();
        assert!((r.normalized_per_token_latency() - 8.0 / 1100.0).abs() < 1e-12);
        assert!((r.normalized_input_latency() - 3.0 / 1000.0).abs() < 1e-12);
        assert!((r.normalized_output_latency() - 5.0 / 100.0).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_causality_violations() {
        let mut r = record();
        assert!(r.validate().is_ok());
        r.first_token = SimTime::from_secs(1.5);
        assert!(r.validate().is_err());
    }
}
