//! The serving request model.
//!
//! A request arrives with a prompt of `input_len` tokens, is processed by a
//! single prefill iteration (possibly chunked by some baselines), and then
//! generates `output_len` tokens one decode iteration at a time. The
//! simulator knows the true output length up front (it is sampled with the
//! request), but schedulers are only allowed to see `max_output_len`, the
//! user-declared bound that the paper's dispatcher uses to reason about
//! future KV-cache consumption (§5.1).

use loong_simcore::ids::{ConversationId, RequestId};
use loong_simcore::time::SimTime;

// The class lives in the simulation core (so the metrics layer's records can
// carry it without a dependency cycle); it is re-exported here because the
// workload layer is where requests acquire their tags.
pub use loong_simcore::class::TrafficClass;

/// An immutable description of one serving request.
///
/// # Examples
///
/// ```
/// use loong_workload::request::Request;
/// use loong_simcore::ids::RequestId;
/// use loong_simcore::time::SimTime;
///
/// let r = Request::new(RequestId(0), SimTime::ZERO, 1000, 50);
/// assert_eq!(r.total_tokens(), 1050);
/// assert!(r.max_output_len >= r.output_len);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Unique identifier.
    pub id: RequestId,
    /// Arrival time at the serving frontend.
    pub arrival: SimTime,
    /// Number of prompt tokens.
    pub input_len: u64,
    /// True number of tokens the request will generate (hidden from
    /// schedulers until generation finishes).
    pub output_len: u64,
    /// Upper bound on the output length declared by the user; schedulers may
    /// use this for admission control.
    pub max_output_len: u64,
    /// The multi-turn conversation this request belongs to, if any. Turns of
    /// one conversation form strictly-growing prompt prefixes (each turn's
    /// prompt is the previous turn's full context plus the new user
    /// message), which is what the prefix-cache tier exploits. Single-shot
    /// requests carry `None`.
    pub conversation: Option<ConversationId>,
    /// Zero-based turn index within the conversation (0 for single-shot
    /// requests).
    pub turn: u32,
    /// The request's service class. Defaults to
    /// [`TrafficClass::Interactive`]; the admission controller sheds by
    /// class under saturation and per-class SLO reporting scales the base
    /// SLO by [`TrafficClass::slo_scale`].
    pub class: TrafficClass,
}

impl Request {
    /// Creates a request whose declared maximum equals its true output
    /// length rounded up to a coarse bucket (users rarely know the exact
    /// length, so the bound is generous).
    pub fn new(id: RequestId, arrival: SimTime, input_len: u64, output_len: u64) -> Self {
        assert!(
            input_len > 0,
            "requests must have at least one prompt token"
        );
        assert!(output_len > 0, "requests must generate at least one token");
        let max_output_len = output_len.next_power_of_two().max(64);
        Request {
            id,
            arrival,
            input_len,
            output_len,
            max_output_len,
            conversation: None,
            turn: 0,
            class: TrafficClass::default(),
        }
    }

    /// Tags the request as turn `turn` of `conversation`. Multi-turn traces
    /// use this so follow-up requests can be matched against the prefix
    /// cache and routed with conversation affinity.
    pub fn with_conversation(mut self, conversation: ConversationId, turn: u32) -> Self {
        self.conversation = Some(conversation);
        self.turn = turn;
        self
    }

    /// Tags the request with a service class (mixed-class traces use this;
    /// untagged requests default to [`TrafficClass::Interactive`]).
    pub fn with_class(mut self, class: TrafficClass) -> Self {
        self.class = class;
        self
    }

    /// Creates a request with an explicit declared output bound.
    ///
    /// # Panics
    ///
    /// Panics if `max_output_len < output_len` or any length is zero.
    pub fn with_max_output(
        id: RequestId,
        arrival: SimTime,
        input_len: u64,
        output_len: u64,
        max_output_len: u64,
    ) -> Self {
        assert!(input_len > 0 && output_len > 0, "lengths must be positive");
        assert!(
            max_output_len >= output_len,
            "declared bound {max_output_len} below true output length {output_len}"
        );
        Request {
            id,
            arrival,
            input_len,
            output_len,
            max_output_len,
            conversation: None,
            turn: 0,
            class: TrafficClass::default(),
        }
    }

    /// Total tokens the request will eventually hold in the KV cache.
    pub fn total_tokens(&self) -> u64 {
        self.input_len + self.output_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_bound_covers_true_output() {
        let r = Request::new(RequestId(1), SimTime::ZERO, 100, 37);
        assert!(r.max_output_len >= 37);
        assert_eq!(r.total_tokens(), 137);
        assert_eq!(r.conversation, None);
        assert_eq!(r.turn, 0);
    }

    #[test]
    fn conversation_tagging_sets_both_fields() {
        use loong_simcore::ids::ConversationId;
        let r = Request::new(RequestId(1), SimTime::ZERO, 100, 37)
            .with_conversation(ConversationId(4), 2);
        assert_eq!(r.conversation, Some(ConversationId(4)));
        assert_eq!(r.turn, 2);
    }

    #[test]
    fn default_class_is_interactive_and_tagging_overrides() {
        let r = Request::new(RequestId(1), SimTime::ZERO, 100, 37);
        assert_eq!(r.class, TrafficClass::Interactive);
        let r = r.with_class(TrafficClass::BestEffort);
        assert_eq!(r.class, TrafficClass::BestEffort);
    }

    #[test]
    fn shed_ranks_order_best_effort_first_and_scales_loosen() {
        assert_eq!(
            TrafficClass::all(),
            [
                TrafficClass::BestEffort,
                TrafficClass::Standard,
                TrafficClass::Interactive
            ]
        );
        assert!(TrafficClass::Interactive.slo_scale() < TrafficClass::Standard.slo_scale());
        assert!(TrafficClass::Standard.slo_scale() < TrafficClass::BestEffort.slo_scale());
        assert_eq!(TrafficClass::BestEffort.label(), "best-effort");
    }

    #[test]
    #[should_panic(expected = "at least one prompt token")]
    fn zero_input_rejected() {
        let _ = Request::new(RequestId(1), SimTime::ZERO, 0, 10);
    }

    #[test]
    #[should_panic(expected = "below true output length")]
    fn inconsistent_bound_rejected() {
        let _ = Request::with_max_output(RequestId(1), SimTime::ZERO, 10, 10, 5);
    }
}
