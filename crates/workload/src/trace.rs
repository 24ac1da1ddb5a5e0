//! Workload traces: a concrete list of requests fed to a serving system.
//!
//! A [`Trace`] combines a dataset sampler with an arrival process into the
//! exact sequence of requests a simulation run will serve. Every system
//! under comparison replays the same in-memory trace — the property that
//! makes the Figure 10/11/12 comparisons apples-to-apples.

use crate::arrival::ArrivalProcess;
use crate::datasets::{DatasetKind, MixedClassProfile, MultiTurnProfile};
use crate::request::Request;
use crate::stream::TraceStream;
use loong_simcore::rng::SimRng;

/// A fully materialised workload trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Short description of how the trace was generated.
    pub label: String,
    /// Requests sorted by arrival time.
    pub requests: Vec<Request>,
}

/// Aggregate statistics of a trace, used in experiment reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Number of requests.
    pub count: usize,
    /// Mean prompt length in tokens.
    pub mean_input_len: f64,
    /// Maximum prompt length in tokens.
    pub max_input_len: u64,
    /// Mean output length in tokens.
    pub mean_output_len: f64,
    /// Maximum output length in tokens.
    pub max_output_len: u64,
    /// Mean arrival rate over the trace duration, in requests/second.
    pub mean_arrival_rate: f64,
    /// Total prompt tokens across the trace.
    pub total_input_tokens: u64,
    /// Total generated tokens across the trace.
    pub total_output_tokens: u64,
}

impl Trace {
    /// Generates a trace of `count` requests from a standard dataset with a
    /// given arrival process.
    ///
    /// This is the collected form of [`TraceStream::dataset`]; prefer the
    /// stream when the trace is only consumed once in arrival order.
    pub fn generate(
        dataset: DatasetKind,
        arrivals: ArrivalProcess,
        count: usize,
        rng: &mut SimRng,
    ) -> Self {
        TraceStream::dataset(dataset, arrivals, count, rng).collect_trace()
    }

    /// Generates a Figure-12-style trace: the Mixed dataset reshaped by a
    /// Zipf exponent and capped at 200K input tokens.
    pub fn generate_zipf_mixed(
        exponent: f64,
        arrivals: ArrivalProcess,
        count: usize,
        rng: &mut SimRng,
    ) -> Self {
        TraceStream::zipf_mixed(exponent, arrivals, count, rng).collect_trace()
    }

    /// Generates a multi-turn conversation trace: `conversations`
    /// conversations start according to `arrivals`, each runs for a
    /// geometric number of turns (per `profile`), and every follow-up
    /// turn's prompt is the previous turn's **full context** (prompt +
    /// generated output) plus a freshly sampled user message — so turns of
    /// one conversation form strictly-growing prompt prefixes, the shape
    /// the prefix-cache tier reuses. Follow-ups arrive one sampled think
    /// time after the previous turn.
    ///
    /// Requests across all conversations are interleaved in arrival order
    /// and ids are assigned in that order, so the trace replays exactly
    /// like any single-shot trace; each request carries its
    /// `(conversation, turn)` tag.
    pub fn generate_multi_turn(
        dataset: DatasetKind,
        profile: &MultiTurnProfile,
        arrivals: ArrivalProcess,
        conversations: usize,
        rng: &mut SimRng,
    ) -> Self {
        TraceStream::multi_turn(dataset, profile, arrivals, conversations, rng).collect_trace()
    }

    /// Generates a mixed traffic-class trace for overload studies: each of
    /// the `count` arrival events of `arrivals` is classified per
    /// `profile` into one of three streams —
    ///
    /// * **interactive** (the remainder): one ShareGPT-shaped request;
    /// * **long-document**: one L-Eval-shaped request tagged
    ///   [`TrafficClass::BestEffort`](crate::request::TrafficClass::BestEffort);
    /// * **multi-turn**: the event starts a
    ///   [`TrafficClass::Standard`](crate::request::TrafficClass::Standard)
    ///   conversation whose follow-up turns (growing-context prompts, think
    ///   times, geometric rounds as in [`Trace::generate_multi_turn`])
    ///   arrive *after* the event, so the final trace has at least `count`
    ///   requests.
    ///
    /// Requests are interleaved in arrival order and ids assigned in that
    /// order; every request carries its class tag (and conversation tag for
    /// multi-turn requests).
    pub fn generate_mixed_classes(
        arrivals: ArrivalProcess,
        count: usize,
        profile: &MixedClassProfile,
        rng: &mut SimRng,
    ) -> Self {
        TraceStream::mixed_classes(arrivals, count, profile, rng).collect_trace()
    }

    /// Builds a trace from explicit requests, stably sorted by arrival.
    /// Requests already in arrival order — every fleet bucket routed
    /// without a deferral — skip the sort and its scratch buffer, which for
    /// a long bucket is as large as the bucket itself.
    pub fn from_requests(label: impl Into<String>, mut requests: Vec<Request>) -> Self {
        if !requests.is_sorted_by_key(|r| r.arrival) {
            requests.sort_by_key(|r| r.arrival);
        }
        Trace {
            label: label.into(),
            requests,
        }
    }

    /// Splits the trace into one sub-trace per replica according to a
    /// per-request assignment (the output of a fleet router).
    ///
    /// `assignment[i]` is the replica serving `self.requests[i]`. Each
    /// sub-trace keeps its requests in the original arrival order with
    /// their original ids, so replaying sub-trace *r* on replica *r*
    /// serves exactly the requests routed there — splitting never drops,
    /// duplicates or reorders a request. Empty sub-traces are produced for
    /// replicas that received nothing.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` does not have one entry per request or names
    /// a replica `>= replicas`.
    pub fn split_by_assignment(&self, replicas: usize, assignment: &[usize]) -> Vec<Trace> {
        assert!(replicas > 0, "a fleet needs at least one replica");
        assert_eq!(
            assignment.len(),
            self.requests.len(),
            "assignment must cover every request exactly once"
        );
        let mut subs: Vec<Trace> = (0..replicas)
            .map(|r| Trace {
                label: format!("{} · replica {r}/{replicas}", self.label),
                requests: Vec::new(),
            })
            .collect();
        for (req, &replica) in self.requests.iter().zip(assignment) {
            assert!(
                replica < replicas,
                "request {} routed to replica {replica}, but the fleet has {replicas}",
                req.id
            );
            subs[replica].requests.push(req.clone());
        }
        subs
    }

    /// Number of requests in the trace.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Returns true if the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Computes aggregate statistics.
    pub fn stats(&self) -> TraceStats {
        let count = self.requests.len();
        if count == 0 {
            return TraceStats {
                count: 0,
                mean_input_len: 0.0,
                max_input_len: 0,
                mean_output_len: 0.0,
                max_output_len: 0,
                mean_arrival_rate: 0.0,
                total_input_tokens: 0,
                total_output_tokens: 0,
            };
        }
        let total_input_tokens: u64 = self.requests.iter().map(|r| r.input_len).sum();
        let total_output_tokens: u64 = self.requests.iter().map(|r| r.output_len).sum();
        let span = self
            .requests
            .last()
            .expect("non-empty")
            .arrival
            .saturating_since(self.requests[0].arrival)
            .as_secs();
        TraceStats {
            count,
            mean_input_len: total_input_tokens as f64 / count as f64,
            max_input_len: self.requests.iter().map(|r| r.input_len).max().unwrap_or(0),
            mean_output_len: total_output_tokens as f64 / count as f64,
            max_output_len: self
                .requests
                .iter()
                .map(|r| r.output_len)
                .max()
                .unwrap_or(0),
            mean_arrival_rate: if span > 0.0 { count as f64 / span } else { 0.0 },
            total_input_tokens,
            total_output_tokens,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::TrafficClass;
    use loong_simcore::ids::RequestId;
    use loong_simcore::time::SimTime;

    #[test]
    fn generated_trace_is_sorted_and_sized() {
        let mut rng = SimRng::seed(5);
        let trace = Trace::generate(
            DatasetKind::Mixed,
            ArrivalProcess::Poisson { rate: 0.5 },
            200,
            &mut rng,
        );
        assert_eq!(trace.len(), 200);
        assert!(trace
            .requests
            .windows(2)
            .all(|w| w[0].arrival <= w[1].arrival));
        assert!(!trace.is_empty());
    }

    #[test]
    fn trace_generation_is_deterministic() {
        let make = || {
            let mut rng = SimRng::seed(42);
            Trace::generate(
                DatasetKind::LEval,
                ArrivalProcess::Poisson { rate: 1.0 },
                50,
                &mut rng,
            )
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn stats_summarise_the_trace() {
        let mut rng = SimRng::seed(6);
        let trace = Trace::generate(
            DatasetKind::ShareGpt,
            ArrivalProcess::Poisson { rate: 10.0 },
            500,
            &mut rng,
        );
        let stats = trace.stats();
        assert_eq!(stats.count, 500);
        assert!(stats.mean_input_len > 4.0 && stats.mean_input_len < 2_300.0);
        assert!(stats.max_input_len <= 2_300);
        assert!((stats.mean_arrival_rate - 10.0).abs() < 2.0);
        assert_eq!(
            stats.total_input_tokens,
            trace.requests.iter().map(|r| r.input_len).sum::<u64>()
        );
    }

    #[test]
    fn empty_trace_stats_are_zero() {
        let trace = Trace::from_requests("empty", vec![]);
        let stats = trace.stats();
        assert_eq!(stats.count, 0);
        assert_eq!(stats.mean_arrival_rate, 0.0);
    }

    #[test]
    fn from_requests_sorts_by_arrival() {
        let r1 = Request::new(RequestId(0), SimTime::from_secs(2.0), 10, 5);
        let r2 = Request::new(RequestId(1), SimTime::from_secs(1.0), 10, 5);
        let trace = Trace::from_requests("manual", vec![r1, r2]);
        assert_eq!(trace.requests[0].id, RequestId(1));
    }

    #[test]
    fn split_preserves_order_ids_and_conservation() {
        let mut rng = SimRng::seed(11);
        let trace = Trace::generate(
            DatasetKind::ShareGpt,
            ArrivalProcess::Poisson { rate: 2.0 },
            30,
            &mut rng,
        );
        let assignment: Vec<usize> = (0..30).map(|i| i % 3).collect();
        let subs = trace.split_by_assignment(3, &assignment);
        assert_eq!(subs.len(), 3);
        assert_eq!(subs.iter().map(Trace::len).sum::<usize>(), trace.len());
        let mut seen: Vec<RequestId> = Vec::new();
        for sub in &subs {
            assert!(sub
                .requests
                .windows(2)
                .all(|w| w[0].arrival <= w[1].arrival));
            seen.extend(sub.requests.iter().map(|r| r.id));
        }
        seen.sort();
        let mut expected: Vec<RequestId> = trace.requests.iter().map(|r| r.id).collect();
        expected.sort();
        assert_eq!(seen, expected, "every request lands in exactly one split");
    }

    #[test]
    fn split_to_one_replica_is_the_identity_on_requests() {
        let mut rng = SimRng::seed(12);
        let trace = Trace::generate(
            DatasetKind::Mixed,
            ArrivalProcess::Poisson { rate: 1.0 },
            10,
            &mut rng,
        );
        let subs = trace.split_by_assignment(1, &[0; 10]);
        assert_eq!(subs[0].requests, trace.requests);
    }

    #[test]
    fn split_leaves_unrouted_replicas_empty() {
        let trace = Trace::from_requests(
            "tiny",
            vec![Request::new(RequestId(0), SimTime::ZERO, 10, 5)],
        );
        let subs = trace.split_by_assignment(4, &[2]);
        assert!(subs[0].is_empty() && subs[1].is_empty() && subs[3].is_empty());
        assert_eq!(subs[2].len(), 1);
    }

    #[test]
    #[should_panic(expected = "cover every request")]
    fn split_rejects_short_assignment() {
        let trace = Trace::from_requests(
            "tiny",
            vec![Request::new(RequestId(0), SimTime::ZERO, 10, 5)],
        );
        let _ = trace.split_by_assignment(2, &[]);
    }

    #[test]
    #[should_panic(expected = "routed to replica")]
    fn split_rejects_out_of_range_replica() {
        let trace = Trace::from_requests(
            "tiny",
            vec![Request::new(RequestId(0), SimTime::ZERO, 10, 5)],
        );
        let _ = trace.split_by_assignment(2, &[2]);
    }

    #[test]
    fn multi_turn_trace_grows_prefixes_strictly() {
        use crate::datasets::MultiTurnProfile;
        let mut rng = SimRng::seed(21);
        let trace = Trace::generate_multi_turn(
            DatasetKind::ShareGpt,
            &MultiTurnProfile::sharegpt(),
            ArrivalProcess::Poisson { rate: 0.5 },
            40,
            &mut rng,
        );
        assert!(trace.len() >= 40, "every conversation has at least 1 turn");
        assert!(trace
            .requests
            .windows(2)
            .all(|w| w[0].arrival <= w[1].arrival));
        // Ids are assigned in arrival order.
        assert!(trace.requests.windows(2).all(|w| w[0].id < w[1].id));
        // Per conversation: turns are dense from 0 and each turn's prompt
        // strictly extends the previous turn's full context.
        use std::collections::BTreeMap;
        let mut per_conv: BTreeMap<u64, Vec<&Request>> = BTreeMap::new();
        for r in &trace.requests {
            per_conv
                .entry(
                    r.conversation
                        .expect("multi-turn requests are tagged")
                        .raw(),
                )
                .or_default()
                .push(r);
        }
        assert_eq!(per_conv.len(), 40);
        let mut multi = 0;
        for turns in per_conv.values() {
            for (i, r) in turns.iter().enumerate() {
                assert_eq!(r.turn as usize, i, "turns are dense and ordered");
            }
            for w in turns.windows(2) {
                assert!(
                    w[1].input_len > w[0].input_len + w[0].output_len,
                    "follow-up prompt must extend the full prior context"
                );
                assert!(w[1].arrival > w[0].arrival);
            }
            if turns.len() > 1 {
                multi += 1;
            }
        }
        assert!(multi > 10, "most conversations should have follow-ups");
    }

    #[test]
    fn multi_turn_trace_is_deterministic() {
        use crate::datasets::MultiTurnProfile;
        let make = || {
            let mut rng = SimRng::seed(77);
            Trace::generate_multi_turn(
                DatasetKind::ShareGpt,
                &MultiTurnProfile::sharegpt(),
                ArrivalProcess::Poisson { rate: 1.0 },
                25,
                &mut rng,
            )
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn mixed_class_trace_carries_all_three_classes() {
        use crate::datasets::MixedClassProfile;
        let mut rng = SimRng::seed(31);
        let profile = MixedClassProfile::overload_mix();
        let trace = Trace::generate_mixed_classes(
            ArrivalProcess::Poisson { rate: 2.0 },
            400,
            &profile,
            &mut rng,
        );
        assert!(
            trace.len() >= 400,
            "multi-turn follow-ups only add requests"
        );
        assert!(trace
            .requests
            .windows(2)
            .all(|w| w[0].arrival <= w[1].arrival));
        assert!(trace.requests.windows(2).all(|w| w[0].id < w[1].id));
        let count_of = |c: TrafficClass| trace.requests.iter().filter(|r| r.class == c).count();
        let interactive = count_of(TrafficClass::Interactive);
        let standard = count_of(TrafficClass::Standard);
        let best_effort = count_of(TrafficClass::BestEffort);
        assert_eq!(interactive + standard + best_effort, trace.len());
        // The fractions are of *events*; multi-turn conversations inflate
        // the standard share, but all three streams must be present in
        // roughly the configured proportions.
        assert!(
            (0.05..0.30).contains(&(best_effort as f64 / 400.0)),
            "~15% of events should be long-doc, got {best_effort}/400"
        );
        assert!(standard > best_effort, "multi-turn turns outnumber events");
        assert!(
            (0.45..0.75).contains(&(interactive as f64 / 400.0)),
            "~60% of events should be interactive, got {interactive}/400"
        );
        // Class/conversation tags agree: only standard requests belong to
        // conversations, and their prefixes grow.
        for r in &trace.requests {
            assert_eq!(r.conversation.is_some(), r.class == TrafficClass::Standard);
        }
    }

    #[test]
    fn mixed_class_conversations_grow_prefixes() {
        use crate::datasets::MixedClassProfile;
        use std::collections::BTreeMap;
        let mut rng = SimRng::seed(33);
        let trace = Trace::generate_mixed_classes(
            ArrivalProcess::Poisson { rate: 1.0 },
            300,
            &MixedClassProfile::overload_mix(),
            &mut rng,
        );
        let mut per_conv: BTreeMap<u64, Vec<&Request>> = BTreeMap::new();
        for r in trace.requests.iter().filter(|r| r.conversation.is_some()) {
            per_conv
                .entry(r.conversation.expect("filtered").raw())
                .or_default()
                .push(r);
        }
        assert!(!per_conv.is_empty());
        for turns in per_conv.values() {
            for (i, r) in turns.iter().enumerate() {
                assert_eq!(r.turn as usize, i, "turns are dense and ordered");
            }
            for w in turns.windows(2) {
                assert!(w[1].input_len > w[0].input_len + w[0].output_len);
                assert!(w[1].arrival > w[0].arrival);
            }
        }
    }

    #[test]
    fn mixed_class_trace_is_deterministic() {
        use crate::datasets::MixedClassProfile;
        let make = || {
            let mut rng = SimRng::seed(55);
            Trace::generate_mixed_classes(
                ArrivalProcess::DiurnalFlash {
                    trough_rate: 0.5,
                    peak_rate: 4.0,
                    period_secs: 300.0,
                    flash_start_s: 100.0,
                    flash_secs: 30.0,
                    flash_rate: 8.0,
                },
                150,
                &MixedClassProfile::overload_mix(),
                &mut rng,
            )
        };
        assert_eq!(make(), make());
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn mixed_class_rejects_overfull_fractions() {
        use crate::datasets::MixedClassProfile;
        let mut rng = SimRng::seed(1);
        let profile = MixedClassProfile {
            long_doc_fraction: 0.7,
            multi_turn_fraction: 0.7,
            multi_turn: MultiTurnProfile::sharegpt(),
        };
        let _ = Trace::generate_mixed_classes(
            ArrivalProcess::Poisson { rate: 1.0 },
            10,
            &profile,
            &mut rng,
        );
    }

    #[test]
    fn zipf_trace_respects_cap() {
        let mut rng = SimRng::seed(9);
        let trace =
            Trace::generate_zipf_mixed(1.2, ArrivalProcess::Poisson { rate: 1.0 }, 300, &mut rng);
        assert!(trace.requests.iter().all(|r| r.input_len <= 200_000));
    }
}
