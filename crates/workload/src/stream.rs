//! Lazy, seeded trace generation: requests pulled one at a time.
//!
//! [`TraceStream`] is the streaming counterpart of the [`Trace`]
//! generators: the same seeded sampling, the same ids, the same
//! `(arrival, id)` emission order — but produced on demand, so a frontend
//! can route a million-request workload without ever materialising a
//! `Vec<Request>`. Memory stays O(open conversations) for the multi-turn
//! shapes and O(1) for the single-shot shapes.
//!
//! Every [`Trace::generate*`](Trace::generate) constructor is implemented
//! by *collecting* the matching stream, so the materialised and streamed
//! paths share one code path and are bit-for-bit identical by construction
//! — the property the fleet's streamed run paths (and their golden
//! digests) rest on.
//!
//! # How multi-turn shapes stay lazy
//!
//! A conversation's follow-up turns arrive after think times, so they can
//! interleave arbitrarily with later conversations' starts. The stream
//! keeps a small heap of *drafted* turns: when the next start is pulled
//! from the arrival process, the whole event (for a conversation, every
//! turn) is sampled at once and pushed into the heap; a drafted turn is
//! emitted only once its `(arrival, draft sequence)` key can no longer be
//! preceded by any not-yet-pulled start — arrival processes are
//! non-decreasing, so that is the case exactly when the key is ≤ the next
//! fresh start. The heap therefore holds only the turns of conversations
//! that are still "open" past the emission frontier, not the whole trace.
//! Both multi-turn shapes (`multi_turn` and `mixed_classes`) share this
//! machinery; only their samplers and RNG forks differ.

use crate::arrival::{ArrivalProcess, ArrivalStream};
use crate::datasets::{
    DatasetKind, DatasetSampler, MixedClassProfile, MultiTurnProfile, ZipfMixedSampler,
};
use crate::request::{Request, TrafficClass};
use crate::trace::Trace;
use loong_simcore::ids::{ConversationId, IdAllocator, RequestId};
use loong_simcore::rng::SimRng;
use loong_simcore::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A lazily generated workload trace: an iterator of [`Request`]s in
/// `(arrival, id)` order, ids assigned in emission order.
///
/// Constructed with the same `(spec, count, &mut SimRng)` signature as the
/// matching [`Trace`] generator; collecting the stream yields bit-for-bit
/// the trace the generator returns (the generators are implemented that
/// way). See the [module docs](self) for the memory model.
pub struct TraceStream {
    label: String,
    ids: IdAllocator<RequestId>,
    inner: Inner,
}

/// Which single-shot length sampler a [`Inner::SingleShot`] stream uses.
// One sampler exists per stream, and one stream per run: variant size is
// irrelevant next to the per-request state the stream exists to avoid.
#[allow(clippy::large_enum_variant)]
enum ShotSampler {
    Dataset(DatasetSampler),
    Zipf(Box<ZipfMixedSampler>),
}

impl ShotSampler {
    fn sample(&self, rng: &mut SimRng) -> crate::datasets::LengthSample {
        match self {
            ShotSampler::Dataset(s) => s.sample(rng),
            ShotSampler::Zipf(s) => s.sample(rng),
        }
    }
}

/// A drafted request waiting in the emission heap. Its id is a
/// placeholder: ids are assigned in emission order.
struct Draft {
    /// Draft sequence number, the tie-break between equal arrivals.
    /// Conversations are expanded in index order and their turns in turn
    /// order, so among multi-turn drafts this is the `(conversation, turn)`
    /// order.
    seq: u64,
    request: Request,
}

impl Draft {
    fn at(&self) -> f64 {
        self.request.arrival.as_secs()
    }
}

impl PartialEq for Draft {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Draft {}
impl PartialOrd for Draft {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Draft {
    fn cmp(&self, other: &Self) -> Ordering {
        // Arrivals are finite, so `total_cmp` agrees with `partial_cmp`.
        self.at()
            .total_cmp(&other.at())
            .then(self.seq.cmp(&other.seq))
    }
}

/// The RNG forks a drafted conversation draws from.
struct TurnRngs {
    length: SimRng,
    rounds: SimRng,
    think: SimRng,
}

/// The emission state both drafted shapes share: the arrival process
/// that opens each event, the emission frontier and the heap of drafts.
struct Drafts {
    arrivals: ArrivalStream,
    /// Starts not yet pulled from the arrival process.
    remaining_starts: usize,
    /// The next not-yet-expanded start (the emission frontier), `None`
    /// once every start has been expanded.
    next_start: Option<SimTime>,
    next_seq: u64,
    /// Index of the next conversation drafted.
    next_conv: u64,
    heap: BinaryHeap<Reverse<Draft>>,
}

impl Drafts {
    fn new(mut arrivals: ArrivalStream, starts: usize) -> Self {
        let next_start =
            (starts > 0).then(|| arrivals.next().expect("arrival streams are infinite"));
        Drafts {
            arrivals,
            remaining_starts: starts.saturating_sub(1),
            next_start,
            next_seq: 0,
            next_conv: 0,
            heap: BinaryHeap::new(),
        }
    }

    fn push(&mut self, request: Request) {
        self.heap.push(Reverse(Draft {
            seq: self.next_seq,
            request,
        }));
        self.next_seq += 1;
    }

    /// Drafts a whole conversation opening at `start`: the round count,
    /// then per turn its lengths and the think time before the next turn.
    /// Each turn's prompt carries the conversation so far.
    fn conversation(
        &mut self,
        start: SimTime,
        profile: &MultiTurnProfile,
        sampler: &DatasetSampler,
        rngs: &mut TurnRngs,
        class: TrafficClass,
    ) {
        let conv = ConversationId(self.next_conv);
        self.next_conv += 1;
        let rounds = profile.sample_rounds(&mut rngs.rounds);
        let mut at = start.as_secs();
        let mut context = 0u64;
        for turn in 0..rounds {
            let s = sampler.sample(&mut rngs.length);
            let input_len = context + s.input_len;
            self.push(
                Request::new(
                    RequestId(0),
                    SimTime::from_secs(at),
                    input_len,
                    s.output_len,
                )
                .with_conversation(conv, turn)
                .with_class(class),
            );
            context = input_len + s.output_len;
            at += profile.sample_think_s(&mut rngs.think);
        }
    }

    /// The next request in `(arrival, draft)` order: expands the start at
    /// the frontier with `expand` until the heap minimum is safe to emit,
    /// then gives it the next id.
    fn next_request(
        &mut self,
        ids: &mut IdAllocator<RequestId>,
        mut expand: impl FnMut(&mut Self, SimTime),
    ) -> Option<Request> {
        loop {
            // A draft is safe to emit once no unexpanded start can precede
            // it. Starts are non-decreasing and no draft arrives before its
            // own start, so that holds when the draft arrives no later than
            // the frontier: on a tie it was drafted first and its sequence
            // number ranks it first.
            let emit = match (self.heap.peek(), self.next_start) {
                (Some(Reverse(min)), Some(frontier)) => {
                    min.at().total_cmp(&frontier.as_secs()) != Ordering::Greater
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return None,
            };
            if emit {
                let mut request = self.heap.pop().expect("peeked above").0.request;
                request.id = ids.next();
                return Some(request);
            }
            let start = self.next_start.take().expect("frontier checked above");
            expand(self, start);
            if self.remaining_starts > 0 {
                self.remaining_starts -= 1;
                self.next_start = Some(self.arrivals.next().expect("arrival streams are infinite"));
            }
        }
    }
}

/// Per-shape generator state.
// One `Inner` exists per stream, and one stream per run: variant size is
// irrelevant next to the per-request state the stream exists to avoid.
#[allow(clippy::large_enum_variant)]
enum Inner {
    /// One request per arrival: `generate` / `generate_zipf_mixed`.
    SingleShot {
        sampler: ShotSampler,
        length_rng: SimRng,
        arrivals: ArrivalStream,
        remaining: usize,
    },
    /// `generate_multi_turn`: conversations drafted whole, emitted through
    /// the heap.
    MultiTurn {
        sampler: DatasetSampler,
        profile: MultiTurnProfile,
        rngs: TurnRngs,
        drafts: Drafts,
    },
    /// `generate_mixed_classes`: events drafted whole (a multi-turn event
    /// drafts its entire conversation), emitted through the heap.
    MixedClasses {
        chat: DatasetSampler,
        long_doc: DatasetSampler,
        profile: MixedClassProfile,
        class_rng: SimRng,
        rngs: TurnRngs,
        drafts: Drafts,
    },
    /// An already-materialised trace replayed as a stream.
    Materialized {
        requests: std::vec::IntoIter<Request>,
    },
}

impl TraceStream {
    /// Streams `count` requests from a standard dataset with a given
    /// arrival process — the lazy form of [`Trace::generate`].
    pub fn dataset(
        dataset: DatasetKind,
        arrivals: ArrivalProcess,
        count: usize,
        rng: &mut SimRng,
    ) -> Self {
        let sampler = DatasetSampler::new(dataset);
        let length_rng = rng.fork("lengths");
        let arrival_rng = rng.fork("arrivals");
        TraceStream {
            label: format!("{} @ {:.3} req/s", dataset.name(), arrivals.mean_rate()),
            ids: IdAllocator::<RequestId>::new(),
            inner: Inner::SingleShot {
                sampler: ShotSampler::Dataset(sampler),
                length_rng,
                arrivals: ArrivalStream::new(arrivals, arrival_rng),
                remaining: count,
            },
        }
    }

    /// Streams a Figure-12-style Zipf-reshaped Mixed workload — the lazy
    /// form of [`Trace::generate_zipf_mixed`].
    pub fn zipf_mixed(
        exponent: f64,
        arrivals: ArrivalProcess,
        count: usize,
        rng: &mut SimRng,
    ) -> Self {
        let sampler = ZipfMixedSampler::new(exponent);
        let length_rng = rng.fork("zipf-lengths");
        let arrival_rng = rng.fork("zipf-arrivals");
        TraceStream {
            label: format!(
                "Mixed Zipf={exponent:.1} @ {:.3} req/s",
                arrivals.mean_rate()
            ),
            ids: IdAllocator::<RequestId>::new(),
            inner: Inner::SingleShot {
                sampler: ShotSampler::Zipf(Box::new(sampler)),
                length_rng,
                arrivals: ArrivalStream::new(arrivals, arrival_rng),
                remaining: count,
            },
        }
    }

    /// Streams a multi-turn conversation workload — the lazy form of
    /// [`Trace::generate_multi_turn`].
    pub fn multi_turn(
        dataset: DatasetKind,
        profile: &MultiTurnProfile,
        arrivals: ArrivalProcess,
        conversations: usize,
        rng: &mut SimRng,
    ) -> Self {
        profile.validate().expect("valid multi-turn profile");
        let sampler = DatasetSampler::new(dataset);
        let length = rng.fork("mt-lengths");
        let arrival_rng = rng.fork("mt-arrivals");
        let rounds = rng.fork("mt-rounds");
        let think = rng.fork("mt-think");
        TraceStream {
            label: format!(
                "{} multi-turn ({} conv) @ {:.3} conv/s",
                dataset.name(),
                conversations,
                arrivals.mean_rate()
            ),
            ids: IdAllocator::<RequestId>::new(),
            inner: Inner::MultiTurn {
                sampler,
                profile: *profile,
                rngs: TurnRngs {
                    length,
                    rounds,
                    think,
                },
                drafts: Drafts::new(ArrivalStream::new(arrivals, arrival_rng), conversations),
            },
        }
    }

    /// Streams a mixed traffic-class overload workload — the lazy form of
    /// [`Trace::generate_mixed_classes`].
    pub fn mixed_classes(
        arrivals: ArrivalProcess,
        count: usize,
        profile: &MixedClassProfile,
        rng: &mut SimRng,
    ) -> Self {
        profile.validate().expect("valid mixed-class profile");
        let chat = DatasetSampler::new(DatasetKind::ShareGpt);
        let long_doc = DatasetSampler::new(DatasetKind::LEval);
        let class_rng = rng.fork("mix-class");
        let length = rng.fork("mix-lengths");
        let arrival_rng = rng.fork("mix-arrivals");
        let rounds = rng.fork("mix-rounds");
        let think = rng.fork("mix-think");
        TraceStream {
            label: format!(
                "mixed-class ({:.0}% long-doc, {:.0}% multi-turn) @ {:.3} ev/s",
                profile.long_doc_fraction * 100.0,
                profile.multi_turn_fraction * 100.0,
                arrivals.mean_rate()
            ),
            ids: IdAllocator::<RequestId>::new(),
            inner: Inner::MixedClasses {
                chat,
                long_doc,
                profile: *profile,
                class_rng,
                rngs: TurnRngs {
                    length,
                    rounds,
                    think,
                },
                drafts: Drafts::new(ArrivalStream::new(arrivals, arrival_rng), count),
            },
        }
    }

    /// Replays an already-materialised trace as a stream (requests keep
    /// their ids). Useful for feeding one trace shared across systems — or
    /// a hand-built test — through the streamed run paths.
    pub fn from_trace(trace: Trace) -> Self {
        TraceStream {
            label: trace.label,
            ids: IdAllocator::<RequestId>::new(),
            inner: Inner::Materialized {
                requests: trace.requests.into_iter(),
            },
        }
    }

    /// The trace label (how the workload was generated).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Drains the stream into a materialised [`Trace`] — the adapter the
    /// `Trace::generate*` constructors are built on.
    pub fn collect_trace(mut self) -> Trace {
        let label = std::mem::take(&mut self.label);
        let requests: Vec<Request> = (&mut self).collect();
        Trace { label, requests }
    }
}

impl Iterator for TraceStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        match &mut self.inner {
            Inner::SingleShot {
                sampler,
                length_rng,
                arrivals,
                remaining,
            } => {
                if *remaining == 0 {
                    return None;
                }
                *remaining -= 1;
                let at = arrivals.next().expect("arrival streams are infinite");
                let s = sampler.sample(length_rng);
                Some(Request::new(self.ids.next(), at, s.input_len, s.output_len))
            }
            Inner::MultiTurn {
                sampler,
                profile,
                rngs,
                drafts,
            } => drafts.next_request(&mut self.ids, |drafts, start| {
                drafts.conversation(start, profile, sampler, rngs, TrafficClass::default())
            }),
            Inner::MixedClasses {
                chat,
                long_doc,
                profile,
                class_rng,
                rngs,
                drafts,
            } => drafts.next_request(&mut self.ids, |drafts, start| {
                let u = class_rng.uniform01();
                if u < profile.long_doc_fraction {
                    let s = long_doc.sample(&mut rngs.length);
                    drafts.push(
                        Request::new(RequestId(0), start, s.input_len, s.output_len)
                            .with_class(TrafficClass::BestEffort),
                    );
                } else if u < profile.long_doc_fraction + profile.multi_turn_fraction {
                    let turns = &profile.multi_turn;
                    drafts.conversation(start, turns, chat, rngs, TrafficClass::Standard);
                } else {
                    let s = chat.sample(&mut rngs.length);
                    drafts.push(Request::new(RequestId(0), start, s.input_len, s.output_len));
                }
            }),
            Inner::Materialized { requests } => requests.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poisson(rate: f64) -> ArrivalProcess {
        ArrivalProcess::Poisson { rate }
    }

    #[test]
    fn dataset_stream_collects_to_the_generated_trace() {
        for seed in [5u64, 42, 2024] {
            let trace = Trace::generate(
                DatasetKind::Mixed,
                poisson(0.5),
                200,
                &mut SimRng::seed(seed),
            );
            let streamed = TraceStream::dataset(
                DatasetKind::Mixed,
                poisson(0.5),
                200,
                &mut SimRng::seed(seed),
            )
            .collect_trace();
            assert_eq!(trace, streamed);
        }
    }

    #[test]
    fn zipf_stream_collects_to_the_generated_trace() {
        let trace = Trace::generate_zipf_mixed(1.2, poisson(1.0), 300, &mut SimRng::seed(9));
        let streamed =
            TraceStream::zipf_mixed(1.2, poisson(1.0), 300, &mut SimRng::seed(9)).collect_trace();
        assert_eq!(trace, streamed);
    }

    #[test]
    fn multi_turn_stream_collects_to_the_generated_trace() {
        let profile = MultiTurnProfile::sharegpt();
        for seed in [21u64, 77] {
            let trace = Trace::generate_multi_turn(
                DatasetKind::ShareGpt,
                &profile,
                poisson(0.5),
                40,
                &mut SimRng::seed(seed),
            );
            let streamed = TraceStream::multi_turn(
                DatasetKind::ShareGpt,
                &profile,
                poisson(0.5),
                40,
                &mut SimRng::seed(seed),
            )
            .collect_trace();
            assert_eq!(trace, streamed);
        }
    }

    #[test]
    fn mixed_class_stream_collects_to_the_generated_trace() {
        let profile = MixedClassProfile::overload_mix();
        let arrivals = ArrivalProcess::DiurnalFlash {
            trough_rate: 0.5,
            peak_rate: 4.0,
            period_secs: 300.0,
            flash_start_s: 100.0,
            flash_secs: 30.0,
            flash_rate: 8.0,
        };
        for seed in [31u64, 55] {
            let trace =
                Trace::generate_mixed_classes(arrivals, 150, &profile, &mut SimRng::seed(seed));
            let streamed =
                TraceStream::mixed_classes(arrivals, 150, &profile, &mut SimRng::seed(seed))
                    .collect_trace();
            assert_eq!(trace, streamed);
        }
    }

    /// FNV-1a over every field of every request the streams emit, in
    /// order.
    fn digest(streams: impl IntoIterator<Item = TraceStream>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for r in streams.into_iter().flatten() {
            for word in [
                r.id.raw(),
                r.arrival.as_secs().to_bits(),
                r.input_len,
                r.output_len,
                r.max_output_len,
                r.conversation.map_or(u64::MAX, |c| c.raw()),
                u64::from(r.turn),
                r.class as u64,
            ] {
                h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// A bursty arrival process for the golden digests, beside Poisson.
    fn bursty() -> ArrivalProcess {
        ArrivalProcess::MarkovModulated {
            rate_high: 4.0,
            rate_low: 0.25,
            mean_high_secs: 10.0,
            mean_low_secs: 20.0,
        }
    }

    #[test]
    fn multi_turn_generator_output_is_pinned() {
        // Pins what the generator produces, not only that streaming it
        // matches collecting it: a reordered RNG fork moves this digest.
        let profile = MultiTurnProfile::sharegpt();
        let streams = [poisson(0.5), bursty()].into_iter().flat_map(|arrivals| {
            [21u64, 77].map(|seed| {
                TraceStream::multi_turn(
                    DatasetKind::ShareGpt,
                    &profile,
                    arrivals,
                    40,
                    &mut SimRng::seed(seed),
                )
            })
        });
        assert_eq!(digest(streams), 0xa2af_ea0f_0275_7502);
    }

    #[test]
    fn mixed_class_generator_output_is_pinned() {
        let profile = MixedClassProfile::overload_mix();
        let streams = [poisson(2.0), bursty()].into_iter().flat_map(|arrivals| {
            [31u64, 55].map(|seed| {
                TraceStream::mixed_classes(arrivals, 150, &profile, &mut SimRng::seed(seed))
            })
        });
        assert_eq!(digest(streams), 0xbc0a_bdf9_2a7d_45c1);
    }

    #[test]
    fn drafted_shapes_are_pinned_at_three_seeds() {
        // Both drafted shapes at arrival rates where think times interleave
        // heavily with later starts, so every emission tie-break matters.
        let seeds = [1u64, 8, 2026];
        let multi_turn = seeds.map(|seed| {
            TraceStream::multi_turn(
                DatasetKind::ShareGpt,
                &MultiTurnProfile::sharegpt(),
                poisson(2.0),
                60,
                &mut SimRng::seed(seed),
            )
        });
        let mixed = seeds.map(|seed| {
            TraceStream::mixed_classes(
                poisson(4.0),
                200,
                &MixedClassProfile::overload_mix(),
                &mut SimRng::seed(seed),
            )
        });
        assert_eq!(digest(multi_turn), 0x4af6_8115_9c5e_6ab5);
        assert_eq!(digest(mixed), 0xd9a5_d240_fe51_1e84);
    }

    #[test]
    fn stream_emits_in_arrival_id_order() {
        let stream = TraceStream::mixed_classes(
            poisson(2.0),
            200,
            &MixedClassProfile::overload_mix(),
            &mut SimRng::seed(3),
        );
        let requests: Vec<Request> = stream.collect();
        assert!(requests.len() >= 200);
        assert!(requests.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(requests.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn from_trace_replays_verbatim() {
        let trace = Trace::generate(
            DatasetKind::ShareGpt,
            poisson(2.0),
            50,
            &mut SimRng::seed(4),
        );
        let replayed: Vec<Request> = TraceStream::from_trace(trace.clone()).collect();
        assert_eq!(trace.requests, replayed);
    }

    #[test]
    fn multi_turn_heap_stays_small() {
        // The emission frontier bounds the heap by the turns of open
        // conversations, not the trace: stream a long workload and check
        // the high-water mark stays far below the emitted count.
        let profile = MultiTurnProfile::sharegpt();
        let mut stream = TraceStream::multi_turn(
            DatasetKind::ShareGpt,
            &profile,
            poisson(5.0),
            2_000,
            &mut SimRng::seed(13),
        );
        let mut emitted = 0usize;
        let mut heap_high = 0usize;
        while stream.next().is_some() {
            emitted += 1;
            if let Inner::MultiTurn { drafts, .. } = &stream.inner {
                heap_high = heap_high.max(drafts.heap.len());
            }
        }
        assert!(emitted >= 2_000);
        assert!(
            heap_high < emitted / 4,
            "heap high-water {heap_high} should be far below {emitted} emitted"
        );
    }
}
