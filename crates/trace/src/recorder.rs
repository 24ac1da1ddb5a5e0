//! The bounded trace recorder.
//!
//! [`TraceRecorder`] is the [`TraceSink`] implementation safe at the
//! 1M-request regime. Memory is bounded by construction:
//!
//! * **Spans** are kept only for requests chosen by deterministic seeded
//!   sampling ([`TraceConfig::sampled`] hashes the request id, so the
//!   sampled set is a pure function of `(seed, permille)` — identical
//!   across runs, replicas and retry attempts), and capped at
//!   [`TraceConfig::max_spans`] with overflow counted, never allocated.
//! * **Series** are always-on streaming aggregations costing only their
//!   bins (see [`crate::series`]).
//! * **Open-request state** (current phase, class, phase start, lengths,
//!   first token) exists only while a request is in flight, so its
//!   high-water tracks the engine's own O(active) residency, not the
//!   trace length.
//!
//! The [`TraceLedger`] proves all three: `O(sampled + bins + peak-open)`,
//! with every drop counted. Fleet runs build one recorder per replica
//! engine lifetime and absorb each, serially in replica order, when the
//! lifetime ends via [`TraceRecorder::merge_child`], which keeps recording
//! deterministic under the worker pool.

use crate::series::{FleetSeries, ReplicaSeries};
use crate::sink::{AdmitInfo, Gauges, SpanPhase, Terminal, TraceSink};
use loong_metrics::{class_slo, SloSpec, TimeAttribution};
use loong_simcore::class::TrafficClass;
use loong_simcore::ids::{ReplicaId, RequestId};
use loong_simcore::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// Recorder configuration. `Copy`, so a fleet can ship it into pooled
/// jobs that start replica engine lifetimes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Per-request span-sampling rate in permille (10 = 1%). 1000 keeps
    /// every request's spans; 0 keeps none (aggregation still runs).
    pub sample_permille: u32,
    /// Seed for the sampling hash; the sampled id set is a pure function
    /// of `(seed, sample_permille)`.
    pub seed: u64,
    /// Bin width of every timeseries, in simulated seconds.
    pub bin_width_s: f64,
    /// Base SLO each completion is judged by, scaled by the request's
    /// class ([`class_slo`]), for the per-bin attainment series.
    pub slo: SloSpec,
    /// Hard cap on retained spans; overflow is dropped and counted.
    pub max_spans: usize,
    /// Hard cap on retained instant events; overflow is dropped and
    /// counted.
    pub max_instants: usize,
}

impl Default for TraceConfig {
    /// 1% sampling, 10 s bins, the LWM default SLO, and caps sized far
    /// above any pinned workload (4M spans ≈ the 1M-request regime at 1%
    /// sampling with hundreds of spans per sampled request).
    fn default() -> Self {
        TraceConfig {
            sample_permille: 10,
            seed: 0x7ace_5eed,
            bin_width_s: 10.0,
            slo: SloSpec::default_for_lwm(),
            max_spans: 1 << 22,
            max_instants: 1 << 16,
        }
    }
}

impl TraceConfig {
    /// A config that samples every request (tests and small examples).
    pub fn sample_all() -> Self {
        TraceConfig {
            sample_permille: 1000,
            ..TraceConfig::default()
        }
    }

    /// The deterministic sampling decision for a request id: a
    /// splitmix64-style hash of `seed ^ id`, reduced mod 1000 — stable
    /// across replicas, engine lifetimes and retry attempts of the same id.
    pub fn sampled(&self, id: RequestId) -> bool {
        if self.sample_permille >= 1000 {
            return true;
        }
        if self.sample_permille == 0 {
            return false;
        }
        let mut z = self.seed ^ id.raw().wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z % 1000) < u64::from(self.sample_permille)
    }
}

/// One closed lifecycle span of a sampled request, on the sim clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Raw request id (the Perfetto `tid`).
    pub id: u64,
    /// Raw replica id (the Perfetto `pid`); 0 for bare-engine runs.
    pub replica: u64,
    /// The phase the span covers.
    pub phase: SpanPhase,
    /// Span start (absolute sim time).
    pub start: SimTime,
    /// Span end (absolute sim time).
    pub end: SimTime,
    /// The request's traffic class.
    pub class: TrafficClass,
    /// True when this span belongs to a retry attempt after a crash.
    pub retry: bool,
}

/// A point event: fleet lifecycle edges and sampled request instants.
#[derive(Debug, Clone, PartialEq)]
pub struct InstantEvent {
    /// When the event happened (absolute sim time).
    pub at: SimTime,
    /// Raw replica id, or [`InstantEvent::FLEET`] for fleet-scope events.
    pub replica: u64,
    /// Event name (the Perfetto event name).
    pub name: &'static str,
    /// Free-form detail rendered into the Perfetto `args`.
    pub detail: String,
}

impl InstantEvent {
    /// Sentinel replica for fleet-scope events.
    pub const FLEET: u64 = u64::MAX;
}

/// The recorder's residency proof, in the spirit of `FleetFootprint`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TraceLedger {
    /// Admissions observed (retry attempts count again).
    pub requests_seen: u64,
    /// Distinct sampled requests (first attempts only).
    pub sampled_requests: u64,
    /// Spans retained.
    pub spans_recorded: u64,
    /// Spans dropped at the [`TraceConfig::max_spans`] cap.
    pub spans_dropped: u64,
    /// Instant events retained.
    pub instants_recorded: u64,
    /// Instant events dropped at the [`TraceConfig::max_instants`] cap.
    pub instants_dropped: u64,
    /// Requests currently open (nonzero only mid-run).
    pub open_requests: u64,
    /// High-water of concurrently open request state.
    pub peak_open_requests: u64,
    /// Total materialised timeseries bins across replicas + fleet scope.
    pub series_bins: u64,
    /// Scheduling-point gauge samples folded into the series.
    pub gauge_samples: u64,
}

/// Per-open-request state: one `Copy` record per in-flight request.
#[derive(Debug, Clone, Copy)]
struct OpenEntry {
    class: TrafficClass,
    conversation: Option<u64>,
    admitted: SimTime,
    input_len: u64,
    output_len: u64,
    /// Start of the first decode span: the first token's instant.
    first_token: Option<SimTime>,
    phase: SpanPhase,
    phase_start: SimTime,
    replica: u64,
    sampled: bool,
    retry: bool,
}

/// A casualty waiting for its retry to re-enter admission.
#[derive(Debug, Clone, Copy)]
struct PendingRetry {
    casualty_at: SimTime,
    class: TrafficClass,
}

/// The bounded, deterministic trace recorder (see module docs).
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    cfg: TraceConfig,
    /// Ids that have been scheduled for retry at least once, ever. A
    /// lifetime's recorder learns them via [`TraceRecorder::note_retried`]
    /// as retries are handed to its engine.
    retried: BTreeSet<u64>,
    open: BTreeMap<u64, OpenEntry>,
    spans: Vec<Span>,
    instants: Vec<InstantEvent>,
    series: BTreeMap<u64, ReplicaSeries>,
    fleet_series: FleetSeries,
    attribution: TimeAttribution,
    pending_retry: BTreeMap<u64, PendingRetry>,
    requests_seen: u64,
    sampled_requests: u64,
    spans_dropped: u64,
    instants_dropped: u64,
    peak_open: u64,
    gauge_samples: u64,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new(TraceConfig::default())
    }
}

impl TraceRecorder {
    /// Creates a recorder with the given config.
    pub fn new(cfg: TraceConfig) -> Self {
        TraceRecorder {
            cfg,
            retried: BTreeSet::new(),
            open: BTreeMap::new(),
            spans: Vec::new(),
            instants: Vec::new(),
            series: BTreeMap::new(),
            fleet_series: FleetSeries::new(cfg.bin_width_s),
            attribution: TimeAttribution::default(),
            pending_retry: BTreeMap::new(),
            requests_seen: 0,
            sampled_requests: 0,
            spans_dropped: 0,
            instants_dropped: 0,
            peak_open: 0,
            gauge_samples: 0,
        }
    }

    /// Marks `id` as a retry: its admissions here attribute their prefill
    /// to `retry_prefill_s`. A fleet calls this on the recorder of the
    /// replica engine a retried request is handed to, since that recorder
    /// never saw the crash.
    pub fn note_retried(&mut self, id: RequestId) {
        self.retried.insert(id.raw());
    }

    /// The recorder's configuration.
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// The per-phase, per-class time attribution accumulated so far.
    pub fn attribution(&self) -> TimeAttribution {
        self.attribution
    }

    /// Closed sampled spans, in close order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Retained instant events, in record order.
    pub fn instants(&self) -> &[InstantEvent] {
        &self.instants
    }

    /// Per-replica timeseries, keyed by raw replica id.
    pub fn series(&self) -> &BTreeMap<u64, ReplicaSeries> {
        &self.series
    }

    /// Fleet-scope event counters.
    pub fn fleet_series(&self) -> &FleetSeries {
        &self.fleet_series
    }

    /// The residency ledger (see [`TraceLedger`]).
    pub fn ledger(&self) -> TraceLedger {
        TraceLedger {
            requests_seen: self.requests_seen,
            sampled_requests: self.sampled_requests,
            spans_recorded: self.spans.len() as u64,
            spans_dropped: self.spans_dropped,
            instants_recorded: self.instants.len() as u64,
            instants_dropped: self.instants_dropped,
            open_requests: self.open.len() as u64,
            peak_open_requests: self.peak_open.max(self.open.len() as u64),
            series_bins: self.series.values().map(ReplicaSeries::bins).sum::<u64>()
                + self.fleet_series.bins(),
            gauge_samples: self.gauge_samples,
        }
    }

    fn series_mut(&mut self, replica: u64) -> &mut ReplicaSeries {
        let width = self.cfg.bin_width_s;
        self.series
            .entry(replica)
            .or_insert_with(|| ReplicaSeries::new(width))
    }

    fn push_span(&mut self, span: Span) {
        if span.end.as_secs() <= span.start.as_secs() {
            // Zero-width phase hops (e.g. DecodeReady at the instant of
            // dispatch) carry no time; skip them so exports stay tight.
            return;
        }
        if self.spans.len() < self.cfg.max_spans {
            self.spans.push(span);
        } else {
            self.spans_dropped += 1;
        }
    }

    fn push_instant(&mut self, instant: InstantEvent) {
        if self.instants.len() < self.cfg.max_instants {
            self.instants.push(instant);
        } else {
            self.instants_dropped += 1;
        }
    }

    fn note_open_peak(&mut self) {
        self.peak_open = self.peak_open.max(self.open.len() as u64);
    }

    fn fold_phase(&mut self, class: TrafficClass, retry: bool, phase: SpanPhase, secs: f64) {
        let p = self.attribution.class_mut(class);
        match phase {
            SpanPhase::Queued => p.queued_s += secs,
            SpanPhase::Prefill => {
                if retry {
                    p.retry_prefill_s += secs;
                } else {
                    p.prefill_s += secs;
                }
            }
            SpanPhase::Decode => p.decode_s += secs,
            SpanPhase::Migrate => p.migrate_s += secs,
            SpanPhase::SwapOut | SpanPhase::SwappedOut | SpanPhase::SwapIn => p.swap_s += secs,
        }
    }

    /// Closes an open entry's current phase at `at`: folds attribution and
    /// (for sampled requests) emits the span.
    fn close_phase(&mut self, id: u64, entry: &OpenEntry, at: SimTime) {
        let secs = at.saturating_since(entry.phase_start).as_secs();
        self.fold_phase(entry.class, entry.retry, entry.phase, secs);
        if entry.sampled {
            self.push_span(Span {
                id,
                replica: entry.replica,
                phase: entry.phase,
                start: entry.phase_start,
                end: at,
                class: entry.class,
                retry: entry.retry,
            });
        }
    }

    fn close_terminal(&mut self, at: SimTime, id: RequestId, terminal: Terminal) {
        let Some(entry) = self.open.remove(&id.raw()) else {
            return;
        };
        self.close_phase(id.raw(), &entry, at);
        match terminal {
            Terminal::Completed => {
                // A request whose prefill token is its last never decodes:
                // its first token is its completion.
                let met = class_slo(&self.cfg.slo, entry.class).met(
                    entry.admitted,
                    entry.first_token.unwrap_or(at),
                    at,
                    entry.input_len,
                    entry.output_len,
                );
                let sr = self.series_mut(entry.replica);
                sr.completions.record(at);
                if met {
                    sr.slo_hits.record(at);
                }
            }
            Terminal::Casualty => {
                self.pending_retry.insert(
                    id.raw(),
                    PendingRetry {
                        casualty_at: at,
                        class: entry.class,
                    },
                );
            }
            Terminal::Rejected | Terminal::Failed | Terminal::Unfinished => {}
        }
        if entry.sampled {
            let detail = match entry.conversation {
                Some(c) => format!("request {} (conversation {c})", id.raw()),
                None => format!("request {}", id.raw()),
            };
            self.push_instant(InstantEvent {
                at,
                replica: entry.replica,
                name: terminal.label(),
                detail,
            });
        }
    }

    // ----- fleet-level events (called from the era loops, serially) -----

    /// A replica crashed at `at` (era boundary).
    pub fn crash(&mut self, at: SimTime, replica: ReplicaId) {
        self.fleet_series.crashes.record(at);
        self.push_instant(InstantEvent {
            at,
            replica: replica.raw(),
            name: "crash",
            detail: format!("replica {replica}"),
        });
    }

    /// A crashed replica becomes routable again at `at`.
    pub fn recover(&mut self, at: SimTime, replica: ReplicaId) {
        self.push_instant(InstantEvent {
            at,
            replica: replica.raw(),
            name: "recover",
            detail: format!("replica {replica}"),
        });
    }

    /// The circuit breaker opened for a replica.
    pub fn breaker_open(&mut self, at: SimTime, replica: ReplicaId) {
        self.push_instant(InstantEvent {
            at,
            replica: replica.raw(),
            name: "breaker-open",
            detail: format!("replica {replica}"),
        });
    }

    /// The autoscaler activated a replica (ready after provisioning).
    pub fn replica_activated(&mut self, at: SimTime, replica: ReplicaId, ready_at: SimTime) {
        self.push_instant(InstantEvent {
            at,
            replica: replica.raw(),
            name: "scale-up",
            detail: format!("replica {replica} ready at {:.3}s", ready_at.as_secs()),
        });
    }

    /// The autoscaler retired a replica (drain finished).
    pub fn replica_retired(&mut self, at: SimTime, replica: ReplicaId) {
        self.push_instant(InstantEvent {
            at,
            replica: replica.raw(),
            name: "scale-down",
            detail: format!("replica {replica} retired"),
        });
    }

    /// Admission shed a request before it reached any replica.
    pub fn shed(&mut self, at: SimTime, id: RequestId, class: TrafficClass, reason: &str) {
        self.fleet_series.sheds.record(at);
        if self.cfg.sampled(id) {
            self.push_instant(InstantEvent {
                at,
                replica: InstantEvent::FLEET,
                name: "shed",
                detail: format!("request {} ({}): {reason}", id.raw(), class.label()),
            });
        }
    }

    /// A request in flight on a crashed replica: closes its lifecycle as a
    /// casualty; a later [`TraceRecorder::retry_scheduled`] +
    /// re-admission reopens it as a retry attempt.
    pub fn casualty(&mut self, at: SimTime, id: RequestId) {
        self.close_terminal(at, id, Terminal::Casualty);
    }

    /// A casualty was granted a retry that re-enters admission at
    /// `resume_at`. Downtime (crash to re-admission) is attributed here,
    /// where both endpoints are known — the re-admission itself usually
    /// happens inside a pooled child recorder that never saw the crash.
    pub fn retry_scheduled(
        &mut self,
        at: SimTime,
        id: RequestId,
        attempt: u32,
        resume_at: SimTime,
    ) {
        self.retried.insert(id.raw());
        self.fleet_series.retries.record(at);
        if let Some(pending) = self.pending_retry.remove(&id.raw()) {
            self.attribution.class_mut(pending.class).downtime_s +=
                resume_at.saturating_since(pending.casualty_at).as_secs();
        }
        if self.cfg.sampled(id) {
            self.push_instant(InstantEvent {
                at,
                replica: InstantEvent::FLEET,
                name: "retry",
                detail: format!(
                    "request {} attempt {attempt} resumes at {:.3}s",
                    id.raw(),
                    resume_at.as_secs()
                ),
            });
        }
    }

    /// A request failed terminally (no retry budget left).
    pub fn request_failed(&mut self, at: SimTime, id: RequestId, reason: &str) {
        // The casualty close already ran; drop the pending-retry marker so
        // the backoff gap is not attributed as downtime.
        self.pending_retry.remove(&id.raw());
        self.fleet_series.failures.record(at);
        if self.cfg.sampled(id) {
            let detail = format!("request {}: {reason}", id.raw());
            self.push_instant(InstantEvent {
                at,
                replica: InstantEvent::FLEET,
                name: "fail",
                detail,
            });
        }
    }

    /// Absorbs an ended engine lifetime's recorder, re-keying its
    /// replica-agnostic events to `replica`. Called serially, in replica
    /// order among lifetimes ending together, which keeps recording
    /// deterministic.
    pub fn merge_child(&mut self, replica: ReplicaId, child: TraceRecorder) {
        let r = replica.raw();
        self.requests_seen += child.requests_seen;
        self.sampled_requests += child.sampled_requests;
        self.spans_dropped += child.spans_dropped;
        self.instants_dropped += child.instants_dropped;
        self.gauge_samples += child.gauge_samples;
        // The child's open state coexisted with the parent's during the
        // lifetime; bound the combined high-water conservatively.
        self.peak_open = self
            .peak_open
            .max(self.open.len() as u64 + child.peak_open.max(child.open.len() as u64));
        for mut span in child.spans {
            span.replica = r;
            if self.spans.len() < self.cfg.max_spans {
                self.spans.push(span);
            } else {
                self.spans_dropped += 1;
            }
        }
        for mut instant in child.instants {
            if instant.replica != InstantEvent::FLEET {
                instant.replica = r;
            }
            self.push_instant(instant);
        }
        for (id, mut entry) in child.open {
            entry.replica = r;
            let previous = self.open.insert(id, entry);
            debug_assert!(
                previous.is_none(),
                "request {id} open in two lifetimes at once"
            );
        }
        for (_, child_series) in child.series {
            self.series_mut(r).merge(&child_series);
        }
        self.fleet_series.merge(&child.fleet_series);
        self.attribution.add(&child.attribution);
        self.note_open_peak();
    }

    /// Closes every still-open request as [`Terminal::Unfinished`] at
    /// `at` (normally the run's makespan). Id order, so deterministic.
    pub fn finalize(&mut self, at: SimTime) {
        let open_ids: Vec<u64> = self.open.keys().copied().collect();
        for id in open_ids {
            self.close_terminal(at, RequestId(id), Terminal::Unfinished);
        }
    }
}

impl TraceSink for TraceRecorder {
    fn on_admitted(&mut self, at: SimTime, info: AdmitInfo) {
        self.requests_seen += 1;
        let raw = info.id.raw();
        let retry = self.retried.contains(&raw) || self.pending_retry.contains_key(&raw);
        if let Some(pending) = self.pending_retry.remove(&raw) {
            self.attribution.class_mut(pending.class).downtime_s +=
                at.saturating_since(pending.casualty_at).as_secs();
        }
        let sampled = self.cfg.sampled(info.id);
        if sampled && !retry {
            self.sampled_requests += 1;
        }
        self.open.insert(
            raw,
            OpenEntry {
                class: info.class,
                conversation: info.conversation.map(|c| c.raw()),
                admitted: at,
                input_len: info.input_len,
                output_len: info.output_len,
                first_token: None,
                phase: SpanPhase::Queued,
                phase_start: at,
                // Engine events file under replica 0 until a fleet's
                // `merge_child` re-keys them.
                replica: 0,
                sampled,
                retry,
            },
        );
        self.note_open_peak();
    }

    fn on_phase(&mut self, at: SimTime, id: RequestId, phase: SpanPhase) {
        let Some(mut entry) = self.open.get(&id.raw()).copied() else {
            return;
        };
        if entry.phase == phase {
            // Coalesce same-phase transitions (decode iterations cycle
            // Decoding -> DecodeReady -> Decoding; one span covers them).
            return;
        }
        self.close_phase(id.raw(), &entry, at);
        if phase == SpanPhase::Decode {
            entry.first_token.get_or_insert(at);
        }
        entry.phase = phase;
        entry.phase_start = at;
        self.open.insert(id.raw(), entry);
    }

    fn on_terminal(&mut self, at: SimTime, id: RequestId, terminal: Terminal) {
        self.close_terminal(at, id, terminal);
    }

    fn on_preempted(&mut self, at: SimTime, id: RequestId) {
        let Some(entry) = self.open.get(&id.raw()).copied() else {
            return;
        };
        self.series_mut(entry.replica).preemptions.record(at);
        if entry.sampled {
            self.push_instant(InstantEvent {
                at,
                replica: entry.replica,
                name: "preempt",
                detail: format!("request {}", id.raw()),
            });
        }
    }

    fn on_cache_adopt(&mut self, at: SimTime, id: RequestId, tokens: u64) {
        let Some(entry) = self.open.get(&id.raw()).copied() else {
            return;
        };
        self.series_mut(entry.replica).cache_adopts.record(at);
        if entry.sampled {
            self.push_instant(InstantEvent {
                at,
                replica: entry.replica,
                name: "cache-adopt",
                detail: format!("request {} reused {tokens} tokens", id.raw()),
            });
        }
    }

    fn on_cache_evict(&mut self, at: SimTime, entries: u64, _tokens: u64) {
        self.series_mut(0).cache_evictions.record_many(at, entries);
    }

    fn on_gauges(&mut self, at: SimTime, gauges: Gauges) {
        self.gauge_samples += 1;
        self.series_mut(0).record_gauges(at, gauges);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loong_simcore::ids::ConversationId;

    fn admit(id: u64, class: TrafficClass) -> AdmitInfo {
        AdmitInfo {
            id: RequestId(id),
            class,
            conversation: if id.is_multiple_of(2) {
                Some(ConversationId(id / 2))
            } else {
                None
            },
            input_len: 100,
            output_len: 10,
        }
    }

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn sampling_is_deterministic_and_roughly_calibrated() {
        let cfg = TraceConfig::default(); // 1%
        let hits: Vec<u64> = (0..100_000)
            .filter(|&i| cfg.sampled(RequestId(i)))
            .collect();
        let again: Vec<u64> = (0..100_000)
            .filter(|&i| cfg.sampled(RequestId(i)))
            .collect();
        assert_eq!(hits, again, "sampling must be a pure function of the id");
        assert!(
            (500..2000).contains(&hits.len()),
            "1% of 100k should sample ~1000 ids, got {}",
            hits.len()
        );
        assert!(TraceConfig::sample_all().sampled(RequestId(12345)));
    }

    #[test]
    fn lifecycle_folds_attribution_and_emits_spans() {
        let mut rec = TraceRecorder::new(TraceConfig::sample_all());
        rec.on_admitted(t(0.0), admit(7, TrafficClass::Interactive));
        rec.on_phase(t(1.0), RequestId(7), SpanPhase::Prefill);
        rec.on_phase(t(3.0), RequestId(7), SpanPhase::Decode);
        rec.on_phase(t(3.0), RequestId(7), SpanPhase::Decode); // coalesced
        rec.on_terminal(t(8.0), RequestId(7), Terminal::Completed);

        let a = rec.attribution();
        assert_eq!(a.interactive.queued_s, 1.0);
        assert_eq!(a.interactive.prefill_s, 2.0);
        assert_eq!(a.interactive.decode_s, 5.0);
        assert_eq!(a.total().total_s(), 8.0);

        let ledger = rec.ledger();
        assert_eq!(ledger.requests_seen, 1);
        assert_eq!(ledger.sampled_requests, 1);
        assert_eq!(ledger.spans_recorded, 3);
        assert_eq!(ledger.open_requests, 0);
        assert_eq!(ledger.peak_open_requests, 1);
        let series = rec.series().get(&0).expect("replica 0 series");
        assert_eq!(series.completions.total(), 1);
        assert_eq!(series.slo_hits.total(), 1);
    }

    #[test]
    fn casualty_retry_attributes_downtime_and_retry_prefill() {
        let cfg = TraceConfig::sample_all();
        let mut rec = TraceRecorder::new(cfg);
        rec.on_admitted(t(0.0), admit(3, TrafficClass::Standard));
        rec.on_phase(t(1.0), RequestId(3), SpanPhase::Prefill);
        rec.casualty(t(2.0), RequestId(3));
        rec.retry_scheduled(t(2.0), RequestId(3), 1, t(2.5));

        // The retry executes on another replica's engine.
        let mut child = TraceRecorder::new(cfg);
        child.note_retried(RequestId(3));
        child.on_admitted(t(2.5), admit(3, TrafficClass::Standard));
        child.on_phase(t(3.0), RequestId(3), SpanPhase::Prefill);
        child.on_phase(t(4.5), RequestId(3), SpanPhase::Decode);
        child.on_terminal(t(5.0), RequestId(3), Terminal::Completed);
        rec.merge_child(ReplicaId(1), child);
        rec.on_admitted(t(2.5), admit(99, TrafficClass::Standard)); // resolves nothing
        rec.finalize(t(6.0));

        let a = rec.attribution();
        // First attempt: 1s queued + 1s prefill (lost work still prefill).
        // Retry: 0.5s queued + 1.5s retry-prefill + 0.5s decode.
        assert_eq!(a.standard.prefill_s, 1.0);
        assert_eq!(a.standard.retry_prefill_s, 1.5);
        assert_eq!(a.standard.decode_s, 0.5);
        assert_eq!(a.standard.queued_s, 1.0 + 0.5 + 3.5); // + request 99 unfinished
        assert_eq!(a.standard.downtime_s, 0.5); // crash 2.0 -> re-admit 2.5
        assert_eq!(rec.fleet_series().retries.total(), 1);
        assert_eq!(a.total().total_s(), 5.0 + 1.0 + 1.5 + 0.5 + 0.5);
    }

    #[test]
    fn span_cap_drops_and_counts() {
        let cfg = TraceConfig {
            max_spans: 2,
            ..TraceConfig::sample_all()
        };
        let mut rec = TraceRecorder::new(cfg);
        rec.on_admitted(t(0.0), admit(1, TrafficClass::Interactive));
        rec.on_phase(t(1.0), RequestId(1), SpanPhase::Prefill);
        rec.on_phase(t(2.0), RequestId(1), SpanPhase::Decode);
        rec.on_phase(t(3.0), RequestId(1), SpanPhase::SwapOut);
        rec.on_terminal(t(4.0), RequestId(1), Terminal::Completed);
        let ledger = rec.ledger();
        assert_eq!(ledger.spans_recorded, 2);
        assert_eq!(ledger.spans_dropped, 2);
        // Attribution is exact even when spans drop.
        assert_eq!(rec.attribution().total().total_s(), 4.0);
    }

    #[test]
    fn unsampled_requests_cost_no_spans_but_full_aggregation() {
        let cfg = TraceConfig {
            sample_permille: 0,
            ..TraceConfig::default()
        };
        let mut rec = TraceRecorder::new(cfg);
        rec.on_admitted(t(0.0), admit(5, TrafficClass::BestEffort));
        rec.on_phase(t(2.0), RequestId(5), SpanPhase::Prefill);
        rec.on_terminal(t(6.0), RequestId(5), Terminal::Completed);
        let ledger = rec.ledger();
        assert_eq!(ledger.spans_recorded, 0);
        assert_eq!(ledger.sampled_requests, 0);
        assert_eq!(rec.attribution().best_effort.queued_s, 2.0);
        assert_eq!(rec.attribution().best_effort.prefill_s, 4.0);
        assert_eq!(rec.series().get(&0).unwrap().completions.total(), 1);
    }
}
