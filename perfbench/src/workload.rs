//! The benchmark's three open-loop workloads, their set-up, their untraced
//! run, and the correctness gate every run passes through.
//!
//! Every workload is open loop on the simulated clock: arrivals follow a
//! seeded schedule that no amount of simulator slowness can delay, so the
//! generator is never late. Replicas run serially (`parallel = false`), so
//! one run is one core's work.

use crate::stats;
use loongserve::prelude::*;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Share of offered requests that must meet the SLO at the knee rate.
pub const KNEE_ATTAINMENT: f64 = 0.90;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many short ShareGPT requests over four replicas behind JSQ: the
    /// engine event loop, decode batching and the router do the work.
    ShareGptFleet,
    /// The paper's Mixed dataset on one node: dispatch DP, elastic scaling,
    /// KV migration and long-context cost-model calls dominate.
    MixedLongCtx,
    /// A diurnal mixed-class trace through the elastic era loop: the
    /// autoscaler, admission shedding, crash retries and the prefix cache.
    ElasticDiurnal,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::ShareGptFleet,
        Workload::MixedLongCtx,
        Workload::ElasticDiurnal,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ShareGptFleet => "sharegpt-fleet",
            Workload::MixedLongCtx => "mixed-longctx",
            Workload::ElasticDiurnal => "elastic-diurnal",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Arrivals generated for one timed run: requests for the single-shot
    /// workloads, arrival events (a conversation is one event) for the
    /// mixed-class trace. Sized so that every tail percentile has at least
    /// ten samples beyond it.
    pub fn count(self) -> usize {
        match self {
            Workload::ShareGptFleet => 20_000,
            // Mixed TTFT swings with how each seed's longest prompts queue
            // behind one another: 40k requests halve the seed-to-seed
            // spread of its tails against 20k.
            Workload::MixedLongCtx => 40_000,
            Workload::ElasticDiurnal => 1_000,
        }
    }

    /// The traces the timed repetitions cycle through: `trace` cut into
    /// consecutive chunks, each short enough (under a second) that the
    /// calibration samples taken right before and after it see the host at
    /// the speed it ran. The whole trace is timed, so the seed-to-seed
    /// difference in work averages over all of it. The elastic trace is
    /// one chunk, as its era loop follows the whole diurnal pattern.
    pub fn timed_chunks(self, trace: &Trace) -> Vec<Trace> {
        let len = match self {
            Workload::ShareGptFleet | Workload::MixedLongCtx => 2_500,
            Workload::ElasticDiurnal => trace.len().max(1),
        };
        trace
            .requests
            .chunks(len)
            .enumerate()
            .map(|(i, requests)| Trace {
                label: format!("{} · chunk {i}", trace.label),
                requests: requests.to_vec(),
            })
            .collect()
    }

    /// How much more the timed repetitions slow than the calibration kernel
    /// when the host is contended: the slope of log repetition time on log
    /// kernel time, fitted over two sets of six processes (about 200
    /// repetitions each) on the reference host, 1.14 and 1.22 on
    /// `sharegpt-fleet` and 1.42 and 1.81 on `mixed-longctx`, correlation
    /// about 0.8. Unmeasured on `elastic-diurnal`, which is normalised
    /// plainly.
    pub fn host_sensitivity(self) -> f64 {
        match self {
            Workload::ShareGptFleet => 1.25,
            Workload::MixedLongCtx => 1.5,
            Workload::ElasticDiurnal => 1.0,
        }
    }

    /// Arrivals generated for each probe of the knee bisection: a shorter
    /// trace of the same shape and seed.
    pub fn knee_count(self) -> usize {
        match self {
            Workload::ShareGptFleet => 6_000,
            Workload::MixedLongCtx => 2_000,
            Workload::ElasticDiurnal => 300,
        }
    }

    /// The bracket of arrival-rate multipliers the knee bisection searches,
    /// and its number of halvings.
    pub fn knee_bracket(self) -> (f64, f64, u32) {
        match self {
            Workload::ShareGptFleet => (1.5, 6.0, 6),
            Workload::MixedLongCtx => (0.75, 3.0, 6),
            Workload::ElasticDiurnal => (0.5, 8.0, 5),
        }
    }

    /// The arrival process `scale` times as fast: every rate multiplied and,
    /// for the diurnal curve, every period and window divided by `scale`,
    /// so the same pattern plays on a faster clock.
    pub fn arrivals(self, scale: f64) -> ArrivalProcess {
        match self {
            Workload::ShareGptFleet => ArrivalProcess::Poisson {
                rate: 120.0 * scale,
            },
            Workload::MixedLongCtx => ArrivalProcess::Poisson { rate: 0.15 * scale },
            Workload::ElasticDiurnal => ArrivalProcess::DiurnalFlash {
                trough_rate: 0.4 * scale,
                peak_rate: 1.2 * scale,
                period_secs: 300.0 / scale,
                flash_start_s: 80.0 / scale,
                flash_secs: 50.0 / scale,
                flash_rate: 8.0 * scale,
            },
        }
    }

    /// The seeded request stream: `count` arrivals at `scale` times the
    /// workload's rates.
    pub fn stream(self, seed: u64, scale: f64, count: usize) -> TraceStream {
        let mut rng = SimRng::seed(seed);
        let arrivals = self.arrivals(scale);
        match self {
            Workload::ShareGptFleet => {
                TraceStream::dataset(DatasetKind::ShareGpt, arrivals, count, &mut rng)
            }
            Workload::MixedLongCtx => {
                TraceStream::dataset(DatasetKind::Mixed, arrivals, count, &mut rng)
            }
            Workload::ElasticDiurnal => TraceStream::mixed_classes(
                arrivals,
                count,
                &MixedClassProfile::overload_mix(),
                &mut rng,
            ),
        }
    }

    /// The fleet every run of this workload uses.
    pub fn fleet_config(self) -> FleetConfig {
        match self {
            Workload::ShareGptFleet => {
                FleetConfig::paper_fleet(SystemKind::LoongServe, 4, RouterPolicy::JoinShortestQueue)
            }
            // One node behind the passthrough router: bit for bit the bare
            // engine (tests/fleet_equivalence.rs), with no routing decision.
            Workload::MixedLongCtx => {
                FleetConfig::paper_fleet(SystemKind::LoongServe, 1, RouterPolicy::Passthrough)
            }
            Workload::ElasticDiurnal => {
                let mut config = FleetConfig::paper_fleet(
                    SystemKind::LoongServe,
                    4,
                    RouterPolicy::PrefixAffinity,
                );
                config.prefix_cache = Some(PrefixCacheConfig::default());
                config
            }
        }
    }

    /// The elastic tier of the run, `None` for the static fleets. Crashes
    /// are drawn over the trace's arrival horizon from the workload seed.
    fn elastic_config(self, seed: u64, horizon_s: f64) -> Option<ElasticConfig> {
        if self != Workload::ElasticDiurnal {
            return None;
        }
        let mut scaler = AutoscalerConfig::overload_defaults(1, 4);
        scaler.control_interval_s = 10.0;
        scaler.cooldown_s = 5.0;
        scaler.provisioning_delay_s = 5.0;
        scaler.scale_up_backlog_tokens = 24_000;
        scaler.scale_down_backlog_tokens = 12_000;
        let mut admission = AdmissionConfig::overload_defaults();
        admission.replica_capacity_tokens = 25_000;
        admission.service_tokens_per_s = 8_000.0;
        let schedule = FailureSchedule::generate(
            4,
            SimDuration::from_secs(horizon_s.max(1.0)),
            300.0,
            20.0,
            seed ^ 0xfa11,
        );
        Some(
            ElasticConfig::new(scaler)
                // The controller tracks an SLO twice as loose as the one
                // measured, so late flash stragglers do not re-trigger
                // scale-ups after the burst (as in the autoscale bench).
                .with_signal_slo(SloSpec::scaled_from_baseline(
                    0.05,
                    0.002,
                    0.05,
                    2.0 * SloSpec::PAPER_SCALE,
                ))
                .with_admission(admission)
                .with_schedule(schedule)
                .with_retry(RetryPolicy::exponential(3, 0.5)),
        )
    }

    /// Everything a run consumes before its first arrival: the materialised
    /// trace, the validated configs, the fleet, and one engine per replica
    /// (SIB profiling included), built exactly as the fleet builds them.
    /// The fleet API takes no pre-built engines, so `run` builds them again.
    pub fn setup(self, seed: u64, scale: f64, count: usize) -> Result<Setup, String> {
        let start = Instant::now();
        let trace = self.stream(seed, scale, count).collect_trace();
        let gen_s = start.elapsed().as_secs_f64();
        let horizon_s = trace.requests.last().map_or(0.0, |r| r.arrival.as_secs());
        let elastic = self.elastic_config(seed, horizon_s);
        if let Some(cfg) = &elastic {
            cfg.autoscaler.validate()?;
            if let Some(admission) = &cfg.admission {
                admission.validate()?;
            }
        }
        let config = self.fleet_config();
        let system = replica_system(&config);
        for _ in 0..config.replicas {
            black_box(system.build_engine(Some(&trace)));
        }
        Ok(Setup {
            trace,
            fleet: FleetEngine::new(config),
            elastic,
            gen_s,
        })
    }
}

/// The single-replica system each replica of `config` runs.
pub fn replica_system(config: &FleetConfig) -> SystemUnderTest {
    SystemUnderTest {
        kind: config.system,
        cluster: config.cluster.clone(),
        model: config.model.clone(),
        seed: config.seed,
        pressure: config.pressure,
        kv_capacity_override: config.kv_capacity_override,
        max_sim_time: None,
        prefix_cache: config.prefix_cache,
        attention: config.attention,
    }
}

/// A workload ready to run.
pub struct Setup {
    /// The materialised seeded trace.
    pub trace: Trace,
    /// The fleet.
    pub fleet: FleetEngine,
    /// The elastic tier, for the elastic workload.
    pub elastic: Option<ElasticConfig>,
    /// Wall seconds spent materialising the trace.
    pub gen_s: f64,
}

impl Setup {
    /// Runs the workload untraced over `trace` (a copy of the set-up trace,
    /// so callers can keep the copy out of their timers).
    pub fn run(&mut self, trace: Trace) -> Outcome {
        let offered = trace.len();
        let stream = TraceStream::from_trace(trace);
        match &self.elastic {
            None => {
                let (fleet, footprint) = self.fleet.run_stream(stream);
                Outcome::plain(offered, fleet, footprint)
            }
            Some(cfg) => {
                let (elastic, footprint) = self.fleet.run_elastic_stream(stream, cfg);
                Outcome::elastic(offered, elastic, footprint)
            }
        }
    }
}

/// Any fleet run's outcome, with the five exactly-once ledgers explicit.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Requests offered.
    pub offered: usize,
    /// Completed, rejected and unfinished requests, plus per-replica detail.
    pub fleet: FleetOutcome,
    /// Requests shed at admission.
    pub shed: Vec<RequestId>,
    /// Requests that failed terminally after crashes.
    pub failed: Vec<RequestId>,
    /// Replica-seconds paid for.
    pub replica_seconds: f64,
    /// Frontend residency ledger.
    pub footprint: FleetFootprint,
    /// Scale events and sheds (all zero for static fleets).
    pub elasticity: ElasticityStats,
    /// Crashes and retries (all zero without failure injection).
    pub reliability: ReliabilityStats,
}

impl Outcome {
    /// A static fleet's outcome: it pays for every replica over the
    /// makespan.
    pub fn plain(offered: usize, fleet: FleetOutcome, footprint: FleetFootprint) -> Self {
        let replica_seconds = fleet.replicas() as f64 * fleet.sim_time.as_secs();
        Outcome {
            offered,
            fleet,
            shed: Vec::new(),
            failed: Vec::new(),
            replica_seconds,
            footprint,
            elasticity: ElasticityStats::default(),
            reliability: ReliabilityStats::default(),
        }
    }

    /// An elastic fleet's outcome: it pays the autoscaler's replica-seconds.
    pub fn elastic(offered: usize, run: ElasticFleetOutcome, footprint: FleetFootprint) -> Self {
        Outcome {
            offered,
            shed: run.shed.iter().map(|s| s.id).collect(),
            failed: run.failed.iter().map(|f| f.id).collect(),
            replica_seconds: run.elasticity.replica_seconds,
            footprint,
            elasticity: run.elasticity,
            reliability: run.reliability,
            fleet: run.fleet,
        }
    }

    /// The correctness gate: exactly-once accounting over the five ledgers,
    /// `RequestRecord::validate` on every record, and each completed
    /// record's sizes equal to its request's.
    pub fn check(&self, trace: &Trace) -> Result<(), String> {
        if self.offered != trace.len() {
            return Err(format!(
                "{} offered, trace holds {}",
                self.offered,
                trace.len()
            ));
        }
        let requests: HashMap<RequestId, &Request> =
            trace.requests.iter().map(|r| (r.id, r)).collect();
        if requests.len() != trace.len() {
            return Err("trace ids are not unique".to_string());
        }
        let mut ledger: HashMap<RequestId, &'static str> = HashMap::with_capacity(trace.len());
        let mut enter = |id: RequestId, name: &'static str| match ledger.insert(id, name) {
            Some(prev) => Err(format!("{id} is both {prev} and {name}")),
            None if !requests.contains_key(&id) => Err(format!("{name} {id} is not in the trace")),
            None => Ok(()),
        };
        for r in &self.fleet.records {
            enter(r.id, "completed")?;
            r.validate()?;
            let req = requests[&r.id];
            if (r.input_len, r.output_len) != (req.input_len, req.output_len) {
                return Err(format!(
                    "{}: record sizes {}/{} differ from the request's {}/{}",
                    r.id, r.input_len, r.output_len, req.input_len, req.output_len
                ));
            }
        }
        for (id, _) in &self.fleet.rejected {
            enter(*id, "rejected")?;
        }
        for &id in &self.shed {
            enter(id, "shed")?;
        }
        for &id in &self.failed {
            enter(id, "failed")?;
        }
        let resolved = ledger.len() + self.fleet.unfinished;
        if resolved != self.offered {
            return Err(format!(
                "ledgers hold {} + {} unfinished = {resolved} requests, {} offered",
                ledger.len(),
                self.fleet.unfinished,
                self.offered
            ));
        }
        if self.elasticity.shed_total() != self.shed.len() as u64 {
            return Err("elasticity ledger disagrees with the shed list".to_string());
        }
        if self.reliability.retries_exhausted != self.failed.len() as u64 {
            return Err("reliability ledger disagrees with the failed list".to_string());
        }
        Ok(())
    }

    /// A digest of everything the run decided: records, the other ledgers
    /// and the fleet counters. Equal digests mean equal outcomes.
    pub fn digest(&self) -> u64 {
        let mut d = Fnv::default();
        for r in &self.fleet.records {
            d.word(r.id.raw());
            d.word(r.arrival.as_secs().to_bits());
            d.word(r.prefill_start.as_secs().to_bits());
            d.word(r.first_token.as_secs().to_bits());
            d.word(r.finish.as_secs().to_bits());
            d.word(r.output_len);
            d.word(u64::from(r.preemptions));
        }
        for (id, _) in &self.fleet.rejected {
            d.word(id.raw());
        }
        d.word(u64::MAX);
        for id in self.shed.iter().chain(&self.failed) {
            d.word(id.raw());
        }
        d.word(self.fleet.unfinished as u64);
        d.word(self.fleet.sim_time.as_secs().to_bits());
        d.word(self.fleet.iterations);
        d.word(self.fleet.scheduler_calls);
        d.word(self.fleet.migration_bytes.to_bits());
        d.0
    }

    /// SLO-meeting completions under `slo`.
    pub fn met(&self, slo: &SloSpec) -> usize {
        self.fleet.records.iter().filter(|r| slo.met_by(r)).count()
    }

    /// SLO attainment over offered requests: every request that did not
    /// complete within `slo` — shed, rejected, failed, unfinished or late —
    /// is a miss.
    pub fn attainment(&self, slo: &SloSpec) -> f64 {
        stats::attainment(self.met(slo), self.offered)
    }

    /// The simulated end-to-end metrics of this outcome.
    pub fn sim_metrics(&self) -> Result<SimMetrics, String> {
        let slo = SloSpec::default_for_lwm();
        let records = &self.fleet.records;
        let mut ttft: Vec<f64> = records.iter().map(|r| r.input_latency()).collect();
        let mut tpot_ms: Vec<f64> = records
            .iter()
            .filter(|r| r.output_len > 1)
            .map(|r| 1e3 * r.output_latency() / (r.output_len - 1) as f64)
            .collect();
        let met = self.met(&slo);
        Ok(SimMetrics {
            ttft_p50: stats::percentile(&mut ttft, 0.50)?,
            ttft_p99: stats::tail_percentile(&mut ttft, 0.99)?,
            tpot_p50: stats::percentile(&mut tpot_ms, 0.50)?,
            tpot_p99: stats::tail_percentile(&mut tpot_ms, 0.99)?,
            slo_attainment: self.attainment(&slo),
            served_share: stats::ratio(records.len() as f64, self.offered as f64),
            goodput_per_replica_s: stats::ratio(met as f64, self.replica_seconds),
            completed: records.len(),
        })
    }
}

/// The simulated (seed-exact) end-to-end metrics of one run.
#[derive(Debug, Clone, Copy)]
pub struct SimMetrics {
    /// Median time to first token, sim seconds.
    pub ttft_p50: stats::Percentile,
    /// 99th-percentile time to first token, sim seconds.
    pub ttft_p99: stats::Percentile,
    /// Median time per output token, sim milliseconds.
    pub tpot_p50: stats::Percentile,
    /// 99th-percentile time per output token, sim milliseconds.
    pub tpot_p99: stats::Percentile,
    /// SLO-meeting completions over offered requests.
    pub slo_attainment: f64,
    /// Completions over offered requests.
    pub served_share: f64,
    /// SLO-meeting completions per replica-second paid.
    pub goodput_per_replica_s: f64,
    /// Completed requests.
    pub completed: usize,
}

/// 64-bit FNV-1a over words.
#[derive(Debug)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seven requests of 100 prompt and 11 output tokens, one per second.
    fn trace() -> Trace {
        let requests = (0..7)
            .map(|i| Request::new(RequestId(i), SimTime::from_secs(i as f64), 100, 11))
            .collect();
        Trace::from_requests("unit", requests)
    }

    /// A completed record for request `id` with the given time to first
    /// token and time per output token.
    fn record(req: &Request, ttft_s: f64, tpot_s: f64) -> RequestRecord {
        let first_token = req.arrival + SimDuration::from_secs(ttft_s);
        RequestRecord {
            id: req.id,
            arrival: req.arrival,
            input_len: req.input_len,
            output_len: req.output_len,
            prefill_start: req.arrival,
            first_token,
            finish: first_token + SimDuration::from_secs(tpot_s * (req.output_len - 1) as f64),
            preemptions: 0,
            class: req.class,
        }
    }

    /// Requests 0–2 complete (0 and 1 within the SLO, 2 far too slow),
    /// 3 is rejected, 4 shed, 5 failed and 6 unfinished.
    fn outcome(trace: &Trace) -> Outcome {
        let r = &trace.requests;
        let fleet = FleetOutcome {
            per_replica: Vec::new(),
            assignments: Vec::new(),
            records: vec![
                record(&r[0], 0.1, 0.01),
                record(&r[1], 0.1, 0.01),
                record(&r[2], 500.0, 0.01),
            ],
            rejected: vec![(r[3].id, "too long".to_string())],
            unfinished: 1,
            sim_time: SimTime::from_secs(600.0),
            iterations: 0,
            migration_bytes: 0.0,
            scheduler_calls: 0,
            pressure: PressureStats::default(),
            cache: CacheStats::default(),
        };
        Outcome {
            offered: trace.len(),
            fleet,
            shed: vec![r[4].id],
            failed: vec![r[5].id],
            replica_seconds: 600.0,
            footprint: FleetFootprint::default(),
            elasticity: ElasticityStats {
                shed_interactive: 1,
                ..ElasticityStats::default()
            },
            reliability: ReliabilityStats {
                retries_exhausted: 1,
                ..ReliabilityStats::default()
            },
        }
    }

    #[test]
    fn attainment_counts_every_non_completion_as_a_miss() {
        let trace = trace();
        let outcome = outcome(&trace);
        outcome
            .check(&trace)
            .expect("the five ledgers partition the trace");
        let slo = SloSpec::default_for_lwm();
        assert_eq!(outcome.met(&slo), 2);
        assert_eq!(outcome.attainment(&slo), 2.0 / 7.0);
    }

    #[test]
    fn the_gate_rejects_a_request_in_two_ledgers() {
        let trace = trace();
        let mut outcome = outcome(&trace);
        outcome.shed.push(trace.requests[0].id);
        outcome.elasticity.shed_interactive += 1;
        let err = outcome
            .check(&trace)
            .expect_err("request 0 is completed and shed");
        assert!(err.contains("both completed and shed"), "{err}");
    }

    #[test]
    fn the_gate_rejects_a_lost_request() {
        let trace = trace();
        let mut outcome = outcome(&trace);
        outcome.fleet.unfinished = 0;
        let err = outcome
            .check(&trace)
            .expect_err("request 6 is in no ledger");
        assert!(err.contains("6 requests, 7 offered"), "{err}");
    }

    #[test]
    fn the_gate_rejects_a_causality_violation() {
        let trace = trace();
        let mut outcome = outcome(&trace);
        outcome.fleet.records[1].first_token = outcome.fleet.records[1].arrival;
        outcome.fleet.records[1].prefill_start =
            outcome.fleet.records[1].arrival + SimDuration::from_secs(1.0);
        assert!(outcome.check(&trace).is_err());
    }

    #[test]
    fn timed_chunks_cut_the_whole_trace_in_order() {
        let full = Workload::ShareGptFleet
            .stream(1, 1.0, 6_000)
            .collect_trace();
        let chunks = Workload::ShareGptFleet.timed_chunks(&full);
        let sizes: Vec<usize> = chunks.iter().map(Trace::len).collect();
        assert_eq!(sizes, vec![2_500, 2_500, 1_000]);
        let joined: Vec<&Request> = chunks.iter().flat_map(|c| &c.requests).collect();
        assert_eq!(joined.len(), full.len());
        assert!(joined.iter().zip(&full.requests).all(|(a, b)| *a == b));

        let whole = Workload::ElasticDiurnal.timed_chunks(&trace());
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0].requests, trace().requests);
    }

    #[test]
    fn equal_outcomes_share_a_digest_and_different_ones_do_not() {
        let trace = trace();
        let a = outcome(&trace);
        let mut b = outcome(&trace);
        assert_eq!(a.digest(), b.digest());
        b.fleet.records[0].finish += SimDuration::from_secs(1e-6);
        assert_ne!(a.digest(), b.digest());
    }
}
