//! Wall-clock benchmark of the LoongServe-RS simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload sharegpt-fleet|mixed-longctx|elastic-diurnal] \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With a workload, one process runs it once: untraced (`--trace 0`, the
//! end-to-end metrics) or traced (`--trace 1`, the per-layer metrics). It
//! prints a table of every metric with its unit and sample count, then one
//! JSON line. Any failed correctness check fails the run with no numbers.
//! Without a workload it runs every workload untraced and traced, each in a
//! process of its own so no run's peak memory leaks into another's.
//! `perfbench/README.md` describes the workloads and metrics.

mod calib;
mod layers;
mod stats;
mod workload;

use layers::{decompose, replay_cost_model, Spans};
use loongserve::prelude::*;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workload::{Outcome, Workload, KNEE_ATTAINMENT};

/// Calibration kernel runs at each end of the traced run.
const CALIB_PER_END: usize = 8;
/// Calibration time after a timed repetition, as a share of its length.
const CALIB_SHARE: f64 = 0.25;
/// The fewest kernel runs in one calibration burst.
const CALIB_MIN_BURST: usize = 4;
/// Set-up repetitions per round of the untraced run.
const SETUPS_PER_ROUND: usize = 3;
/// Timed repetitions of each chunk run even when they overrun `--seconds`.
const MIN_REPS: usize = 2;

/// Parsed command line.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2026,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_all(&args);
    };
    let result = if args.trace {
        traced(workload, args.seed)
    } else {
        untraced(workload, args.seed, args.seconds)
    };
    match result.and_then(Report::validated) {
        Ok(report) => {
            print!("{}", report.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload untraced and then traced, each in its own process.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            println!("\n=== {} --trace {trace} ===", w.name());
            let status = Command::new(&exe)
                .args(["--workload", w.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status();
            ok &= status.is_ok_and(|s| s.success());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// Everything one run prints.
struct Report {
    workload: Workload,
    traced: bool,
    attempted: usize,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    fn new(workload: Workload, traced: bool) -> Self {
        Report {
            workload,
            traced,
            attempted: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn add(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Rejects a report holding a non-finite value.
    fn validated(self) -> Result<Self, String> {
        match self.metrics.iter().find(|m| !m.value.is_finite()) {
            Some(m) => Err(format!("{} is {}", m.name, m.value)),
            None => Ok(self),
        }
    }

    /// The metric table, notes, and the final JSON line. A run that prints
    /// anything has passed every correctness check, so `failed` is 0.
    fn render(&self) -> String {
        let mut out = String::new();
        let kind = if self.traced { "traced" } else { "untraced" };
        let _ = writeln!(out, "# {} ({kind})", self.workload.name());
        let _ = writeln!(
            out,
            "{:<36} {:>18} {:<7} {:>9}",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<36} {:>18.6} {:<7} {:>9}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
            self.attempted,
            metrics.join(", ")
        );
        out
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Whether the workload at `scale` times its rates, on its knee-sized
/// trace, keeps at least [`KNEE_ATTAINMENT`] of offered requests within
/// the SLO.
fn knee_probe(w: Workload, seed: u64, scale: f64) -> Result<(bool, usize), String> {
    let mut setup = w.setup(seed, scale, w.knee_count())?;
    let outcome = setup.run(setup.trace.clone());
    outcome.check(&setup.trace)?;
    let attainment = outcome.attainment(&SloSpec::default_for_lwm());
    Ok((attainment >= KNEE_ATTAINMENT, outcome.offered))
}

/// The untraced run: the end-to-end metrics.
fn untraced(w: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::new(w, false);

    // The full run, untimed: the simulated metrics, and the warm-up.
    let mut setup = w.setup(seed, 1.0, w.count())?;
    let outcome = setup.run(setup.trace.clone());
    outcome.check(&setup.trace)?;
    report.attempted += outcome.offered;
    let sim = outcome.sim_metrics()?;
    let offered = outcome.offered;
    drop(outcome);

    // Rounds of a calibration burst, set-up samples of the full run, and
    // one timed repetition of the next chunk of the trace, for `seconds`.
    // The host's speed shifts in episodes of a few hundred milliseconds,
    // so each figure is normalised by the calibration samples next to it:
    // a set-up sample by the burst just before it, a repetition by the
    // bursts just before and after it.
    let chunks = w.timed_chunks(&setup.trace);
    let mut digests: Vec<Option<u64>> = vec![None; chunks.len()];
    let (mut raw_s, mut norm_s) = (
        vec![Vec::new(); chunks.len()],
        vec![Vec::new(); chunks.len()],
    );
    let mut setup_s = Vec::new();
    let mut before = calib::burst(0.0, CALIB_MIN_BURST);
    let mut calib_all = before.clone();
    let started = Instant::now();
    for rep in 0.. {
        let calib_s = stats::median(&mut before.clone());
        for _ in 0..SETUPS_PER_ROUND {
            let start = Instant::now();
            let sample = w.setup(seed, 1.0, w.count())?;
            setup_s.push(calib::to_reference_time(
                start.elapsed().as_secs_f64(),
                calib_s,
                1.0,
            ));
            drop(sample);
        }
        let chunk = rep % chunks.len();
        let copy = chunks[chunk].clone();
        let start = Instant::now();
        let outcome = setup.run(copy);
        let secs = start.elapsed().as_secs_f64();
        let after = calib::burst(CALIB_SHARE * secs, CALIB_MIN_BURST);
        let mut around: Vec<f64> = before.iter().chain(&after).copied().collect();
        raw_s[chunk].push(secs);
        norm_s[chunk].push(calib::to_reference_time(
            secs,
            stats::median(&mut around),
            w.host_sensitivity(),
        ));
        calib_all.extend_from_slice(&after);
        before = after;
        report.attempted += outcome.offered;
        match digests[chunk] {
            None => {
                outcome.check(&chunks[chunk])?;
                digests[chunk] = Some(outcome.digest());
            }
            Some(digest) if digest != outcome.digest() => {
                return Err(format!("repeated runs of chunk {chunk} disagree"));
            }
            Some(_) => {}
        }
        let elapsed = started.elapsed().as_secs_f64();
        let per_round = elapsed / (rep + 1) as f64;
        if rep + 1 >= MIN_REPS * chunks.len() && elapsed + 0.5 * per_round >= seconds {
            break;
        }
    }
    let peak_rss = peak_rss_mib()?;
    // One pass over the chunks, each timed at the median of its repetitions.
    let timed_offered: usize = chunks.iter().map(Trace::len).sum();
    let pass_s = |times: &mut [Vec<f64>]| times.iter_mut().map(|t| stats::median(t)).sum::<f64>();
    let raw_rate = timed_offered as f64 / pass_s(&mut raw_s);
    let rate = timed_offered as f64 / pass_s(&mut norm_s);
    let reps: usize = norm_s.iter().map(Vec::len).sum();
    let calib_median_s = stats::median(&mut calib_all);

    // The knee: untimed, on shorter traces of the same shape and seed.
    let (lo, hi, steps) = w.knee_bracket();
    let mut probes = 0;
    let mut probe_error = None;
    let knee_scale = stats::bisect_max_rate(lo, hi, steps, |scale| {
        probes += 1;
        match knee_probe(w, seed, scale) {
            Ok((passes, requests)) => {
                report.attempted += requests;
                passes
            }
            Err(e) => {
                probe_error.get_or_insert(e);
                false
            }
        }
    });
    if let Some(e) = probe_error {
        return Err(e);
    }

    report.add("sim_req_per_wall_s", rate, "req/s", reps);
    report.add("setup_s", stats::median(&mut setup_s), "s", setup_s.len());
    report.add("peak_rss_mib", peak_rss, "MiB", 1);
    report.add("ttft_p50_s", sim.ttft_p50.value, "s", sim.ttft_p50.samples);
    report.add("ttft_p99_s", sim.ttft_p99.value, "s", sim.ttft_p99.samples);
    report.add(
        "tpot_p50_ms",
        sim.tpot_p50.value,
        "ms",
        sim.tpot_p50.samples,
    );
    report.add(
        "tpot_p99_ms",
        sim.tpot_p99.value,
        "ms",
        sim.tpot_p99.samples,
    );
    report.add("slo_attainment", sim.slo_attainment, "ratio", offered);
    report.add("served_share", sim.served_share, "ratio", offered);
    report.add(
        "slo_goodput_per_replica_s",
        sim.goodput_per_replica_s,
        "req/s",
        sim.completed,
    );
    report.add(
        "slo_max_rate_rps",
        knee_scale * w.arrivals(1.0).mean_rate(),
        "req/s",
        probes,
    );
    report.notes.push(format!(
        "p99 tails: ttft {} and tpot {} samples beyond",
        sim.ttft_p99.beyond, sim.tpot_p99.beyond
    ));
    report.notes.push(format!(
        "raw_req_per_wall_s {raw_rate} (over {reps} runs of {} chunks); calibration \
         kernel median {calib_median_s} s over {} samples",
        chunks.len(),
        calib_all.len()
    ));
    Ok(report)
}

/// The traced run: the per-layer metrics.
fn traced(w: Workload, seed: u64) -> Result<Report, String> {
    let mut report = Report::new(w, true);
    let mut spans = Spans::new();
    let (_, warm_requests) = knee_probe(w, seed, 1.0)?;
    report.attempted += warm_requests;
    let mut calibs = calib::burst(0.0, CALIB_PER_END);

    // workload: trace materialisation, repeated.
    let mut gen_s = Vec::new();
    let mut setup = None;
    for _ in 0..5 {
        let (s, _) = spans.time("Workload::setup", None, || w.setup(seed, 1.0, w.count()));
        let s = s?;
        gen_s.push(s.gen_s);
        setup = Some(s);
    }
    let mut setup = setup.expect("set-up ran");
    let trace = setup.trace.clone();
    let offered = trace.len();
    let config = w.fleet_config();

    // The workload's own untraced run: the reference every traced path
    // must reproduce record for record.
    let copy = trace.clone();
    let profile = SelfProfile::start();
    let (reference, untraced_s) = spans.time("run.untraced", None, || setup.run(copy));
    let reference_points = profile.report().counters.sched_points;
    reference.check(&trace)?;
    report.attempted += offered;

    // The plain static fleet over the same trace: the reference itself
    // for the static workloads, a run of its own for the elastic one.
    let (plain, plain_s, plain_points) = match &setup.elastic {
        None => (reference.clone(), untraced_s, reference_points),
        Some(_) => {
            let copy = trace.clone();
            let profile = SelfProfile::start();
            let ((fleet, footprint), secs) = spans.time("FleetEngine::run_stream", None, || {
                FleetEngine::new(config.clone()).run_stream(TraceStream::from_trace(copy))
            });
            let plain = Outcome::plain(offered, fleet, footprint);
            plain.check(&trace)?;
            report.attempted += offered;
            (plain, secs, profile.report().counters.sched_points)
        }
    };
    let decomposition = decompose(&config, &trace, &mut spans);
    report.attempted += offered;
    if Outcome::plain(offered, decomposition.outcome.clone(), plain.footprint).digest()
        != plain.digest()
    {
        return Err("the traced decomposition differs from the untraced fleet run".to_string());
    }

    // Tracing cost and time attribution: the decomposition for the static
    // workloads, the traced elastic run for the elastic one.
    let (traced_s, attribution) = match &setup.elastic {
        None => (decomposition.wall_s(), decomposition.recorder.attribution()),
        Some(cfg) => {
            let mut recorder = TraceRecorder::new(TraceConfig::default());
            let copy = trace.clone();
            let ((run, footprint), secs) =
                spans.time("FleetEngine::run_elastic_stream_traced", None, || {
                    FleetEngine::new(config.clone()).run_elastic_stream_traced(
                        TraceStream::from_trace(copy),
                        cfg,
                        &mut recorder,
                    )
                });
            report.attempted += offered;
            if Outcome::elastic(offered, run, footprint).digest() != reference.digest() {
                return Err("the traced elastic run differs from the untraced one".to_string());
            }
            (secs, recorder.attribution())
        }
    };

    // The era loop's own cost: armed-idle elastic against the plain fleet
    // on the same trace, which must agree record for record. A single
    // replica has no fleet to scale, so mixed-longctx skips it.
    let mut era_ratios = (0.0, 0.0);
    if config.replicas > 1 {
        let copy = trace.clone();
        let idle_cfg = ElasticConfig::armed_idle(config.replicas);
        let profile = SelfProfile::start();
        let ((idle, footprint), idle_s) =
            spans.time("FleetEngine::run_elastic_stream(armed_idle)", None, || {
                FleetEngine::new(config.clone())
                    .run_elastic_stream(TraceStream::from_trace(copy), &idle_cfg)
            });
        let idle_points = profile.report().counters.sched_points;
        report.attempted += offered;
        if Outcome::elastic(offered, idle, footprint).digest() != plain.digest() {
            return Err("armed-idle elastic differs from the plain fleet".to_string());
        }
        era_ratios = (
            stats::ratio(idle_s, plain_s),
            stats::ratio(idle_points as f64, plain_points as f64),
        );
    }

    let (prefill_ns, decode_ns) = spans
        .time("CostModel replay", None, || {
            replay_cost_model(&config, &decomposition.sched, 0.05)
        })
        .0;
    calibs.extend(calib::burst(0.0, CALIB_PER_END));
    let calib_s = stats::median(&mut calibs);
    let ns = |raw_ns: f64| calib::to_reference_time(raw_ns, calib_s, 1.0);

    // workload
    report.add(
        "workload.gen_ns_per_req",
        ns(stats::median(&mut gen_s) * 1e9 / offered as f64),
        "ns",
        gen_s.len(),
    );
    // router
    let (imbalance, affinity) = routing_shape(&trace, &reference);
    report.add(
        "router.route_ns_per_req",
        ns(decomposition.route_s * 1e9 / offered as f64),
        "ns",
        offered,
    );
    report.add(
        "router.load_imbalance",
        imbalance,
        "ratio",
        reference.fleet.replicas(),
    );
    // Conversations, the prefix cache, the era loop's ledgers, crashes and
    // retries exist only on the elastic workload; the static workloads do
    // not report these metrics, which would be fixed by construction there.
    let elastic = setup.elastic.is_some();
    if elastic {
        report.add("router.affinity_share", affinity.0, "ratio", affinity.1);
    }
    // engine
    let points = decomposition.sched_points;
    report.add(
        "engine.self_ns_per_sched_point",
        ns(decomposition.engine_self_s() * 1e9 / points.max(1) as f64),
        "ns",
        points as usize,
    );
    report.add(
        "engine.sched_points_per_req",
        reference_points as f64 / offered as f64,
        "count",
        offered,
    );
    report.add(
        "engine.iterations_per_req",
        reference.fleet.iterations as f64 / offered as f64,
        "count",
        offered,
    );
    // sched
    let s = &decomposition.sched;
    let calls = s.calls.max(1) as f64;
    let scale_ups: usize = decomposition
        .outcome
        .per_replica
        .iter()
        .flat_map(|r| &r.outcome.scaling_events)
        .filter(|e| e.kind == ScalingEventKind::ScaleUp)
        .count();
    let waits: Vec<f64> = reference
        .fleet
        .records
        .iter()
        .map(|r| r.queueing_delay())
        .collect();
    report.add(
        "sched.ns_per_call",
        ns(s.sched_ns as f64 / calls),
        "ns",
        s.calls as usize,
    );
    report.add("sched.calls", s.calls as f64, "count", 1);
    report.add(
        "sched.pending_mean",
        s.pending_sum as f64 / calls,
        "count",
        s.calls as usize,
    );
    report.add(
        "sched.decode_batch_mean",
        stats::ratio(s.decode_batch_sum as f64, s.decode_actions as f64),
        "count",
        s.decode_actions as usize,
    );
    report.add(
        "sched.prefill_dop_mean",
        stats::ratio(s.prefill_dop_sum as f64, s.prefill_actions as f64),
        "count",
        s.prefill_actions as usize,
    );
    report.add(
        "sched.scale_up_share",
        stats::ratio(scale_ups as f64, s.decode_actions as f64),
        "ratio",
        s.decode_actions as usize,
    );
    // The mean, not the median: most requests on mixed-longctx start
    // prefill the instant they arrive, so its median wait is exactly 0.
    report.add(
        "sched.queue_wait_mean_s",
        waits.iter().sum::<f64>() / waits.len().max(1) as f64,
        "s",
        waits.len(),
    );
    // model
    report.add(
        "model.prefill_cost_ns",
        ns(prefill_ns),
        "ns",
        s.prefill_shapes.len(),
    );
    report.add(
        "model.decode_cost_ns",
        ns(decode_ns),
        "ns",
        s.decode_shapes.len(),
    );
    // esp
    let scale_events: usize = reference
        .fleet
        .per_replica
        .iter()
        .map(|r| r.outcome.scaling_events.len())
        .sum();
    report.add(
        "esp.migration_gib",
        reference.fleet.migration_bytes / f64::from(1u32 << 30),
        "GiB",
        1,
    );
    report.add(
        "esp.scale_events_per_req",
        scale_events as f64 / offered as f64,
        "count",
        offered,
    );
    // kvcache
    let cache = reference.fleet.cache;
    let prompt_tokens: u64 = trace.requests.iter().map(|r| r.input_len).sum();
    report.add(
        "kvcache.util_mean",
        s.kv_util_sum / calls,
        "ratio",
        s.calls as usize,
    );
    report.add(
        "kvcache.util_peak",
        s.kv_util_peak,
        "ratio",
        s.calls as usize,
    );
    if elastic {
        report.add(
            "kvcache.prefix_hit_ratio",
            cache.hit_rate(),
            "ratio",
            cache.lookups as usize,
        );
        report.add(
            "kvcache.prefix_reuse_share",
            stats::ratio(cache.reused_tokens as f64, prompt_tokens as f64),
            "ratio",
            offered,
        );
        report.add(
            "kvcache.prefix_evicted_tokens",
            cache.evicted_tokens as f64,
            "count",
            cache.evicted_entries as usize,
        );
    }
    // era
    report.add("era.armed_idle_wall_ratio", era_ratios.0, "ratio", 2);
    report.add("era.replay_sched_ratio", era_ratios.1, "ratio", 2);
    if elastic {
        report.add(
            "era.scale_ups",
            reference.elasticity.scale_up_events as f64,
            "count",
            1,
        );
        report.add("era.shed", reference.shed.len() as f64, "count", offered);
        report.add(
            "era.casualties",
            reference.reliability.failed_attempts as f64,
            "count",
            offered,
        );
        report.add(
            "era.retries",
            reference.reliability.retries_scheduled as f64,
            "count",
            offered,
        );
        report.add(
            "era.frontend_peak_resident",
            reference.footprint.peak_resident_requests as f64,
            "count",
            offered,
        );
    }
    // trace
    report.add(
        "trace.recorder_overhead_ratio",
        stats::ratio(decomposition.sink_ns as f64 * 1e-9, decomposition.run_s),
        "ratio",
        points as usize,
    );
    let phases = attribution.total();
    let total = phases.total_s();
    let mut shares = vec![
        ("trace.attr.queued_share", phases.queued_s),
        ("trace.attr.prefill_share", phases.prefill_s),
        ("trace.attr.decode_share", phases.decode_s),
        ("trace.attr.migrate_share", phases.migrate_s),
    ];
    if elastic {
        shares.push(("trace.attr.retry_share", phases.retry_prefill_s));
        shares.push(("trace.attr.downtime_share", phases.downtime_s));
    }
    for (name, secs) in shares {
        report.add(name, stats::ratio(secs, total), "ratio", offered);
    }
    // host
    report.add("host.calib_s", calib_s, "s", calibs.len());
    report.add(
        "host.raw_req_per_wall_s",
        offered as f64 / untraced_s,
        "req/s",
        1,
    );
    report.add(
        "harness.trace_overhead_ratio",
        stats::ratio(traced_s, untraced_s),
        "ratio",
        1,
    );

    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = out_dir.join(format!("{}-seed{seed}.spans.json", w.name()));
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&path, spans.chrome_json()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    report
        .notes
        .push(format!("harness spans written to {}", path.display()));
    Ok(report)
}

/// Routing shape of a run: the most-loaded replica's assigned tokens over
/// the mean, and the share of follow-up turns (with their count) sent to
/// the replica that served the conversation's previous turn.
fn routing_shape(trace: &Trace, outcome: &Outcome) -> (f64, (f64, usize)) {
    let requests: std::collections::HashMap<RequestId, &Request> =
        trace.requests.iter().map(|r| (r.id, r)).collect();
    let mut tokens = vec![0u64; outcome.fleet.replicas()];
    let mut routed = std::collections::HashSet::new();
    let mut last = std::collections::HashMap::new();
    let (mut follow_ups, mut kept) = (0usize, 0usize);
    // Assignments are in routing order; a crash retry re-routes an id, and
    // only a request's first route counts as its turn's placement.
    for (id, replica) in &outcome.fleet.assignments {
        let req = requests[id];
        tokens[replica.index()] += req.input_len + req.output_len;
        let Some(conversation) = req.conversation.filter(|_| routed.insert(*id)) else {
            continue;
        };
        if let Some(prev) = last.insert(conversation, *replica) {
            follow_ups += 1;
            kept += usize::from(prev == *replica);
        }
    }
    let mean = tokens.iter().sum::<u64>() as f64 / tokens.len() as f64;
    let max = tokens.iter().copied().max().unwrap_or(0) as f64;
    (
        stats::ratio(max, mean),
        (stats::ratio(kept as f64, follow_ups as f64), follow_ups),
    )
}
