//! Repository automation tasks (`cargo run -p xtask -- <task>`).
//!
//! Three tasks:
//!
//! * `bench-gate <BENCH_*.json>` — the perf-regression gate. Reads a
//!   bench's `--smoke` output from stdin, extracts its `BENCH_SMOKE_JSON`
//!   line (one JSON object of deterministic, wall-clock-free metrics),
//!   and compares every metric named by the reference file's
//!   `smoke_gate.metrics` object within `smoke_gate.tolerance` relative
//!   tolerance (±25% by default; a zero reference admits only zero). The
//!   delta table is always printed; any violation fails the process, which
//!   fails `ci.sh` and the GitHub workflow.
//!
//! * `trace-check <trace.perfetto.json>` — the exported-trace validator.
//!   Parses a Chrome trace-event document produced by
//!   [`loong_trace::perfetto_json`], then checks the structural invariants
//!   the exporter promises: every event is a well-formed `"X"` (complete
//!   span) or `"i"` (instant) record, durations are non-negative, the
//!   global stream is sorted by timestamp, spans of the same request on
//!   the same replica never overlap, and the `otherData` counts match the
//!   events actually present (span count, distinct sampled requests,
//!   instant count) — the cross-validation hook against the recorder's
//!   `TraceLedger`.
//!
//! * `perf-pairs <parent-dir> <change-dir> <workload> <pairs> [seed]` —
//!   alternating `BENCHMARK.json` runs of two checkouts on one host, at
//!   perfbench's seed 2026 or the given one, summarised per end-to-end
//!   metric (see [`perf_pairs`]).
//!
//! Only simulated quantities (completed counts, iterations, simulated
//! seconds, token counts) are gated — wall-clock throughput varies across
//! runners far beyond any useful tolerance and stays report-only.

mod perf_pairs;

use serde::Value;
use std::io::Read;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [task, reference] if task == "bench-gate" => bench_gate(reference),
        [task, trace] if task == "trace-check" => trace_check(trace),
        [task, parent, change, workload, pairs, seed @ ..]
            if task == "perf-pairs" && seed.len() <= 1 =>
        {
            let seed = seed.first().map(String::as_str);
            perf_pairs::perf_pairs(parent, change, workload, pairs, seed)
        }
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- bench-gate <BENCH_*.json>  (smoke output on stdin)\n\
                 \x20      cargo run -p xtask -- trace-check <trace.perfetto.json>\n\
                 \x20      cargo run -p xtask -- perf-pairs <parent-dir> <change-dir> <workload> <pairs> [seed]"
            );
            ExitCode::from(2)
        }
    }
}

/// Reads a `Value::Map` field, failing with a readable message.
fn get<'a>(value: &'a Value, key: &str, context: &str) -> Result<&'a Value, String> {
    value
        .get(key)
        .ok_or_else(|| format!("{context}: missing key `{key}`"))
}

/// Numeric view of a JSON value (u64/i64/f64).
fn as_number(value: &Value) -> Option<f64> {
    match value {
        Value::U64(v) => Some(*v as f64),
        Value::I64(v) => Some(*v as f64),
        Value::F64(v) => Some(*v),
        _ => None,
    }
}

fn bench_gate(reference_path: &str) -> ExitCode {
    match bench_gate_inner(reference_path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bench-gate: {message}");
            ExitCode::FAILURE
        }
    }
}

fn bench_gate_inner(reference_path: &str) -> Result<(), String> {
    let reference_text = std::fs::read_to_string(reference_path)
        .map_err(|e| format!("cannot read {reference_path}: {e}"))?;
    let reference = serde_json::parse_value(&reference_text)
        .map_err(|e| format!("{reference_path} is not valid JSON: {e:?}"))?;
    let gate = get(&reference, "smoke_gate", reference_path)?;
    let tolerance = as_number(get(gate, "tolerance", "smoke_gate")?)
        .ok_or_else(|| "smoke_gate.tolerance must be a number".to_string())?;
    let Value::Map(metrics) = get(gate, "metrics", "smoke_gate")? else {
        return Err("smoke_gate.metrics must be an object".to_string());
    };

    let mut stdin = String::new();
    std::io::stdin()
        .read_to_string(&mut stdin)
        .map_err(|e| format!("cannot read smoke output from stdin: {e}"))?;
    let json_line = stdin
        .lines()
        .rev()
        .find_map(|l| l.trim().strip_prefix("BENCH_SMOKE_JSON "))
        .ok_or_else(|| "no BENCH_SMOKE_JSON line found in smoke output".to_string())?;
    let actuals = serde_json::parse_value(json_line)
        .map_err(|e| format!("BENCH_SMOKE_JSON payload is not valid JSON: {e:?}"))?;

    let bench = match actuals.get("benchmark") {
        Some(Value::Str(s)) => s.clone(),
        _ => "<unnamed>".to_string(),
    };
    println!(
        "bench-gate: {bench} vs {reference_path} (tolerance ±{:.0}%)",
        tolerance * 100.0
    );
    println!(
        "{:>24} {:>14} {:>14} {:>9}  verdict",
        "metric", "reference", "actual", "delta"
    );

    let mut failures = 0usize;
    for (name, expected) in metrics {
        let expected = as_number(expected)
            .ok_or_else(|| format!("smoke_gate.metrics.{name} must be a number"))?;
        let Some(actual) = actuals.get(name).and_then(as_number) else {
            println!(
                "{name:>24} {expected:>14.3} {:>14} {:>9}  FAIL (missing)",
                "-", "-"
            );
            failures += 1;
            continue;
        };
        // Relative tolerance against the reference; a zero reference (e.g.
        // `unfinished`) admits only an exact zero.
        let allowed = tolerance * expected.abs();
        let delta = actual - expected;
        let ok = delta.abs() <= allowed;
        let delta_pct = if expected != 0.0 {
            format!("{:+.1}%", delta / expected * 100.0)
        } else if delta == 0.0 {
            "+0.0%".to_string()
        } else {
            "inf".to_string()
        };
        println!(
            "{name:>24} {expected:>14.3} {actual:>14.3} {delta_pct:>9}  {}",
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            failures += 1;
        }
    }
    if failures > 0 {
        return Err(format!(
            "{failures} metric(s) regressed beyond ±{:.0}% of {reference_path}",
            tolerance * 100.0
        ));
    }
    println!("bench-gate: all metrics within tolerance");
    Ok(())
}

fn trace_check(trace_path: &str) -> ExitCode {
    match trace_check_inner(trace_path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("trace-check: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Timestamps render with fixed 3-decimal microsecond precision; span
/// endpoints and durations are rounded independently, so adjacency checks
/// allow a couple of ulps of that grid.
const TS_EPSILON_US: f64 = 0.01;

fn trace_check_inner(trace_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(trace_path)
        .map_err(|e| format!("cannot read {trace_path}: {e}"))?;
    let doc = serde_json::parse_value(&text)
        .map_err(|e| format!("{trace_path} is not valid JSON: {e:?}"))?;

    let other = get(&doc, "otherData", trace_path)?;
    let expect = |key: &str| -> Result<u64, String> {
        as_number(get(other, key, "otherData")?)
            .map(|v| v as u64)
            .ok_or_else(|| format!("otherData.{key} must be a number"))
    };
    let expected_spans = expect("spans")?;
    let expected_span_requests = expect("span_requests")?;
    let expected_instants = expect("instants")?;

    let Value::Seq(events) = get(&doc, "traceEvents", trace_path)? else {
        return Err("traceEvents must be an array".to_string());
    };

    let field = |event: &Value, key: &str, idx: usize| -> Result<f64, String> {
        event
            .get(key)
            .and_then(as_number)
            .ok_or_else(|| format!("traceEvents[{idx}]: missing numeric `{key}`"))
    };

    let mut spans = 0u64;
    let mut instants = 0u64;
    let mut span_requests = std::collections::BTreeSet::new();
    // Per (pid, tid): end of the last span, for the non-overlap check.
    let mut open_ends: std::collections::BTreeMap<(u64, u64), f64> =
        std::collections::BTreeMap::new();
    // The exporter writes all spans (sorted by start) then all instants
    // (sorted by time): each block must be monotone on its own clock.
    let mut last_span_ts = f64::NEG_INFINITY;
    let mut last_instant_ts = f64::NEG_INFINITY;
    for (idx, event) in events.iter().enumerate() {
        let Some(Value::Str(ph)) = event.get("ph") else {
            return Err(format!("traceEvents[{idx}]: missing `ph`"));
        };
        match event.get("name") {
            Some(Value::Str(_)) => {}
            _ => return Err(format!("traceEvents[{idx}]: missing `name`")),
        }
        let ts = field(event, "ts", idx)?;
        let last_ts = if ph.as_str() == "i" {
            &mut last_instant_ts
        } else {
            &mut last_span_ts
        };
        if ts < *last_ts - TS_EPSILON_US {
            return Err(format!(
                "traceEvents[{idx}]: timestamps not monotone ({ts} after {last_ts})"
            ));
        }
        *last_ts = last_ts.max(ts);
        match ph.as_str() {
            "X" => {
                spans += 1;
                let dur = field(event, "dur", idx)?;
                if dur < 0.0 {
                    return Err(format!("traceEvents[{idx}]: negative duration {dur}"));
                }
                let pid = field(event, "pid", idx)? as u64;
                let tid = field(event, "tid", idx)? as u64;
                span_requests.insert(tid);
                if let Some(&prev_end) = open_ends.get(&(pid, tid)) {
                    if ts < prev_end - TS_EPSILON_US {
                        return Err(format!(
                            "traceEvents[{idx}]: request {tid} on replica {pid} overlaps \
                             its previous span (starts {ts} before {prev_end})"
                        ));
                    }
                }
                open_ends.insert((pid, tid), ts + dur);
            }
            "i" => {
                instants += 1;
                field(event, "pid", idx)?;
            }
            other => return Err(format!("traceEvents[{idx}]: unexpected phase `{other}`")),
        }
    }

    let check_count = |label: &str, expected: u64, actual: u64| -> Result<(), String> {
        if expected != actual {
            return Err(format!(
                "otherData.{label} says {expected} but the document holds {actual}"
            ));
        }
        Ok(())
    };
    check_count("spans", expected_spans, spans)?;
    check_count(
        "span_requests",
        expected_span_requests,
        span_requests.len() as u64,
    )?;
    check_count("instants", expected_instants, instants)?;

    println!(
        "trace-check: {trace_path} ok — {spans} spans over {} sampled requests, \
         {instants} instants, timestamps monotone, no per-request overlap",
        span_requests.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_convert_and_strings_do_not() {
        assert_eq!(as_number(&Value::U64(3)), Some(3.0));
        assert_eq!(as_number(&Value::I64(-2)), Some(-2.0));
        assert_eq!(as_number(&Value::F64(1.5)), Some(1.5));
        assert_eq!(as_number(&Value::Str("x".into())), None);
    }
}
