//! `perf-pairs <parent-dir> <change-dir> <workload> <pairs>`: alternating
//! perfbench runs of two checkouts on one host.
//!
//! Each run is `BENCHMARK.json`'s command (read from the change's
//! checkout) in the checkout's own directory, untraced, for the file's
//! `run_seconds`, with one seed for every run. Pair `i` runs the parent
//! first when `i` is even and the change first when it is odd, so a drift
//! in the host's speed lands on both sides. For every end-to-end metric
//! the report prints each side's quartiles and median, the ratio of the
//! medians, and in how many pairs the change did better in the metric's
//! `better` direction. A run that fails, or reports anything but
//! `"correct": true`, stops the task with a non-zero exit.

use crate::{as_number, get};
use serde::Value;
use std::path::Path;
use std::process::{Command, ExitCode};

/// The seed every run uses: perfbench's default.
const SEED: &str = "2026";

/// One end-to-end metric `BENCHMARK.json` declares.
struct Metric {
    name: String,
    higher_is_better: bool,
}

pub fn perf_pairs(parent: &str, change: &str, workload: &str, pairs: &str) -> ExitCode {
    match perf_pairs_inner([parent, change], workload, pairs) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perf-pairs: {message}");
            ExitCode::FAILURE
        }
    }
}

fn perf_pairs_inner(dirs: [&str; 2], workload: &str, pairs: &str) -> Result<(), String> {
    let pairs: usize = pairs
        .parse()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("<pairs> must be a positive integer, got `{pairs}`"))?;
    let spec_path = Path::new(dirs[1]).join("BENCHMARK.json");
    let spec_name = spec_path.display().to_string();
    let spec_text =
        std::fs::read_to_string(&spec_path).map_err(|e| format!("cannot read {spec_name}: {e}"))?;
    let spec = serde_json::parse_value(&spec_text)
        .map_err(|e| format!("{spec_name} is not valid JSON: {e:?}"))?;
    let Value::Seq(words) = get(&spec, "command", &spec_name)? else {
        return Err(format!("{spec_name}: `command` must be an array"));
    };
    let command: Vec<&str> = words
        .iter()
        .map(|w| match w {
            Value::Str(s) => Ok(s.as_str()),
            _ => Err(format!("{spec_name}: `command` must hold strings")),
        })
        .collect::<Result<_, _>>()?;
    let seconds = as_number(get(&spec, "run_seconds", &spec_name)?)
        .ok_or_else(|| format!("{spec_name}: `run_seconds` must be a number"))?;
    let Value::Seq(declared) = get(&spec, "end_to_end", &spec_name)? else {
        return Err(format!("{spec_name}: `end_to_end` must be an array"));
    };
    let metrics: Vec<Metric> = declared
        .iter()
        .map(|m| {
            let name = match get(m, "name", "end_to_end entry")? {
                Value::Str(s) => s.clone(),
                _ => return Err("end_to_end: `name` must be a string".to_string()),
            };
            let higher_is_better = match get(m, "better", &name)? {
                Value::Str(s) if s == "higher" => true,
                Value::Str(s) if s == "lower" => false,
                _ => return Err(format!("{name}: `better` must be \"higher\" or \"lower\"")),
            };
            Ok(Metric {
                name,
                higher_is_better,
            })
        })
        .collect::<Result<_, String>>()?;

    let seconds = seconds.to_string();
    let args = [
        "--workload",
        workload,
        "--seconds",
        &seconds,
        "--trace",
        "0",
        "--seed",
        SEED,
    ];
    // runs[side][pair]: the metrics object of one run; side 0 is the parent.
    let mut runs: [Vec<Value>; 2] = [Vec::new(), Vec::new()];
    for pair in 0..pairs {
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            let report = run_once(dirs[side], &command, &args)?;
            let first = metrics
                .first()
                .and_then(|m| value_of(&report, &m.name))
                .map_or("-".to_string(), |v| format!("{v:.3}"));
            eprintln!(
                "pair {}/{pairs}: {} {first}",
                pair + 1,
                ["parent", "change"][side]
            );
            runs[side].push(report);
        }
    }

    println!(
        "perf-pairs: {workload}, {pairs} alternating pairs, {seconds} s per run, seed {SEED}\n\
         parent {}\nchange {}",
        dirs[0], dirs[1]
    );
    println!(
        "{:<28} {:>12} {:>12} {:>12}   {:>12} {:>12} {:>12} {:>7} {:>6}",
        "metric", "parent q1", "median", "q3", "change q1", "median", "q3", "ratio", "wins"
    );
    for m in &metrics {
        let values: Vec<Option<Vec<f64>>> = runs
            .iter()
            .map(|side| side.iter().map(|r| value_of(r, &m.name)).collect())
            .collect();
        let (Some(parent), Some(change)) = (&values[0], &values[1]) else {
            println!("{:<28} (not reported by every run)", m.name);
            continue;
        };
        let wins = parent
            .iter()
            .zip(change)
            .filter(|&(p, c)| if m.higher_is_better { c > p } else { c < p })
            .count();
        let [pq1, pmed, pq3] = quartiles(parent);
        let [cq1, cmed, cq3] = quartiles(change);
        println!(
            "{:<28} {pq1:>12.4} {pmed:>12.4} {pq3:>12.4}   {cq1:>12.4} {cmed:>12.4} {cq3:>12.4} \
             {:>7.3} {wins:>3}/{pairs}",
            m.name,
            cmed / pmed
        );
    }
    Ok(())
}

/// Runs one checkout's benchmark and returns its metrics object.
fn run_once(dir: &str, command: &[&str], args: &[&str]) -> Result<Value, String> {
    let (program, rest) = command
        .split_first()
        .ok_or("BENCHMARK.json: `command` is empty")?;
    let output = Command::new(program)
        .args(rest)
        .args(args)
        .current_dir(dir)
        .output()
        .map_err(|e| format!("{dir}: cannot start `{program}`: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{dir}: the benchmark exited with {}:\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.trim_start().starts_with('{'))
        .ok_or_else(|| format!("{dir}: no JSON line in the benchmark's output"))?;
    let report = serde_json::parse_value(line)
        .map_err(|e| format!("{dir}: the benchmark's JSON line is invalid: {e:?}"))?;
    if report.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{dir}: a run did not report \"correct\": true"));
    }
    Ok(get(&report, "metrics", dir)?.clone())
}

/// The value of metric `name` in a run's metrics object.
fn value_of(metrics: &Value, name: &str) -> Option<f64> {
    as_number(metrics.get(name)?.get("value")?)
}

/// The first quartile, median and third quartile of `values`, each
/// interpolated linearly between order statistics.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|q| {
        let at = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.75, 2.5, 3.25]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn metric_values_read_the_value_field() {
        let metrics = serde_json::parse_value(
            r#"{"setup_s": {"value": 0.5, "unit": "s"}, "calls": {"value": 3, "unit": "count"}}"#,
        )
        .expect("valid JSON");
        assert_eq!(value_of(&metrics, "setup_s"), Some(0.5));
        assert_eq!(value_of(&metrics, "calls"), Some(3.0));
        assert_eq!(value_of(&metrics, "missing"), None);
    }
}
