#!/usr/bin/env python3
"""Run the benchmark repeatedly and report each metric's median and spread.

Usage, from the repository root:

    python3 perfbench/steadiness.py --workloads sharegpt-fleet,mixed-longctx \
        --seeds 1-10

Each run is one untraced invocation of the command in BENCHMARK.json with
its own seed and BENCHMARK.json's run_seconds. For every end-to-end metric
the table gives the median of the runs, their quartiles as
`statistics.quantiles(values, n=4)` computes them, and the interquartile
range as a share of the median. It also reports the uncalibrated
throughput, so the effect of the calibration is visible.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines:
        raw = re.match(r"# raw_req_per_wall_s (\S+)", line)
        if raw:
            metrics["raw_req_per_wall_s (uncalibrated)"] = float(raw.group(1))
    metrics["process_wall_s"] = wall
    return metrics


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    opts = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    for workload in opts.workloads.split(","):
        rows = [run(bench["command"], workload, seed, seconds)
                for seed in parse_seeds(opts.seeds)]
        print(f"\n{workload} ({len(rows)} runs, --seconds {seconds})")
        print("| metric | median | q1 | q3 | IQR/median |\n|---|---|---|---|---|")
        for name in rows[0]:
            med, q1, q3, rel = spread([r[name] for r in rows])
            print(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {100 * rel:.1f}% |")


if __name__ == "__main__":
    main()
