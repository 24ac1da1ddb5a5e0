#!/usr/bin/env bash
# The full verification gate for LoongServe-RS. Run from the repo root.
#
#   ./ci.sh          # everything: build, tests, allocation budget, bench gates, examples, figure benches, clippy, fmt, rustdoc (vendored crates too), line counts
#   ./ci.sh quick    # just the tier-1 gate: release build + tests + perfbench tests
#
# Every cargo invocation passes --locked so a drifted Cargo.lock fails loudly
# instead of being silently regenerated, and the lockfile is checked for
# byte-identity at the end. The perf smokes are gated machine-readably: each
# bench's --smoke mode emits one BENCH_SMOKE_JSON line of deterministic
# metrics that `cargo run -p xtask -- bench-gate BENCH_*.json` compares
# against the checked-in reference within ±25%, printing the delta table.
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==> %s\n' "$*"; }

# Guard the lockfile: nothing below may rewrite it.
lock_before=$(mktemp)
cp Cargo.lock "$lock_before"
check_lockfile() {
    if ! cmp -s Cargo.lock "$lock_before"; then
        echo "ci.sh: Cargo.lock changed during the run — commit the updated lockfile" >&2
        exit 1
    fi
}
trap 'rm -f "$lock_before"' EXIT

step "cargo build --release --locked"
cargo build --release --locked

step "cargo test --locked -q"
cargo test --locked -q

# The benchmark harness is its own workspace over the public API: build and
# test it here so an API change that breaks it fails tier-1.
step "cargo test perfbench (benchmark harness)"
cargo test --locked --offline --manifest-path perfbench/Cargo.toml

if [[ "${1:-}" == "quick" ]]; then
    check_lockfile
    echo "quick gate passed"
    exit 0
fi

step "cargo bench --no-run --locked (all figure/microbench targets compile)"
cargo bench --no-run --locked

step "build the bench gate"
cargo build --release --locked -p xtask

# Runs one perf smoke: executes the bench in --smoke mode, shows its output,
# greps the human summary line (fast failure diagnostics), then feeds the
# BENCH_SMOKE_JSON line to the gate for the ±25% reference comparison.
smoke_gate() {
    local bench="$1" grep_pattern="$2" reference="$3"
    local out
    out=$(cargo bench --locked --bench "$bench" -- --smoke)
    printf '%s\n' "$out"
    printf '%s\n' "$out" | grep -q "$grep_pattern"
    printf '%s\n' "$out" | cargo run -q --release --locked -p xtask -- bench-gate "$reference"
}

# Release only: debug builds shadow every scheduling point with the view
# audit, which allocates by design, so the test is ignored there.
# --nocapture prints each run's allocations per scheduling point, the figures
# DESIGN.md quotes, into the log.
step "allocation budget (2k-request Mixed and 4k-request ShareGPT runs, at most 2.2 and 4.1 heap allocations per scheduling point)"
cargo test --release --locked --test alloc_budget -- --nocapture

# Only release builds skip the scheduler at a certified point; debug builds
# call it there too, so this is the run that compares the skipping path
# with the calling one.
step "certified repeats in release (whole runs certifying vs calling the scheduler at every point)"
cargo test --release --locked --test certified_repeats

step "engine-scaling perf smoke + gate (1k-request trace vs BENCH_engine.json)"
smoke_gate engine_scaling "^ENGINE_SCALING requests=1000" BENCH_engine.json

step "fleet-scaling perf smoke + gate (800-request trace vs BENCH_fleet.json)"
smoke_gate fleet_scaling "^FLEET_SCALING replicas=2" BENCH_fleet.json

step "kv-pressure smoke + gate (120-request MMPP overload vs BENCH_pressure.json)"
smoke_gate kv_pressure "^KV_PRESSURE policy=swap .*unfinished=0" BENCH_pressure.json

step "prefix-cache smoke + gate (100-conversation multi-turn trace vs BENCH_prefix.json)"
smoke_gate prefix_cache "^PREFIX_CACHE .*unfinished=0" BENCH_prefix.json

step "reliability smoke + gate (240-request trace under crashes vs BENCH_reliability.json)"
smoke_gate reliability "^RELIABILITY .*failed_retry=0" BENCH_reliability.json

step "autoscale smoke + gate (280-event diurnal+flash trace vs BENCH_autoscale.json)"
smoke_gate autoscale "^AUTOSCALE .*scale_ups=" BENCH_autoscale.json

step "million-scale smoke + gate (20k-request streamed reliable run vs BENCH_million.json)"
smoke_gate million_scale "^MILLION_SCALE streamed=20000 " BENCH_million.json

step "observability smoke + gate (untraced vs 1%-sampled recorder vs BENCH_obs.json)"
smoke_gate observability "^OBSERVABILITY sampled=" BENCH_obs.json

step "sparse-attention smoke + gate (policy ablation vs BENCH_sparse.json)"
smoke_gate sparse_attention "^SPARSE_ATTENTION policy=page-sparse-decode .*unfinished=0" BENCH_sparse.json

step "trace-check the million-scale smoke's Perfetto export"
cargo run -q --release --locked -p xtask -- trace-check target/million_scale.perfetto.json

step "cargo build --examples --locked"
cargo build --examples --locked

step "run every example (small deterministic configs; a panicking example fails CI)"
for source in examples/*.rs; do
    example=$(basename "$source" .rs)
    echo "--- example: $example"
    LOONG_SMOKE=1 cargo run -q --release --locked --example "$example" > /dev/null
done

# Report only: these three benches are the only programs that run all eight
# systems at figure settings, so a panic in any system fails CI here. Their
# tables print to the log; the numbers are not gated.
step "figure benches over every system (report only: Fig. 10, 11 and 12 tables and CSVs)"
for bench in fig10_end_to_end fig11_multinode fig12_goodput_ablation; do
    cargo bench --locked --bench "$bench"
done

step "trace-check the trace_export example's Perfetto export"
cargo run -q --release --locked -p xtask -- trace-check target/trace_export.perfetto.json

step "cargo clippy --all-targets --locked -- -D warnings"
cargo clippy --all-targets --locked -- -D warnings

step "cargo fmt --check"
cargo fmt --check

# Deleted items leave dangling intra-doc links that the build, clippy and
# the tests never see; rustdoc with warnings denied catches them.
step "cargo doc --no-deps with warnings denied (every workspace crate, vendored stand-ins included)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --locked --no-deps \
    -p loong-simcore -p loong-cluster -p loong-model -p loong-kvcache -p loong-esp \
    -p loong-sched -p loong-workload -p loong-metrics -p loong-trace -p loong-bench \
    -p loongserve -p xtask \
    -p rand -p serde -p serde_derive -p serde_json -p proptest -p criterion

# Report only: the line counts ROADMAP quotes as its baseline.
step "line counts (report only: production lines under crates/*/src per crate, each file up to its first top-level #[cfg(test)]; then all non-vendored and all vendored Rust)"
find crates/*/src -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { split(FILENAME, path, "/"); crate = path[2]; counting = 1 }
    /^#\[cfg\(test\)\]/ { counting = 0 }
    counting { lines[crate]++; total++ }
    END {
        for (crate in lines) printf "%-8s %6d\n", crate, lines[crate] | "sort"
        close("sort")
        printf "%-8s %6d\n", "total", total
    }'
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    rust_lines=$(git ls-files -z '*.rs' ':!:vendor/' | xargs -0 cat | wc -l)
    echo "non-vendored Rust (git ls-files '*.rs' outside vendor/): $rust_lines lines"
    vendored_lines=$(git ls-files -z 'vendor/*.rs' | xargs -0 cat | wc -l)
    echo "vendored Rust (git ls-files 'vendor/*.rs'): $vendored_lines lines"
else
    echo "Rust lines: not counted, this is not a git checkout (the counts read git ls-files)"
fi

step "Cargo.lock unchanged"
check_lockfile

echo
echo "ci.sh: all gates passed"
