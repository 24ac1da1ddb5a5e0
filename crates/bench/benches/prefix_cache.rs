//! Prefix-cache benchmark: multi-turn KV reuse vs full re-prefill.
//!
//! Replays a multi-turn ShareGPT trace (strictly-growing per-conversation
//! prompts, geometric round counts, exponential think times) through the
//! LoongServe system twice — prefix cache off and on — and reports the
//! reuse the tier extracts: hit rate, adopted tokens, total prefilled
//! prompt tokens (strictly smaller with the cache), predicted prefill
//! seconds saved, and the resulting makespan. Outcome equivalence (same
//! completed set, same per-request outputs) is asserted inline: the cache
//! must change *work*, never *results*. The same trace then runs through a
//! 2-replica fleet with the cache on every replica, under prefix-affinity
//! and round-robin routing (report-only): affinity keeps a conversation's
//! turns on the replica that retains its prefix, round-robin scatters them.
//!
//! Invocation (harness = false):
//!
//! ```text
//! cargo bench --bench prefix_cache              # 400-conversation trace
//! cargo bench --bench prefix_cache -- --smoke   # 100-conversation trace
//! ```
//!
//! The smoke mode additionally emits one `BENCH_SMOKE_JSON` line of
//! deterministic (wall-clock-free) metrics; CI feeds it to
//! `cargo run -p xtask -- bench-gate BENCH_prefix.json`, which compares it
//! against the reference checked in at the repository root.

use loong_bench::{banner, write_figure_csv};
use loongserve::prelude::*;
use std::time::Instant;

const CONVERSATIONS: usize = 400;
const SMOKE_CONVERSATIONS: usize = 100;
const CONV_RATE: f64 = 1.5;
const SEED: u64 = 2027;

struct Sample {
    label: &'static str,
    wall_s: f64,
    makespan_s: f64,
    completed: usize,
    unfinished: usize,
    prefilled_tokens: u64,
    cache: CacheStats,
}

/// Serves `trace` on a LoongServe fleet of `replicas` routed by `policy`,
/// with the prefix cache on every replica or on none. One replica behind
/// passthrough routing is the bare engine bit for bit, with the cache off
/// (`tests/fleet_equivalence.rs`) and on (`tests/prefix_properties.rs`).
fn run(
    label: &'static str,
    trace: &Trace,
    cache: bool,
    replicas: usize,
    policy: RouterPolicy,
) -> Sample {
    let mut config = FleetConfig::paper_fleet(SystemKind::LoongServe, replicas, policy);
    config.prefix_cache = cache.then(PrefixCacheConfig::default);
    let stream = TraceStream::from_trace(trace.clone());
    let start = Instant::now();
    let run = FleetEngine::new(config).run(stream, &FleetPlan::fixed(replicas), None);
    let wall_s = start.elapsed().as_secs_f64();
    let outcome = run.expect("valid plan").fleet;
    let summary = RunSummary::from_records(
        label,
        &trace.label,
        CONV_RATE,
        &outcome.records,
        &SloSpec::default_for_lwm(),
    );
    Sample {
        label,
        wall_s,
        makespan_s: summary.makespan_s,
        completed: summary.completed,
        unfinished: outcome.unfinished,
        prefilled_tokens: outcome
            .per_replica
            .iter()
            .map(|r| r.outcome.prefilled_tokens)
            .sum(),
        cache: outcome.cache,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let conversations = if smoke {
        SMOKE_CONVERSATIONS
    } else {
        CONVERSATIONS
    };

    banner(&format!(
        "Prefix cache — multi-turn ShareGPT, {conversations} conversations @ \
         {CONV_RATE} conv/s, LoongServe, 8 GPUs TP=2{}",
        if smoke { " (smoke)" } else { "" }
    ));

    let mut rng = SimRng::seed(SEED);
    let trace = Trace::generate_multi_turn(
        DatasetKind::ShareGpt,
        &MultiTurnProfile::sharegpt(),
        ArrivalProcess::Poisson { rate: CONV_RATE },
        conversations,
        &mut rng,
    );
    println!(
        "trace: {} requests across {conversations} conversations, {} prompt tokens total",
        trace.len(),
        trace.stats().total_input_tokens
    );

    let off = run("cache-off", &trace, false, 1, RouterPolicy::Passthrough);
    let on = run("cache-on", &trace, true, 1, RouterPolicy::Passthrough);
    let affinity = run("2x-affinity", &trace, true, 2, RouterPolicy::PrefixAffinity);
    let round_robin = run("2x-rr", &trace, true, 2, RouterPolicy::RoundRobin);

    // Reuse correctness, asserted on every bench run: identical service,
    // strictly less prefill work, and exact token conservation.
    assert_eq!(off.completed, on.completed, "completed sets must agree");
    assert_eq!(off.unfinished, 0, "cache-off run must drain");
    assert_eq!(on.unfinished, 0, "cache-on run must drain");
    assert!(on.cache.hits > 0, "multi-turn trace must hit the cache");
    assert!(
        on.prefilled_tokens < off.prefilled_tokens,
        "cache must strictly reduce prefilled tokens"
    );
    assert_eq!(
        on.prefilled_tokens + on.cache.reused_tokens,
        off.prefilled_tokens,
        "every prompt token is prefilled or adopted exactly once"
    );

    let mut csv = String::from(
        "cache,wall_s,makespan_s,completed,prefilled_tokens,hits,lookups,reused_tokens,saved_prefill_s,evicted_tokens\n",
    );
    println!(
        "{:>11} {:>8} {:>11} {:>10} {:>17} {:>9} {:>14} {:>15} {:>14}",
        "cache",
        "wall_s",
        "makespan_s",
        "completed",
        "prefilled_tokens",
        "hit_rate",
        "reused_tokens",
        "saved_prefill_s",
        "evicted_tokens"
    );
    for s in [&off, &on, &affinity, &round_robin] {
        println!(
            "{:>11} {:>8.3} {:>11.1} {:>10} {:>17} {:>9.3} {:>14} {:>15.3} {:>14}",
            s.label,
            s.wall_s,
            s.makespan_s,
            s.completed,
            s.prefilled_tokens,
            s.cache.hit_rate(),
            s.cache.reused_tokens,
            s.cache.saved_prefill_s,
            s.cache.evicted_tokens
        );
        csv.push_str(&format!(
            "{},{:.6},{:.3},{},{},{},{},{},{:.4},{}\n",
            s.label,
            s.wall_s,
            s.makespan_s,
            s.completed,
            s.prefilled_tokens,
            s.cache.hits,
            s.cache.lookups,
            s.cache.reused_tokens,
            s.cache.saved_prefill_s,
            s.cache.evicted_tokens
        ));
    }

    // The line CI greps for in the prefix smoke step.
    println!(
        "PREFIX_CACHE completed={} unfinished={} hit_rate={:.3} reused_tokens={} \
         prefilled_on={} prefilled_off={} makespan_on_s={:.1} makespan_off_s={:.1}",
        on.completed,
        on.unfinished,
        on.cache.hit_rate(),
        on.cache.reused_tokens,
        on.prefilled_tokens,
        off.prefilled_tokens,
        on.makespan_s,
        off.makespan_s
    );
    if smoke {
        // Machine-readable, wall-clock-free metrics for the bench gate.
        println!(
            "BENCH_SMOKE_JSON {{\"benchmark\":\"prefix_cache\",\"completed\":{},\"unfinished\":{},\"hits\":{},\"lookups\":{},\"reused_tokens\":{},\"prefilled_tokens_on\":{},\"prefilled_tokens_off\":{},\"evicted_tokens\":{}}}",
            on.completed,
            on.unfinished,
            on.cache.hits,
            on.cache.lookups,
            on.cache.reused_tokens,
            on.prefilled_tokens,
            off.prefilled_tokens,
            on.cache.evicted_tokens
        );
    }

    let path = write_figure_csv("prefix_cache.csv", &csv);
    println!("\nCSV written to {}", path.display());
}
