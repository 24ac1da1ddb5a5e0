//! Multi-turn conversations through the prefix-cache tier.
//!
//! Generates a ShareGPT-calibrated multi-turn trace (strictly-growing
//! per-conversation prompts), serves it with LoongServe with the prefix
//! cache off and on, and prints the reuse the tier extracts. Then runs the
//! same trace through a 2-replica fleet under prefix-affinity routing vs
//! round-robin to show why conversation affinity is the fleet half of the
//! tier.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example multi_turn_cache
//! ```
//!
//! Set `LOONG_SMOKE=1` for the reduced configuration CI uses.

use loongserve::prelude::*;

fn main() {
    let smoke = std::env::var("LOONG_SMOKE").is_ok();
    let conversations = if smoke { 40 } else { 120 };

    let mut rng = SimRng::seed(42);
    let trace = Trace::generate_multi_turn(
        DatasetKind::ShareGpt,
        &MultiTurnProfile::sharegpt(),
        ArrivalProcess::Poisson { rate: 0.8 },
        conversations,
        &mut rng,
    );
    let stats = trace.stats();
    println!(
        "trace: {} requests across {conversations} conversations, mean prompt {:.0} tokens",
        stats.count, stats.mean_input_len
    );

    // Single engine: cache off vs on.
    let run = |cache: bool| {
        let mut system = SystemUnderTest::paper_single_node(SystemKind::LoongServe);
        if cache {
            system = system.with_prefix_cache(PrefixCacheConfig::default());
        }
        system.build_engine(Some(&trace)).run(&trace)
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(off.records.len(), on.records.len());
    assert_eq!(on.unfinished, 0);
    println!(
        "\n{:>12} {:>18} {:>9} {:>14} {:>16}",
        "cache", "prefilled_tokens", "hit_rate", "reused_tokens", "saved_prefill_s"
    );
    println!(
        "{:>12} {:>18} {:>9.3} {:>14} {:>16.3}",
        "off",
        off.prefilled_tokens,
        off.cache.hit_rate(),
        off.cache.reused_tokens,
        off.cache.saved_prefill_s
    );
    println!(
        "{:>12} {:>18} {:>9.3} {:>14} {:>16.3}",
        "on",
        on.prefilled_tokens,
        on.cache.hit_rate(),
        on.cache.reused_tokens,
        on.cache.saved_prefill_s
    );
    println!(
        "\nprefill work reduced {:.1}% with identical per-request outputs",
        100.0 * (1.0 - on.prefilled_tokens as f64 / off.prefilled_tokens as f64)
    );

    // Fleet: affinity keeps a conversation's turns on the replica that
    // retains its prefix; round-robin scatters them.
    println!("\n2-replica fleet, cache enabled on every replica:");
    for policy in [RouterPolicy::PrefixAffinity, RouterPolicy::RoundRobin] {
        let mut config = FleetConfig::paper_fleet(SystemKind::LoongServe, 2, policy);
        config.prefix_cache = Some(PrefixCacheConfig::default());
        let stream = TraceStream::from_trace(trace.clone());
        let run = FleetEngine::new(config).run(stream, &FleetPlan::fixed(2), None);
        let outcome = run.expect("valid plan").fleet;
        println!(
            "{:>20}: hit_rate {:.3}, reused {} tokens",
            policy.label(),
            outcome.cache.hit_rate(),
            outcome.cache.reused_tokens
        );
    }
}
