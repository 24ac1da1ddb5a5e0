//! Sparse-attention ablation: the pluggable attention-cost policy tier.
//!
//! Three parts, all under the same three policies (`dense`,
//! `page-sparse-decode`, `hierarchical-prefill`):
//!
//! 1. **Decode cost vs context** (pure cost model, SP=4 TP=2): shows the
//!    page-sparse decode cost going *flat* beyond the token budget while
//!    dense keeps growing linearly with the KV read.
//! 2. **ESP vs TP** (Figure-3 shapes): the fixed SPxTP strategies on the
//!    paper's long-sequence cases, per policy — where elastic scale-up
//!    stops paying once decode is sublinear in context.
//! 3. **Goodput ablation** (full engine, and a 2-replica fleet in full
//!    mode): LoongServe on the Mixed long-context workload under each
//!    policy, plus a dense vLLM baseline in full mode. Every policy's
//!    engine run must drain the trace (asserted).
//!
//! `--smoke` runs the reduced configuration CI uses and emits one
//! BENCH_SMOKE_JSON line gated against BENCH_sparse.json.

use loong_bench::{banner, write_figure_csv};
use loong_cluster::gpu::LinkSpec;
use loong_model::attention::AttentionCostPolicy;
use loong_model::config::ModelConfig;
use loong_model::roofline::{CostModel, ParallelConfig};
use loongserve::prelude::*;

fn policy_tag(policy: &AttentionCostPolicy) -> &'static str {
    match policy {
        AttentionCostPolicy::Dense => "dense",
        AttentionCostPolicy::PageSparseDecode => "page_sparse",
        AttentionCostPolicy::HierarchicalPrefill => "hierarchical",
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(if smoke {
        "Sparse-attention ablation (smoke)"
    } else {
        "Sparse-attention ablation — attention-cost policies"
    });

    let policies = AttentionCostPolicy::ablation_set();
    let link = LinkSpec::nvlink_a800();
    let decode_parallel = ParallelConfig::new(2, 4); // the paper's SP=4, TP=2 node
    let mut csv = String::from("part,policy,case,value\n");

    // ---- Part 1: decode iteration cost vs context length -------------------
    let contexts: [u64; 5] = [4_096, 16_384, 65_536, 262_144, 1_048_576];
    let batch = 8usize;
    println!("\ndecode iteration time (s), batch of {batch}, SP=4 TP=2:");
    println!(
        "{:>10} | {:>12} {:>12} {:>12}",
        "context", "dense", "page-sparse", "hier-prefill"
    );
    let decode_cost = |policy: &AttentionCostPolicy, ctx: u64| -> f64 {
        let cm = CostModel::builder(ModelConfig::lwm_1m_text())
            .attention(*policy)
            .build();
        let lens = vec![ctx; batch];
        cm.decode_cost(&lens, decode_parallel, decode_parallel.sp, link)
            .total()
    };
    let mut curve = vec![Vec::new(); policies.len()];
    for &ctx in &contexts {
        let row: Vec<f64> = policies.iter().map(|p| decode_cost(p, ctx)).collect();
        for (i, policy) in policies.iter().enumerate() {
            csv.push_str(&format!(
                "decode_curve,{},{ctx},{:.9}\n",
                policy_tag(policy),
                row[i]
            ));
            curve[i].push(row[i]);
        }
        println!(
            "{:>10} | {:>12.6} {:>12.6} {:>12.6}",
            ctx, row[0], row[1], row[2]
        );
    }
    // Flatness: page-sparse decode cost at 1M vs 64K context (both far past
    // the 4480-token budget) — identical up to float noise, ratio ~1.0.
    let flat_ratio = curve[1][4] / curve[1][2];
    let speedup_1m = curve[0][4] / curve[1][4];
    println!(
        "\npage-sparse flatness: cost(1M)/cost(64K) = {flat_ratio:.6} \
         (dense grows {:.2}x over the same span)",
        curve[0][4] / curve[0][2]
    );
    println!("page-sparse decode speedup at 1M context: {speedup_1m:.2}x vs dense");

    // ---- Part 2: ESP vs TP under each policy -------------------------------
    let strategies = [
        ("SP=1,TP=8", ParallelConfig::new(8, 1)),
        ("SP=2,TP=4", ParallelConfig::new(4, 2)),
        ("SP=4,TP=2", ParallelConfig::new(2, 4)),
    ];
    let prefill_cases: [(usize, u64); 3] = [(16, 50_000), (4, 100_000), (1, 500_000)];
    let decode_cases: [(usize, u64); 3] = [(64, 10_000), (16, 50_000), (4, 100_000)];
    let mut esp_prefill_adv = Vec::new();
    for policy in &policies {
        let cm = CostModel::builder(ModelConfig::lwm_1m_text())
            .attention(*policy)
            .build();
        println!("\nESP vs TP under policy `{}`:", policy.label());
        println!(
            "{:>8} {:>6} {:>9} | {:>12} {:>12} {:>12} | best",
            "phase", "BS", "Len", "SP1TP8", "SP2TP4", "SP4TP2"
        );
        for &(bs, len) in &prefill_cases {
            let lens = vec![len; bs];
            let t: Vec<f64> = strategies
                .iter()
                .map(|(_, p)| cm.prefill_cost(&lens, *p, link).total())
                .collect();
            let best = strategies[argmin(&t)].0;
            println!(
                "{:>8} {:>6} {:>9} | {:>12.4} {:>12.4} {:>12.4} | {best}",
                "prefill", bs, len, t[0], t[1], t[2]
            );
            for (i, (name, _)) in strategies.iter().enumerate() {
                csv.push_str(&format!(
                    "esp_vs_tp_prefill,{},{bs}x{len}@{name},{:.9}\n",
                    policy_tag(policy),
                    t[i]
                ));
            }
            if bs == 1 && len == 500_000 {
                esp_prefill_adv.push(t[0] / t[2]);
            }
        }
        for &(bs, ctx) in &decode_cases {
            let lens = vec![ctx; bs];
            let t: Vec<f64> = strategies
                .iter()
                .map(|(_, p)| cm.decode_cost(&lens, *p, p.sp, link).total())
                .collect();
            let best = strategies[argmin(&t)].0;
            println!(
                "{:>8} {:>6} {:>9} | {:>12.5} {:>12.5} {:>12.5} | {best}",
                "decode", bs, ctx, t[0], t[1], t[2]
            );
            for (i, (name, _)) in strategies.iter().enumerate() {
                csv.push_str(&format!(
                    "esp_vs_tp_decode,{},{bs}x{ctx}@{name},{:.9}\n",
                    policy_tag(policy),
                    t[i]
                ));
            }
        }
    }
    println!(
        "\nESP prefill advantage (SP1TP8 / SP4TP2 at 1x500K): dense {:.4}, \
         page-sparse {:.4}, hierarchical {:.4}",
        esp_prefill_adv[0], esp_prefill_adv[1], esp_prefill_adv[2]
    );

    // ---- Part 3: engine (and fleet) goodput per policy ---------------------
    let count = if smoke { 32 } else { 96 };
    let rate = 0.8;
    let trace = WorkloadSpec::Dataset(DatasetKind::Mixed).generate(rate, count, 2025);
    let slo = SloSpec::default_for_lwm();
    println!("\nengine goodput, Mixed workload, {count} requests at {rate} req/s:");
    let mut goodput = Vec::new();
    for policy in &policies {
        let system =
            SystemUnderTest::paper_single_node(SystemKind::LoongServe).with_attention(*policy);
        let (summary, outcome) = system.run(&trace, rate, &slo);
        println!(
            "SPARSE_ATTENTION policy={} completed={} makespan_s={:.3} \
             throughput_rps={:.4} slo_attainment={:.4} unfinished={}",
            policy.label(),
            summary.completed,
            summary.makespan_s,
            summary.throughput_rps,
            summary.slo_attainment,
            outcome.unfinished
        );
        assert_eq!(outcome.unfinished, 0, "{} left work behind", policy.label());
        csv.push_str(&format!(
            "engine_goodput,{},throughput_rps,{:.6}\n",
            policy_tag(policy),
            summary.throughput_rps
        ));
        goodput.push(summary);
    }

    if !smoke {
        let system = SystemUnderTest::paper_single_node(SystemKind::Vllm);
        let (summary, _) = system.run(&trace, rate, &slo);
        println!(
            "SPARSE_ATTENTION policy=vllm-dense completed={} makespan_s={:.3} \
             throughput_rps={:.4} slo_attainment={:.4}",
            summary.completed, summary.makespan_s, summary.throughput_rps, summary.slo_attainment
        );
        csv.push_str(&format!(
            "engine_goodput,vllm_dense,throughput_rps,{:.6}\n",
            summary.throughput_rps
        ));

        // 2-replica fleet on the same workload at twice the rate.
        let fleet_rate = 1.6;
        let fleet_trace =
            WorkloadSpec::Dataset(DatasetKind::Mixed).generate(fleet_rate, 2 * count, 2025);
        println!(
            "\nfleet goodput, 2 replicas, {} requests at {fleet_rate} req/s:",
            2 * count
        );
        for policy in &policies {
            let mut config =
                FleetConfig::paper_fleet(SystemKind::LoongServe, 2, RouterPolicy::RoundRobin);
            config.attention = *policy;
            let stream = TraceStream::from_trace(fleet_trace.clone());
            let run = FleetEngine::new(config).run(stream, &FleetPlan::fixed(2), None);
            let outcome = run.expect("valid plan").fleet;
            let makespan = outcome.sim_time.as_secs();
            let rps = outcome.records.len() as f64 / makespan;
            println!(
                "SPARSE_FLEET policy={} completed={} makespan_s={makespan:.3} \
                 trace_throughput_rps={rps:.4} unfinished={}",
                policy.label(),
                outcome.records.len(),
                outcome.unfinished
            );
            csv.push_str(&format!(
                "fleet_goodput,{},trace_throughput_rps,{rps:.6}\n",
                policy_tag(policy)
            ));
        }
    }

    if smoke {
        println!(
            "BENCH_SMOKE_JSON {{\"benchmark\":\"sparse_attention\",\"decode_flat_ratio\":{:.6},\"sparse_decode_speedup_1m\":{:.4},\"esp_prefill_adv_dense\":{:.4},\"esp_prefill_adv_hierarchical\":{:.4},\"goodput_dense_rps\":{:.4},\"goodput_page_sparse_rps\":{:.4}}}",
            flat_ratio,
            speedup_1m,
            esp_prefill_adv[0],
            esp_prefill_adv[2],
            goodput[0].throughput_rps,
            goodput[1].throughput_rps
        );
    }

    let path = write_figure_csv("sparse_attention.csv", &csv);
    println!("\nCSV written to {}", path.display());
}

fn argmin(xs: &[f64]) -> usize {
    xs.iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap_or(0)
}
