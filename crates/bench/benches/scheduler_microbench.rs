//! Criterion micro-benchmarks of the scheduling hot path.
//!
//! The paper stresses that the global manager must decide within an
//! iteration-scale budget (tens of milliseconds). These benchmarks measure
//! the cost of the batching DP (naive vs. monotone-optimised), a full
//! LoongServe scheduling step, and one simulated serving iteration, to show
//! the Rust implementation stays far inside that budget.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use loong_cluster::topology::ClusterSpec;
use loong_esp::instance::InstanceRegistry;
use loong_kvcache::unified::UnifiedKvPool;
use loong_model::config::ModelConfig;
use loong_model::roofline::CostModel;
use loong_model::sib::ScalingInfoBase;
use loong_sched::manager::batching::{batch_requests, batch_requests_naive};
use loong_sched::manager::LoongServeScheduler;
use loong_sched::types::{PendingRequest, Scheduler, SchedulerView};
use loong_simcore::ids::{InstanceId, RequestId};
use loong_simcore::rng::SimRng;
use loong_simcore::time::SimTime;

struct Fixture {
    registry: InstanceRegistry,
    cost_model: CostModel,
    sib: ScalingInfoBase,
    pool: UnifiedKvPool,
    pending: Vec<PendingRequest>,
    idle: Vec<InstanceId>,
}

fn fixture(num_pending: usize) -> Fixture {
    let registry = InstanceRegistry::build(&ClusterSpec::single_node_a800(8), 2);
    let cost_model = CostModel::builder(ModelConfig::lwm_1m_text()).build();
    let mut rng = SimRng::seed(77);
    let configs: Vec<_> = (1..=4)
        .map(|sp| loong_model::roofline::ParallelConfig::new(2, sp))
        .collect();
    let sib = ScalingInfoBase::profile(
        &cost_model,
        &configs,
        ClusterSpec::single_node_a800(8).intra_node_link,
        0.0,
        &mut rng,
    );
    let idle = registry.all_ids();
    let pending: Vec<PendingRequest> = (0..num_pending)
        .map(|i| PendingRequest {
            id: RequestId(i as u64),
            input_len: 1_000 + (i as u64 * 37_123) % 150_000,
            prefilled_len: 0,
            max_output_len: 256,
        })
        .collect();
    Fixture {
        registry,
        cost_model,
        sib,
        pool: UnifiedKvPool::new(4, 500_000),
        pending,
        idle,
    }
}

fn view(f: &Fixture) -> SchedulerView<'_> {
    SchedulerView {
        now: SimTime::ZERO,
        pending: &f.pending,
        decoding: &[],
        swapped: &[],
        idle_instances: &f.idle,
        pool: &f.pool,
        registry: &f.registry,
        cost_model: &f.cost_model,
        sib: &f.sib,
        avg_decode_latency_s: 0.0,
    }
}

fn bench_batching_dp(c: &mut Criterion) {
    let mut group = c.benchmark_group("batching_dp");
    for &n in &[4usize, 8, 16, 32] {
        let f = fixture(n);
        let admitted: Vec<(RequestId, u64)> =
            f.pending.iter().map(|p| (p.id, p.input_len)).collect();
        let instances = f.registry.all_ids();
        group.bench_with_input(BenchmarkId::new("optimized", n), &n, |b, _| {
            b.iter(|| batch_requests(&view(&f), &admitted, &instances))
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            b.iter(|| batch_requests_naive(&view(&f), &admitted, &instances))
        });
    }
    group.finish();
}

fn bench_full_schedule(c: &mut Criterion) {
    let mut group = c.benchmark_group("loongserve_schedule");
    for &n in &[8usize, 64, 256] {
        let f = fixture(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut sched = LoongServeScheduler::new();
                sched.schedule(&view(&f))
            })
        });
    }
    group.finish();
}

fn bench_serving_iterations(c: &mut Criterion) {
    use loongserve::prelude::*;
    let mut group = c.benchmark_group("end_to_end_run");
    group.sample_size(10);
    group.bench_function("loongserve_sharegpt_40req", |b| {
        b.iter(|| {
            let system = SystemUnderTest::paper_single_node(SystemKind::LoongServe);
            let trace = WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(5.0, 40, 3);
            system.run(&trace, 5.0, &SloSpec::default_for_lwm())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_batching_dp,
    bench_full_schedule,
    bench_serving_iterations
);
criterion_main!(benches);
