//! Integration tests of the elastic scaling mechanisms across crates:
//! prefill with proactive scale-down feeding multi-master decode through the
//! unified KV pool, and the whole-request migration that drains and the
//! disaggregation baseline use.

use loongserve::prelude::*;

fn setup() -> (InstanceRegistry, CostModel, UnifiedKvPool) {
    let registry = InstanceRegistry::build(&ClusterSpec::single_node_a800(8), 2);
    let cost_model = CostModel::new(ModelConfig::lwm_1m_text());
    let pool = UnifiedKvPool::new(registry.num_instances(), 400_000);
    (registry, cost_model, pool)
}

#[test]
fn prefill_scale_down_then_decode_then_scale_up_lifecycle() {
    // Reproduces the request lifecycle of Figure 6: prefill at DoP 4,
    // proactive scale-down to DoP 1, decode, then scale the decode group up
    // without moving any KV.
    let (registry, cost_model, mut pool) = setup();
    let all = registry.all_ids();

    // Prefill a 200K-token request on all four instances, retaining on one.
    let cost = execute_prefill(
        &all,
        &[(RequestId(0), 200_000)],
        &[InstanceId(0)],
        &cost_model,
        &registry,
        &mut pool,
    )
    .expect("fits on one instance");
    assert!(cost.scaling_s > 0.0);
    assert_eq!(pool.locations_ref(RequestId(0)), [(InstanceId(0), 200_000)]);

    // Decode a few iterations on the scaled-down group.
    let single = [InstanceId(0)];
    for step in 0..5u64 {
        execute_decode(
            &single,
            &single,
            &[(RequestId(0), 200_000 + step)],
            &cost_model,
            &registry,
            &mut pool,
            &mut DecodeBuffer::default(),
        )
        .expect("capacity");
    }
    assert_eq!(pool.tokens_of(RequestId(0)), 200_005);

    // Scale the decode group up the way the engine executes an
    // `Action::Decode` that lists more instances and masters: new tokens
    // may now land on the new master too, and none of the existing KV
    // moves.
    let before = pool.locations_ref(RequestId(0)).to_vec();
    let grown = [InstanceId(0), InstanceId(1)];
    execute_decode(
        &grown,
        &grown,
        &[(RequestId(0), 200_005)],
        &cost_model,
        &registry,
        &mut pool,
        &mut DecodeBuffer::default(),
    )
    .expect("capacity");
    assert_eq!(pool.tokens_of(RequestId(0)), 200_006);
    assert!(pool.tokens_on(RequestId(0), InstanceId(0)) >= before[0].1);
}

#[test]
fn proactive_scale_down_is_cheaper_than_reactive_migration() {
    // The cost argument of §4.1: retaining KV during the prefill ring is
    // (nearly) free, while migrating the same KV afterwards costs real time.
    let (registry, cost_model, pool) = setup();
    let all = registry.all_ids();
    let tokens = 300_000u64;

    // Proactive: retention folded into the prefill.
    let proactive = execute_prefill(
        &all,
        &[(RequestId(0), tokens)],
        &[InstanceId(0)],
        &cost_model,
        &registry,
        &mut pool.clone(),
    )
    .expect("fits");

    // Reactive: prefill without scale-down, then migrate everything to
    // instance 0 the way the engine executes an `Action::Migrate`.
    let mut pool_b = pool.clone();
    execute_prefill(
        &all,
        &[(RequestId(1), tokens)],
        &all,
        &cost_model,
        &registry,
        &mut pool_b,
    )
    .expect("fits");
    let migration = migrate_request(
        RequestId(1),
        &[InstanceId(0)],
        &mut pool_b,
        &cost_model,
        &registry,
    )
    .expect("capacity");

    assert!(
        proactive.scaling_s < migration.time_s / 3.0,
        "proactive retention ({}) should be several times cheaper than reactive migration ({})",
        proactive.scaling_s,
        migration.time_s
    );
    // And it stays a negligible fraction of the prefill itself (Figure 14a).
    assert!(proactive.scaling_s / proactive.total() < 0.02);
}

#[test]
fn unified_pool_admits_what_locality_cannot() {
    // Figure 4 / §2.4 at realistic scale: 600K tokens over instances with
    // 100K/200K/400K free slots.
    let (registry, cost_model, _) = setup();
    let mut pool = UnifiedKvPool::with_capacities(&[100_000, 200_000, 400_000, 400_000]);
    pool.append(RequestId(99), InstanceId(3), 400_000)
        .expect("room");

    // No single instance can hold the request, the pool's free total can.
    let largest_free = pool.free_slots().iter().map(|&(_, free)| free).max();
    assert_eq!(largest_free, Some(400_000));
    assert_eq!(pool.total_free(), 700_000);

    execute_prefill(
        &registry.all_ids(),
        &[(RequestId(1), 600_000)],
        &[InstanceId(0), InstanceId(1), InstanceId(2)],
        &cost_model,
        &registry,
        &mut pool,
    )
    .expect("unified pool admits the request");
    assert_eq!(pool.tokens_of(RequestId(1)), 600_000);
}

#[test]
fn multi_master_decode_balances_new_tokens_across_masters() {
    let (registry, cost_model, mut pool) = setup();
    let all = registry.all_ids();
    let requests: Vec<(RequestId, u64)> = (0..64).map(|i| (RequestId(i), 1_000)).collect();
    execute_decode(
        &all,
        &all,
        &requests,
        &cost_model,
        &registry,
        &mut pool,
        &mut DecodeBuffer::default(),
    )
    .expect("decode");
    // The pool started empty, so each master's used slots are the new
    // tokens it received: every master got some, and near-uniformly many.
    let load: Vec<u64> = all.iter().map(|&m| pool.instance(m).used()).collect();
    let max = load.iter().max().copied().unwrap_or(0);
    let min = load.iter().min().copied().unwrap_or(0);
    assert!(min > 0, "a master received no new KV: {load:?}");
    assert!(
        max - min <= 1,
        "per-master load should be near-uniform: {load:?}"
    );
    assert_eq!(load.iter().sum::<u64>(), 64);
}

#[test]
fn drain_instance_frees_it_for_prefill_without_losing_tokens() {
    let (registry, cost_model, mut pool) = setup();
    // A decode request holds KV on instance 2.
    pool.append(RequestId(7), InstanceId(2), 50_000)
        .expect("room");
    let summary = migrate_request(
        RequestId(7),
        &[InstanceId(0), InstanceId(1)],
        &mut pool,
        &cost_model,
        &registry,
    )
    .expect("capacity");
    assert_eq!(
        summary.total_bytes,
        50_000.0 * cost_model.kv_bytes_per_token()
    );
    assert_eq!(pool.instance(InstanceId(2)).used(), 0);
    assert_eq!(pool.tokens_of(RequestId(7)), 50_000);
    assert!(pool.check_invariants().is_ok());
}
