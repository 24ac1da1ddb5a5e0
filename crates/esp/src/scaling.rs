//! Whole-request KV migration with explicit communication cost.
//!
//! LoongServe itself avoids KV migration: prefill scale-down is proactive
//! and decode scale-up adds masters without moving anything. The engine
//! still moves KV for one scheduler action, `Action::Migrate`, which it
//! executes with [`migrate_request`]. Two schedulers emit it:
//!
//! * the global manager, when it **drains an instance** so the prefill
//!   phase can claim it (§5.2), and
//! * the **DistServe baseline**, when it hands a prefilled request from
//!   the prefill half to the decode half.
//!
//! The paper's optional reactive decode scale-down (§5.4) is not modelled;
//! it would reach the pool through the same action.

use crate::instance::InstanceRegistry;
use crate::{group, EspError};
use loong_kvcache::placement::{plan_placement, PlacementStrategy};
use loong_kvcache::pool::KvError;
use loong_kvcache::unified::UnifiedKvPool;
use loong_model::roofline::CostModel;
use loong_simcore::ids::{InstanceId, RequestId};

/// What a migration moved.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MigrationSummary {
    /// Bytes moved across the interconnect.
    pub total_bytes: f64,
    /// Time spent migrating, in seconds (serialised on the bottleneck link,
    /// which is how real systems experience it once a transfer saturates the
    /// NIC/NVLink port).
    pub time_s: f64,
}

/// Migrates *all* KV of `request` onto `targets`: the engine's execution of
/// `Action::Migrate` (an instance drain or a disaggregation hand-off).
/// Returns the bytes moved and the transfer time, summed span by span in
/// the order the spans move, or an error if the targets repeat an instance
/// or lack capacity, in which case the pool is unchanged.
pub fn migrate_request(
    request: RequestId,
    targets: &[InstanceId],
    pool: &mut UnifiedKvPool,
    cost_model: &CostModel,
    registry: &InstanceRegistry,
) -> Result<MigrationSummary, EspError> {
    if let Some(instance) = group::repeated(targets) {
        return Err(KvError::RepeatedCandidate { instance }.into());
    }
    let outside: Vec<(InstanceId, u64)> = pool
        .locations_ref(request)
        .iter()
        .copied()
        .filter(|(inst, _)| !targets.contains(inst))
        .collect();
    let requested: u64 = outside.iter().map(|(_, t)| t).sum();
    let mut summary = MigrationSummary::default();
    if requested == 0 {
        return Ok(summary);
    }
    let available: u64 = targets.iter().map(|&i| pool.instance(i).free()).sum();
    if available < requested {
        return Err(EspError::InsufficientKvCapacity {
            requested,
            available,
        });
    }
    for (from, tokens) in outside {
        let spans = plan_placement(
            tokens,
            &pool.free_slots_on(targets),
            PlacementStrategy::PackMostFree,
        )
        .expect("the targets have room for every span");
        for (to, chunk) in spans {
            pool.migrate(request, from, to, chunk)
                .expect("feasibility checked above");
            let bytes = chunk as f64 * cost_model.kv_bytes_per_token();
            summary.total_bytes += bytes;
            summary.time_s += registry.link_between(&[from, to]).transfer_time(bytes);
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{execute_decode, DecodeBuffer};
    use loong_cluster::topology::ClusterSpec;
    use loong_model::config::ModelConfig;

    fn setup() -> (InstanceRegistry, CostModel) {
        (
            InstanceRegistry::build(&ClusterSpec::single_node_a800(8), 2),
            CostModel::new(ModelConfig::lwm_1m_text()),
        )
    }

    #[test]
    fn reactive_scale_down_moves_kv_and_charges_time() {
        // The reactive alternative to proactive scale-down: after a prefill
        // on four instances, migrate the KV onto the two that stay.
        let (registry, cm) = setup();
        let mut pool = UnifiedKvPool::new(4, 300_000);
        // Request 0 spread over all four instances.
        for i in 0..4 {
            pool.append(RequestId(0), InstanceId(i), 50_000)
                .expect("room");
        }
        let retain = [InstanceId(0), InstanceId(1)];
        let summary =
            migrate_request(RequestId(0), &retain, &mut pool, &cm, &registry).expect("capacity");
        assert_eq!(summary.total_bytes, 100_000.0 * cm.kv_bytes_per_token());
        assert!(summary.time_s > 0.0);
        assert_eq!(pool.instance(InstanceId(2)).used(), 0);
        assert_eq!(pool.instance(InstanceId(3)).used(), 0);
        assert_eq!(pool.tokens_of(RequestId(0)), 200_000);
        assert!(pool
            .locations_ref(RequestId(0))
            .iter()
            .all(|(i, _)| retain.contains(i)));
    }

    #[test]
    fn reactive_scale_down_fails_cleanly_without_capacity() {
        let (registry, cm) = setup();
        let mut pool = UnifiedKvPool::with_capacities(&[60_000, 60_000, 300_000, 300_000]);
        for i in 0..4 {
            pool.append(RequestId(0), InstanceId(i), 50_000)
                .expect("room");
        }
        let before = pool.clone();
        let err = migrate_request(
            RequestId(0),
            &[InstanceId(0), InstanceId(1)],
            &mut pool,
            &cm,
            &registry,
        )
        .unwrap_err();
        assert_eq!(
            err,
            EspError::InsufficientKvCapacity {
                requested: 100_000,
                available: 20_000
            }
        );
        assert_eq!(pool, before, "a refused migration must not touch the pool");
    }

    #[test]
    fn repeated_targets_are_refused_before_any_move() {
        // Counted twice, instance 1's 6 free slots would seem to hold all 10
        // tokens, and the migration would fail after moving some of them.
        let (registry, cm) = setup();
        let mut pool = UnifiedKvPool::with_capacities(&[100, 6]);
        pool.append(RequestId(0), InstanceId(0), 10).expect("room");
        let before = pool.clone();
        let err = migrate_request(
            RequestId(0),
            &[InstanceId(1), InstanceId(1)],
            &mut pool,
            &cm,
            &registry,
        )
        .unwrap_err();
        assert_eq!(
            err,
            EspError::Kv(KvError::RepeatedCandidate {
                instance: InstanceId(1)
            })
        );
        assert_eq!(pool, before);
    }

    #[test]
    fn scale_up_requires_no_migration() {
        // A decode group scales up by listing more instances and masters;
        // the KV already resident stays where it is.
        let (registry, cm) = setup();
        let mut pool = UnifiedKvPool::new(4, 300_000);
        pool.append(RequestId(0), InstanceId(0), 40_000)
            .expect("room");
        pool.append(RequestId(0), InstanceId(1), 40_000)
            .expect("room");
        let all: Vec<InstanceId> = (0..4).map(InstanceId).collect();
        execute_decode(
            &all,
            &all,
            &[(RequestId(0), 80_000)],
            &cm,
            &registry,
            &mut pool,
            &mut DecodeBuffer::default(),
        )
        .expect("decode");
        assert_eq!(pool.tokens_of(RequestId(0)), 80_001);
        for i in [InstanceId(0), InstanceId(1)] {
            assert!(pool.tokens_on(RequestId(0), i) >= 40_000, "{i} lost KV");
        }
    }

    #[test]
    fn migrate_request_consolidates_onto_targets() {
        let (registry, cm) = setup();
        let mut pool = UnifiedKvPool::new(4, 300_000);
        pool.append(RequestId(5), InstanceId(0), 40_000)
            .expect("room");
        pool.append(RequestId(5), InstanceId(1), 40_000)
            .expect("room");
        let summary = migrate_request(
            RequestId(5),
            &[InstanceId(2), InstanceId(3)],
            &mut pool,
            &cm,
            &registry,
        )
        .expect("capacity");
        assert_eq!(summary.total_bytes, 80_000.0 * cm.kv_bytes_per_token());
        assert_eq!(pool.instance(InstanceId(0)).used(), 0);
        assert_eq!(pool.tokens_of(RequestId(5)), 80_000);
        // Migration of ~80K tokens (~40 GB) over NVLink should cost on the
        // order of 100 ms — far more than a decode step, as the paper argues.
        assert!(summary.time_s > 0.05, "migration time {}", summary.time_s);
    }

    #[test]
    fn migrate_request_already_on_targets_is_free() {
        let (registry, cm) = setup();
        let mut pool = UnifiedKvPool::new(4, 300_000);
        pool.append(RequestId(5), InstanceId(2), 40_000)
            .expect("room");
        let summary = migrate_request(RequestId(5), &[InstanceId(2)], &mut pool, &cm, &registry)
            .expect("noop");
        assert_eq!(summary, MigrationSummary::default());
    }
}
