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
use loong_kvcache::placement::PlacementStrategy;
use loong_kvcache::unified::{KvMove, UnifiedKvPool};
use loong_model::roofline::CostModel;
use loong_simcore::ids::{InstanceId, RequestId};
use serde::{Deserialize, Serialize};

/// The outcome of a migration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationSummary {
    /// The individual KV moves performed.
    pub moves: Vec<KvMove>,
    /// Total tokens moved.
    pub total_tokens: u64,
    /// Bytes moved across the interconnect.
    pub total_bytes: f64,
    /// Time spent migrating, in seconds (serialised on the bottleneck link,
    /// which is how real systems experience it once a transfer saturates the
    /// NIC/NVLink port).
    pub time_s: f64,
}

impl MigrationSummary {
    /// A summary describing "nothing moved".
    pub fn empty() -> Self {
        MigrationSummary {
            moves: Vec::new(),
            total_tokens: 0,
            total_bytes: 0.0,
            time_s: 0.0,
        }
    }

    fn from_moves(moves: Vec<KvMove>, cost_model: &CostModel, registry: &InstanceRegistry) -> Self {
        let total_tokens: u64 = moves.iter().map(|m| m.tokens).sum();
        let mut total_bytes = 0.0;
        let mut time_s = 0.0;
        for m in &moves {
            let link = registry.link_between(&[m.from, m.to]);
            let bytes = m.tokens as f64 * cost_model.model.kv_bytes_per_token();
            total_bytes += bytes;
            time_s += link.transfer_time(bytes);
        }
        MigrationSummary {
            moves,
            total_tokens,
            total_bytes,
            time_s,
        }
    }
}

/// Errors from a migration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScalingError {
    /// The target instances cannot absorb the KV that has to move.
    InsufficientTargetCapacity {
        /// Tokens that needed to move.
        tokens: u64,
    },
}

impl std::fmt::Display for ScalingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScalingError::InsufficientTargetCapacity { tokens } => {
                write!(
                    f,
                    "target instances cannot absorb {tokens} migrated KV tokens"
                )
            }
        }
    }
}

impl std::error::Error for ScalingError {}

/// Migrates *all* KV of `request` onto `targets`: the engine's execution of
/// `Action::Migrate` (an instance drain or a disaggregation hand-off).
/// Returns the migration summary, or an error if the targets lack capacity,
/// in which case the pool is unchanged.
pub fn migrate_request(
    request: RequestId,
    targets: &[InstanceId],
    pool: &mut UnifiedKvPool,
    cost_model: &CostModel,
    registry: &InstanceRegistry,
) -> Result<MigrationSummary, ScalingError> {
    let outside: Vec<(InstanceId, u64)> = pool
        .locations_ref(request)
        .iter()
        .copied()
        .filter(|(inst, _)| !targets.contains(inst))
        .collect();
    let to_move: u64 = outside.iter().map(|(_, t)| t).sum();
    if to_move == 0 {
        return Ok(MigrationSummary::empty());
    }
    let free_on_targets: u64 = pool.free_slots_on(targets).iter().map(|(_, f)| f).sum();
    if free_on_targets < to_move {
        return Err(ScalingError::InsufficientTargetCapacity { tokens: to_move });
    }
    let mut moves = Vec::new();
    for (from, tokens) in outside {
        let placement = pool
            .plan(request, tokens, targets, PlacementStrategy::PackMostFree)
            .ok_or(ScalingError::InsufficientTargetCapacity { tokens: to_move })?;
        for (to, chunk) in placement.spans {
            let mv = pool
                .migrate(request, from, to, chunk)
                .expect("feasibility checked above");
            moves.push(mv);
        }
    }
    Ok(MigrationSummary::from_moves(moves, cost_model, registry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{execute_decode, DecodePlan};
    use crate::group::EspGroup;
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
        assert_eq!(summary.total_tokens, 100_000);
        assert!(summary.time_s > 0.0);
        assert!(summary.total_bytes > 0.0);
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
        let err = migrate_request(
            RequestId(0),
            &[InstanceId(0), InstanceId(1)],
            &mut pool,
            &cm,
            &registry,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ScalingError::InsufficientTargetCapacity { tokens: 100_000 }
        ));
        // Pool untouched.
        assert_eq!(pool.tokens_on(RequestId(0), InstanceId(2)), 50_000);
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
        let bigger = EspGroup::with_masters(all.clone(), all);
        let plan = DecodePlan::build(bigger, &[(RequestId(0), 80_000)], &pool).expect("capacity");
        let out = execute_decode(&plan, &cm, &registry, &mut pool).expect("decode");
        assert_eq!(out.generated_tokens, 1);
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
        assert_eq!(summary.total_tokens, 80_000);
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
        assert_eq!(summary.total_tokens, 0);
        assert_eq!(summary.time_s, 0.0);
    }
}
