//! Token-level KV placement plans.
//!
//! A placement plan says, for one request, how many of its KV tokens land on
//! which elastic instance. Plans are produced by schedulers (LoongServe
//! places tokens anywhere in the unified pool; baselines are restricted to a
//! single instance) and consumed by [`crate::unified::UnifiedKvPool`] when
//! the tokens are committed.
//!
//! Placement is token-level (§4.1): a [`PlacementStrategy`] either packs
//! the tokens onto the instances with the most free slots or spreads them
//! in proportion to free slots, so a request fits whenever the candidates'
//! total free slots do — unlike an even split, which fails as soon as one
//! instance has less than its equal share.

use loong_simcore::ids::{InstanceId, RequestId};
use serde::{Deserialize, Serialize};

/// How tokens should be spread across candidate instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementStrategy {
    /// Fill the instance with the most free slots first, then the next, …
    /// Minimises the number of instances touched.
    PackMostFree,
    /// Spread tokens proportionally to each instance's free slots, keeping
    /// utilisation balanced (LoongServe's default for prefill retention).
    Balanced,
}

/// The placement of one request's tokens across instances.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementPlan {
    /// The request being placed.
    pub request: RequestId,
    /// `(instance, tokens)` spans; instances are unique and tokens are
    /// positive.
    pub spans: Vec<(InstanceId, u64)>,
}

impl PlacementPlan {
    /// Total tokens covered by the plan.
    pub fn total_tokens(&self) -> u64 {
        self.spans.iter().map(|(_, t)| t).sum()
    }

    /// The instances the plan touches.
    pub fn instances(&self) -> Vec<InstanceId> {
        self.spans.iter().map(|&(i, _)| i).collect()
    }

    /// Tokens placed on a given instance (zero if none).
    pub fn tokens_on(&self, instance: InstanceId) -> u64 {
        self.spans
            .iter()
            .find(|&&(i, _)| i == instance)
            .map(|&(_, t)| t)
            .unwrap_or(0)
    }

    /// Validates structural invariants: unique instances, positive spans.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = Vec::new();
        for &(inst, tokens) in &self.spans {
            if tokens == 0 {
                return Err(format!("{}: zero-token span on {inst}", self.request));
            }
            if seen.contains(&inst) {
                return Err(format!("{}: duplicate instance {inst}", self.request));
            }
            seen.push(inst);
        }
        Ok(())
    }
}

/// Computes a placement of `tokens` tokens over `candidates`, where each
/// candidate is `(instance, free_slots)`, using the given strategy.
///
/// Returns `None` if the candidates' combined free slots cannot hold the
/// request — the caller then either rejects the request or widens the
/// candidate set (exactly the decision LoongServe's dispatcher makes).
pub fn plan_placement(
    request: RequestId,
    tokens: u64,
    candidates: &[(InstanceId, u64)],
    strategy: PlacementStrategy,
) -> Option<PlacementPlan> {
    if tokens == 0 {
        return Some(PlacementPlan {
            request,
            spans: Vec::new(),
        });
    }
    let total_free: u64 = candidates.iter().map(|(_, f)| f).sum();
    if total_free < tokens || candidates.is_empty() {
        return None;
    }
    let spans = match strategy {
        PlacementStrategy::PackMostFree => {
            let mut sorted: Vec<(InstanceId, u64)> = candidates.to_vec();
            sorted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let mut remaining = tokens;
            let mut spans = Vec::new();
            for (inst, free) in sorted {
                if remaining == 0 {
                    break;
                }
                let take = remaining.min(free);
                if take > 0 {
                    spans.push((inst, take));
                    remaining -= take;
                }
            }
            spans
        }
        PlacementStrategy::Balanced => {
            // Proportional to free slots, with a largest-remainder style
            // fix-up pass so the total matches exactly and no span exceeds
            // the instance's free slots.
            let mut spans: Vec<(InstanceId, u64)> = Vec::new();
            let mut assigned = 0u64;
            for &(inst, free) in candidates {
                let share = ((free as f64 / total_free as f64) * tokens as f64).floor() as u64;
                let share = share.min(free);
                if share > 0 {
                    spans.push((inst, share));
                }
                assigned += share;
            }
            let mut remaining = tokens - assigned;
            // Distribute the remainder to instances with spare room, most
            // free first.
            let mut order: Vec<(InstanceId, u64)> = candidates.to_vec();
            order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            for (inst, free) in order {
                if remaining == 0 {
                    break;
                }
                let already = spans
                    .iter()
                    .find(|&&(i, _)| i == inst)
                    .map(|&(_, t)| t)
                    .unwrap_or(0);
                let room = free - already;
                let extra = remaining.min(room);
                if extra == 0 {
                    continue;
                }
                if let Some(span) = spans.iter_mut().find(|(i, _)| *i == inst) {
                    span.1 += extra;
                } else {
                    spans.push((inst, extra));
                }
                remaining -= extra;
            }
            if remaining > 0 {
                return None;
            }
            spans
        }
    };
    let plan = PlacementPlan { request, spans };
    debug_assert_eq!(plan.total_tokens(), tokens);
    debug_assert!(plan.validate().is_ok());
    Some(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidates() -> Vec<(InstanceId, u64)> {
        vec![
            (InstanceId(0), 100_000),
            (InstanceId(1), 200_000),
            (InstanceId(2), 400_000),
        ]
    }

    #[test]
    fn pack_most_free_uses_fewest_instances() {
        let plan = plan_placement(
            RequestId(0),
            350_000,
            &candidates(),
            PlacementStrategy::PackMostFree,
        )
        .expect("fits");
        assert_eq!(plan.total_tokens(), 350_000);
        assert_eq!(plan.spans[0], (InstanceId(2), 350_000));
        assert_eq!(plan.spans.len(), 1);
    }

    #[test]
    fn balanced_spreads_proportionally() {
        let plan = plan_placement(
            RequestId(0),
            350_000,
            &candidates(),
            PlacementStrategy::Balanced,
        )
        .expect("fits");
        assert_eq!(plan.total_tokens(), 350_000);
        // Instance 2 has 4x the free slots of instance 0, so it should take
        // roughly 4x the tokens.
        let t0 = plan.tokens_on(InstanceId(0));
        let t2 = plan.tokens_on(InstanceId(2));
        assert!(t2 > 3 * t0, "t0={t0} t2={t2}");
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn paper_fragmentation_example() {
        // §4.1: a 600K-token request over instances with 100K/200K/400K free
        // slots. Even splitting (200K each) OOMs the first instance, but
        // token-level placement fits.
        assert!(600_000 / 3 > candidates()[0].1);
        let balanced = plan_placement(
            RequestId(0),
            600_000,
            &candidates(),
            PlacementStrategy::Balanced,
        );
        assert!(balanced.is_some(), "token-level placement should succeed");
        let packed = plan_placement(
            RequestId(0),
            600_000,
            &candidates(),
            PlacementStrategy::PackMostFree,
        );
        assert_eq!(packed.expect("fits").total_tokens(), 600_000);
    }

    #[test]
    fn infeasible_when_total_free_is_too_small() {
        for strategy in [PlacementStrategy::PackMostFree, PlacementStrategy::Balanced] {
            assert!(plan_placement(RequestId(0), 800_000, &candidates(), strategy).is_none());
        }
    }

    #[test]
    fn zero_tokens_yields_empty_plan() {
        let plan = plan_placement(RequestId(0), 0, &candidates(), PlacementStrategy::Balanced)
            .expect("empty");
        assert!(plan.spans.is_empty());
        assert_eq!(plan.total_tokens(), 0);
    }

    #[test]
    fn validation_rejects_duplicates_and_zero_spans() {
        let bad = PlacementPlan {
            request: RequestId(0),
            spans: vec![(InstanceId(0), 1), (InstanceId(0), 2)],
        };
        assert!(bad.validate().is_err());
        let zero = PlacementPlan {
            request: RequestId(0),
            spans: vec![(InstanceId(0), 0)],
        };
        assert!(zero.validate().is_err());
    }
}
