//! Token-level KV placement.
//!
//! A placement says, for one request, how many of its KV tokens land on
//! which elastic instance. [`crate::unified::UnifiedKvPool::place`] plans
//! and allocates one in a single call; [`plan_placement`] computes the
//! spans alone, for a caller that prices each span before moving it.
//!
//! Placement is token-level (§4.1): a [`PlacementStrategy`] either packs
//! the tokens onto the instances with the most free slots or spreads them
//! in proportion to free slots, so a request fits whenever the candidates'
//! total free slots do — unlike an even split, which fails as soon as one
//! instance has less than its equal share.

use loong_simcore::ids::InstanceId;

/// How tokens should be spread across candidate instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementStrategy {
    /// Fill the instance with the most free slots first, then the next, …
    /// Minimises the number of instances touched.
    PackMostFree,
    /// Spread tokens proportionally to each instance's free slots, keeping
    /// utilisation balanced (LoongServe's default for prefill retention).
    Balanced,
}

/// Computes a placement of `tokens` tokens over `candidates`, where each
/// candidate is `(instance, free_slots)` and no instance repeats, using
/// the given strategy. Returns `(instance, tokens)` spans: each instance at
/// most once, each span positive and within its instance's free slots, and
/// the spans summing to `tokens` (no spans for zero tokens).
///
/// Returns `None` if the candidates' combined free slots cannot hold the
/// request — the caller then either rejects the request or widens the
/// candidate set (exactly the decision LoongServe's dispatcher makes).
pub fn plan_placement(
    tokens: u64,
    candidates: &[(InstanceId, u64)],
    strategy: PlacementStrategy,
) -> Option<Vec<(InstanceId, u64)>> {
    if tokens == 0 {
        return Some(Vec::new());
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
    debug_assert_eq!(spans.iter().map(|&(_, t)| t).sum::<u64>(), tokens);
    Some(spans)
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

    /// Tokens the spans place on `instance` (zero if none).
    fn tokens_on(spans: &[(InstanceId, u64)], instance: InstanceId) -> u64 {
        spans
            .iter()
            .filter(|&&(i, _)| i == instance)
            .map(|&(_, t)| t)
            .sum()
    }

    fn total(spans: &[(InstanceId, u64)]) -> u64 {
        spans.iter().map(|&(_, t)| t).sum()
    }

    #[test]
    fn pack_most_free_uses_fewest_instances() {
        let spans =
            plan_placement(350_000, &candidates(), PlacementStrategy::PackMostFree).expect("fits");
        assert_eq!(spans, [(InstanceId(2), 350_000)]);
    }

    #[test]
    fn balanced_spreads_proportionally() {
        let spans =
            plan_placement(350_000, &candidates(), PlacementStrategy::Balanced).expect("fits");
        assert_eq!(total(&spans), 350_000);
        // Instance 2 has 4x the free slots of instance 0, so it should take
        // roughly 4x the tokens.
        let t0 = tokens_on(&spans, InstanceId(0));
        let t2 = tokens_on(&spans, InstanceId(2));
        assert!(t2 > 3 * t0, "t0={t0} t2={t2}");
        // Each instance once, each span positive.
        for (k, &(inst, tokens)) in spans.iter().enumerate() {
            assert!(tokens > 0);
            assert!(spans[..k].iter().all(|&(i, _)| i != inst));
        }
    }

    #[test]
    fn paper_fragmentation_example() {
        // §4.1: a 600K-token request over instances with 100K/200K/400K free
        // slots. Even splitting (200K each) OOMs the first instance, but
        // token-level placement fits.
        assert!(600_000 / 3 > candidates()[0].1);
        for strategy in [PlacementStrategy::Balanced, PlacementStrategy::PackMostFree] {
            let spans = plan_placement(600_000, &candidates(), strategy)
                .expect("token-level placement should succeed");
            assert_eq!(total(&spans), 600_000);
        }
    }

    #[test]
    fn infeasible_when_total_free_is_too_small() {
        for strategy in [PlacementStrategy::PackMostFree, PlacementStrategy::Balanced] {
            assert!(plan_placement(800_000, &candidates(), strategy).is_none());
        }
    }

    #[test]
    fn zero_tokens_yields_empty_plan() {
        let spans = plan_placement(0, &candidates(), PlacementStrategy::Balanced).expect("empty");
        assert!(spans.is_empty());
    }
}
