//! The cluster router: assigning arriving requests to fleet replicas.
//!
//! LoongServe's elastic groups live inside one replica (one 8-GPU node with
//! its own global manager and unified KV pool). Serving "heavy traffic from
//! millions of users" needs a tier above that: a fleet of replicas behind a
//! dispatcher that decides, per arriving request, which replica serves it —
//! the same tier DistServe assumes above its prefill/decode pools. This
//! module is that dispatcher's policy layer.
//!
//! A [`RouterPolicy`] names a policy and [`RouterPolicy::build`] returns its
//! [`Router`], one type whose variants carry each policy's state. The
//! router sees one [`RouteRequest`] at a time, in arrival order, plus the
//! fleet's per-replica [`ReplicaLoad`] snapshot, and returns the
//! [`ReplicaId`] to serve it. Load accounting is owned by the
//! [`FleetLoadTracker`], which the fleet engine updates **incrementally** —
//! O(1) per assignment — so routing never scans a replica's full request
//! table, preserving the engine's O(active) invariant at fleet scope.
//!
//! Every policy is deterministic: identically-seeded runs route
//! identically, bit for bit. Ties are always broken by the lowest
//! [`ReplicaId`] (candidates are iterated in replica-id order with a
//! strictly-less comparison), and the power-of-two-choices policy draws its
//! probe pairs from a seeded [`SimRng`] substream.

use loong_simcore::ids::{ConversationId, ReplicaId, RequestId};
use loong_simcore::rng::SimRng;
use loong_simcore::time::SimTime;
use rand::Rng;
use std::collections::BTreeMap;

/// What the router may observe about an arriving request.
///
/// Mirrors what a real cluster frontend knows at admission time: the prompt
/// length and the user-declared output bound — never the true output length,
/// which the simulator knows but hides from all policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteRequest {
    /// The request.
    pub id: RequestId,
    /// Arrival time at the fleet frontend.
    pub arrival: SimTime,
    /// Prompt length in tokens.
    pub input_len: u64,
    /// User-declared bound on the output length.
    pub max_output_len: u64,
    /// The request's conversation, if it is a multi-turn follow-up. A real
    /// frontend knows this at admission (it is the session the request
    /// arrived on), so affinity policies may use it.
    pub conversation: Option<ConversationId>,
}

impl RouteRequest {
    /// Worst-case tokens the request will queue behind it: prompt plus the
    /// declared output bound (the router's analogue of queued work).
    pub fn queued_tokens(&self) -> u64 {
        self.input_len + self.max_output_len
    }
}

/// Incrementally maintained load statistics of one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaLoad {
    /// The replica these statistics describe.
    pub replica: ReplicaId,
    /// Sum of `input_len + max_output_len` over assigned requests — the
    /// worst-case queued work, the join-shortest-queue criterion.
    pub queued_tokens: u64,
    /// Sum of `input_len` over assigned requests — the dominant KV-cache
    /// footprint for long-context workloads, the least-KV-load criterion.
    pub kv_tokens: u64,
}

/// The fleet's per-replica load accounting.
///
/// Owned by the fleet engine, shown read-only to the router. Updates are
/// O(1) per assignment: running sums only, never a scan of assigned
/// requests.
#[derive(Debug, Clone)]
pub struct FleetLoadTracker {
    loads: Vec<ReplicaLoad>,
}

impl FleetLoadTracker {
    /// Creates a tracker for `replicas` idle replicas.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    pub fn new(replicas: usize) -> Self {
        assert!(replicas > 0, "a fleet needs at least one replica");
        FleetLoadTracker {
            loads: (0..replicas)
                .map(|r| ReplicaLoad {
                    replica: ReplicaId::from(r),
                    queued_tokens: 0,
                    kv_tokens: 0,
                })
                .collect(),
        }
    }

    /// The per-replica loads, in replica-id order.
    pub fn loads(&self) -> &[ReplicaLoad] {
        &self.loads
    }

    /// Accounts `request` as assigned to `replica`.
    ///
    /// # Panics
    ///
    /// Panics if the replica is out of range.
    pub fn on_assign(&mut self, replica: ReplicaId, request: &RouteRequest) {
        let load = &mut self.loads[replica.index()];
        load.queued_tokens += request.queued_tokens();
        load.kv_tokens += request.input_len;
    }
}

/// The full candidate set: every replica of an `n`-replica fleet, in
/// ascending id order. What a fleet without health tracking routes over.
pub fn all_replicas(n: usize) -> Vec<ReplicaId> {
    (0..n).map(ReplicaId::from).collect()
}

/// Validates a candidate set: non-empty, strictly ascending, in range of
/// `loads`. Only the emptiness check runs in release builds.
fn check_candidates(loads: &[ReplicaLoad], candidates: &[ReplicaId]) {
    assert!(
        !candidates.is_empty(),
        "cannot route over an empty candidate set"
    );
    debug_assert!(
        candidates.windows(2).all(|w| w[0] < w[1]),
        "candidates must be strictly ascending"
    );
    debug_assert!(
        candidates.last().expect("non-empty").index() < loads.len(),
        "candidate out of range of the load table"
    );
}

/// Selects the candidate minimising `key`, breaking ties towards the
/// lowest replica id. This is the **one** sorted-candidate tie-break all
/// load-comparing policies share (JSQ, least-KV, the p2c probe pair, the
/// affinity fallback): candidates are iterated in ascending id order with
/// a strictly-less comparison, so no policy can diverge on tie-break order
/// when the candidate set shrinks around a failure.
fn argmin_among(
    loads: &[ReplicaLoad],
    candidates: &[ReplicaId],
    key: impl Fn(&ReplicaLoad) -> u64,
) -> ReplicaId {
    let mut best = candidates[0];
    let mut best_key = key(&loads[best.index()]);
    for &candidate in &candidates[1..] {
        let k = key(&loads[candidate.index()]);
        if k < best_key {
            best = candidate;
            best_key = k;
        }
    }
    best
}

/// The deterministic routing policies shipped with the fleet tier.
///
/// Each policy picks among the **routable** candidates only (see
/// [`Router::route`]); with every replica routable it makes its
/// failure-free decisions bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterPolicy {
    /// Every request goes to the first routable replica: replica 0 while
    /// it is up. The identity of the fleet tier — a 1-replica fleet under
    /// passthrough is the bare serving engine bit for bit (pinned by
    /// `tests/fleet_equivalence.rs`). Over larger fleets it is only the
    /// degenerate "no load balancing" baseline.
    Passthrough,
    /// Request *k* goes to the *k mod |candidates|*-th routable replica in
    /// id order. Oblivious to load, but on homogeneous replicas with
    /// exchangeable requests it is the strongest simple baseline, and it
    /// needs neither seed nor tie-break. The counter advances by one per
    /// request whatever the candidate set, so when replicas drop out the
    /// cycle carries on over the sorted survivors.
    RoundRobin,
    /// Join the candidate with the fewest queued tokens (the
    /// `input_len + max_output_len` running sum). Queue length counts
    /// worst-case tokens, not requests: one 200K-token prompt outweighs
    /// hundreds of chat requests. The router gets no completion feedback
    /// from the replicas, so the sums are cumulative assigned work, never
    /// drained: over a long trace this is "join the least-total-work
    /// replica", not the instantaneous-queue JSQ of a feedback-coupled
    /// frontend. That is the honest capability of a dispatcher that must
    /// not scan replica state.
    JoinShortestQueue,
    /// Join the candidate with the smallest KV-cache footprint (the
    /// `input_len` running sum). It counts prompts only: in LoongServe the
    /// unified KV pool is the scarce per-replica resource — one
    /// million-token prompt pins ~488 GB of KV — while the declared output
    /// bound mostly predicts *time*, not *memory*, so on prompt-skewed
    /// mixes it can disagree sharply with join-shortest-queue. Like JSQ,
    /// the sum is cumulative assigned work, not instantaneous residency.
    LeastKvLoad,
    /// Probe two distinct candidates drawn from a seeded RNG and join the
    /// one with fewer queued tokens. Sampling two queues gets exponentially
    /// close to join-shortest-queue while probing O(1) replicas per
    /// request — the shape that matters once a fleet is too large to scan.
    /// Probes are indices into the sorted candidate slice, so every draw
    /// lands on a routable replica, and a probe-pair tie breaks to the
    /// lower replica id whatever the draw order. A decision over two or
    /// more candidates costs exactly two draws and one over a single
    /// candidate none, so the probe stream stays aligned across replays.
    PowerOfTwoChoices {
        /// Seed of the probe-order RNG substream.
        seed: u64,
    },
    /// Pin every conversation to the replica that served its first turn,
    /// whose unified KV pool retains the shared prefix; first turns and
    /// untagged requests fall back to least-KV-load placement. Prefix reuse
    /// is replica-local — a follow-up routed anywhere else re-prefills its
    /// whole history — so affinity is the fleet half of the prefix-cache
    /// tier. A pin holds only while its replica is routable: when a crash
    /// removes it from the candidates the conversation **re-pins** to the
    /// least-KV candidate, because the crashed replica lost its device pool
    /// and after recovery holds nothing of the conversation. Retiring a
    /// replica ([`Router::on_replica_removed`]) drops its pins for good.
    PrefixAffinity,
}

impl RouterPolicy {
    /// The five fleet routing policies compared in the fleet experiments
    /// (passthrough is the single-replica identity, not a policy to sweep).
    pub fn all_policies() -> Vec<RouterPolicy> {
        vec![
            RouterPolicy::RoundRobin,
            RouterPolicy::JoinShortestQueue,
            RouterPolicy::LeastKvLoad,
            RouterPolicy::PowerOfTwoChoices { seed: 0x90f1ee7 },
            RouterPolicy::PrefixAffinity,
        ]
    }

    /// Builds a fresh router for this policy.
    pub fn build(&self) -> Router {
        match *self {
            RouterPolicy::Passthrough => Router::Passthrough,
            RouterPolicy::RoundRobin => Router::RoundRobin { next: 0 },
            RouterPolicy::JoinShortestQueue => Router::JoinShortestQueue,
            RouterPolicy::LeastKvLoad => Router::LeastKvLoad,
            RouterPolicy::PowerOfTwoChoices { seed } => Router::PowerOfTwoChoices {
                rng: SimRng::seed(seed).fork("p2c-probes"),
            },
            RouterPolicy::PrefixAffinity => Router::PrefixAffinity {
                pins: BTreeMap::new(),
            },
        }
    }

    /// The report label.
    pub fn label(&self) -> &'static str {
        match self {
            RouterPolicy::Passthrough => "passthrough",
            RouterPolicy::RoundRobin => "round-robin",
            RouterPolicy::JoinShortestQueue => "join-shortest-queue",
            RouterPolicy::LeastKvLoad => "least-kv-load",
            RouterPolicy::PowerOfTwoChoices { .. } => "power-of-two-choices",
            RouterPolicy::PrefixAffinity => "prefix-affinity",
        }
    }
}

/// A routing policy with its state, one variant per [`RouterPolicy`].
///
/// Deterministic: the same policy and the same sequence of
/// [`Router::route`] calls produce the same assignments.
#[derive(Debug, Clone)]
pub enum Router {
    /// See [`RouterPolicy::Passthrough`].
    Passthrough,
    /// See [`RouterPolicy::RoundRobin`].
    RoundRobin {
        /// Requests routed so far.
        next: u64,
    },
    /// See [`RouterPolicy::JoinShortestQueue`].
    JoinShortestQueue,
    /// See [`RouterPolicy::LeastKvLoad`].
    LeastKvLoad,
    /// See [`RouterPolicy::PowerOfTwoChoices`].
    PowerOfTwoChoices {
        /// The probe-order RNG substream.
        rng: SimRng,
    },
    /// See [`RouterPolicy::PrefixAffinity`].
    PrefixAffinity {
        /// The replica each conversation is pinned to.
        pins: BTreeMap<ConversationId, ReplicaId>,
    },
}

impl Router {
    /// Chooses the replica to serve `request` from `candidates`. `loads`
    /// is the fleet's current per-replica accounting, in replica-id order;
    /// `candidates` is the **routable** subset — healthy replicas, in
    /// strictly ascending id order (see
    /// [`crate::reliability::healthy_candidates`]) — and the returned id
    /// is one of them. A failure-free fleet passes every replica
    /// ([`all_replicas`]).
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn route(
        &mut self,
        request: &RouteRequest,
        loads: &[ReplicaLoad],
        candidates: &[ReplicaId],
    ) -> ReplicaId {
        check_candidates(loads, candidates);
        match self {
            Router::Passthrough => candidates[0],
            Router::RoundRobin { next } => {
                let choice = candidates[(*next % candidates.len() as u64) as usize];
                *next += 1;
                choice
            }
            Router::JoinShortestQueue => argmin_among(loads, candidates, |l| l.queued_tokens),
            Router::LeastKvLoad => argmin_among(loads, candidates, |l| l.kv_tokens),
            Router::PowerOfTwoChoices { rng } => {
                let n = candidates.len();
                if n == 1 {
                    return candidates[0];
                }
                // Two distinct probes: the first uniform, the second from
                // the remaining n-1 slots, shifted past the first.
                let first = rng.gen_range(0..n);
                let mut second = rng.gen_range(0..n - 1);
                if second >= first {
                    second += 1;
                }
                // Compare in candidate order so a tie breaks to the lower
                // id no matter in which order the probes were drawn.
                let pair = [candidates[first.min(second)], candidates[first.max(second)]];
                argmin_among(loads, &pair, |l| l.queued_tokens)
            }
            Router::PrefixAffinity { pins } => {
                let Some(conversation) = request.conversation else {
                    return argmin_among(loads, candidates, |l| l.kv_tokens);
                };
                if let Some(&replica) = pins.get(&conversation) {
                    if candidates.binary_search(&replica).is_ok() {
                        return replica;
                    }
                }
                let replica = argmin_among(loads, candidates, |l| l.kv_tokens);
                pins.insert(conversation, replica);
                replica
            }
        }
    }

    /// Tells the router that `replica` has been **removed** from the fleet
    /// (drained and retired by a scale-down, as opposed to a crash it may
    /// come back from). Prefix affinity drops every pin to it: crash
    /// re-pinning is lazy, which is sound only while the replica may come
    /// back with its id, and a retired id may later be re-activated
    /// **cold** — a surviving pin would send follow-ups to a pool that
    /// holds nothing of their prefix. The other policies keep no
    /// per-replica state.
    pub fn on_replica_removed(&mut self, replica: ReplicaId) {
        if let Router::PrefixAffinity { pins } = self {
            pins.retain(|_, &mut pinned| pinned != replica);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn req(id: u64, input_len: u64, max_output_len: u64) -> RouteRequest {
        RouteRequest {
            id: RequestId(id),
            arrival: SimTime::from_secs(id as f64),
            input_len,
            max_output_len,
            conversation: None,
        }
    }

    #[test]
    fn tracker_accumulates_o1_running_sums() {
        let mut tracker = FleetLoadTracker::new(2);
        tracker.on_assign(ReplicaId(0), &req(0, 100, 50));
        tracker.on_assign(ReplicaId(1), &req(1, 10, 5));
        tracker.on_assign(ReplicaId(0), &req(2, 1, 1));
        let loads = tracker.loads();
        assert_eq!(loads[0].queued_tokens, 152);
        assert_eq!(loads[0].kv_tokens, 101);
        assert_eq!(loads[1].queued_tokens, 15);
        assert_eq!(loads[1].kv_tokens, 10);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_fleet_is_rejected() {
        let _ = FleetLoadTracker::new(0);
    }

    #[test]
    fn argmin_breaks_ties_towards_lowest_replica() {
        let mut tracker = FleetLoadTracker::new(3);
        let all = all_replicas(3);
        // All loads equal: the winner must be replica 0.
        assert_eq!(
            argmin_among(tracker.loads(), &all, |l| l.queued_tokens),
            ReplicaId(0)
        );
        // Make replica 0 heavier; 1 and 2 tie at zero -> replica 1 wins.
        tracker.on_assign(ReplicaId(0), &req(0, 10, 10));
        assert_eq!(
            argmin_among(tracker.loads(), &all, |l| l.queued_tokens),
            ReplicaId(1)
        );
    }

    #[test]
    fn argmin_only_considers_candidates() {
        let tracker = FleetLoadTracker::new(4);
        // All loads tie at zero, but replica 0 is not a candidate: the
        // lowest *candidate* id wins, not the lowest replica id.
        assert_eq!(
            argmin_among(tracker.loads(), &[ReplicaId(2), ReplicaId(3)], |l| l
                .queued_tokens),
            ReplicaId(2)
        );
    }

    #[test]
    #[should_panic(expected = "empty candidate set")]
    fn empty_candidate_set_is_rejected() {
        let tracker = FleetLoadTracker::new(2);
        let mut router = RouterPolicy::JoinShortestQueue.build();
        let _ = router.route(&req(0, 10, 10), tracker.loads(), &[]);
    }

    #[test]
    fn all_replicas_is_the_ascending_identity_set() {
        assert_eq!(
            all_replicas(3),
            vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)]
        );
        assert!(all_replicas(0).is_empty());
    }

    /// Routes one fixed 200-request sequence over 4 replicas under `policy`
    /// and folds the picks into an FNV-1a digest. The candidate set shrinks
    /// and regrows (all, without 1, {2, 3}, {3}, all) and replica 0 is
    /// removed halfway, so affinity pins, re-pins and un-pins; conversation
    /// 9 skips the middle phases to carry its pin across the removal.
    fn routing_digest(policy: RouterPolicy) -> u64 {
        let mut router = policy.build();
        let mut tracker = FleetLoadTracker::new(4);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..200u64 {
            if i == 100 {
                router.on_replica_removed(ReplicaId(0));
            }
            let candidates: Vec<ReplicaId> = match i {
                0..=39 | 140.. => all_replicas(4),
                40..=79 => vec![ReplicaId(0), ReplicaId(2), ReplicaId(3)],
                80..=119 => vec![ReplicaId(2), ReplicaId(3)],
                _ => vec![ReplicaId(3)],
            };
            let conversation = match (i % 3, i % 5) {
                (0, _) => None,
                (_, 0) if (20..140).contains(&i) => None,
                (_, 0) => Some(ConversationId(9)),
                _ => Some(ConversationId(i % 7)),
            };
            let request = RouteRequest {
                conversation,
                ..req(i, 50 + (i * 7_919) % 4_000, 16 + (i * 131) % 500)
            };
            let pick = router.route(&request, tracker.loads(), &candidates);
            assert!(candidates.contains(&pick), "{policy:?} left the candidates");
            tracker.on_assign(pick, &request);
            digest ^= pick.raw();
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
        digest
    }

    #[test]
    fn every_policy_routes_the_fixed_sequence_on_golden() {
        let golden = [
            (RouterPolicy::Passthrough, 0x7a66_306e_7f3b_7c79),
            (RouterPolicy::RoundRobin, 0x76b1_534f_1233_799c),
            (RouterPolicy::JoinShortestQueue, 0x65a0_ad9b_bc24_a952),
            (RouterPolicy::LeastKvLoad, 0x5189_bf71_942e_ec58),
            (
                RouterPolicy::PowerOfTwoChoices { seed: 0x90f1ee7 },
                0x7192_140d_2733_21e6,
            ),
            (RouterPolicy::PrefixAffinity, 0xd318_015f_044d_a412),
        ];
        for (policy, expected) in golden {
            let actual = routing_digest(policy);
            assert_eq!(actual, expected, "{policy:?}: got 0x{actual:016x}");
        }
    }
}

// Hand-built decisions of each policy, in one `router::<policy>::tests`
// module per policy so a policy's examples run alone, e.g.
// `cargo test -p loong-sched router::p2c`.

#[cfg(test)]
mod passthrough {
    mod tests {
        use crate::router::tests::req;
        use crate::router::*;

        #[test]
        fn everything_lands_on_replica_zero() {
            let mut router = RouterPolicy::Passthrough.build();
            let tracker = FleetLoadTracker::new(3);
            let all = all_replicas(3);
            for i in 0..10 {
                assert_eq!(
                    router.route(&req(i, 100, 10), tracker.loads(), &all),
                    ReplicaId(0)
                );
            }
        }

        #[test]
        fn falls_over_to_the_lowest_healthy_replica() {
            let mut router = RouterPolicy::Passthrough.build();
            let tracker = FleetLoadTracker::new(3);
            // Replica 0 is unhealthy: the identity policy degrades to "first
            // healthy id" rather than routing into the crash.
            assert_eq!(
                router.route(
                    &req(0, 100, 10),
                    tracker.loads(),
                    &[ReplicaId(1), ReplicaId(2)]
                ),
                ReplicaId(1)
            );
        }
    }
}

#[cfg(test)]
mod round_robin {
    mod tests {
        use crate::router::tests::req;
        use crate::router::*;

        #[test]
        fn cycles_in_replica_id_order() {
            let mut router = RouterPolicy::RoundRobin.build();
            let tracker = FleetLoadTracker::new(3);
            let all = all_replicas(3);
            let picks: Vec<u64> = (0..7)
                .map(|i| router.route(&req(i, 10, 10), tracker.loads(), &all).raw())
                .collect();
            assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
        }

        #[test]
        fn excluded_replicas_are_skipped_without_stalling_the_cycle() {
            let mut router = RouterPolicy::RoundRobin.build();
            let tracker = FleetLoadTracker::new(3);
            let healthy = [ReplicaId(0), ReplicaId(2)];
            // Replica 1 is unhealthy: the cycle covers {0, 2} in sorted order.
            let picks: Vec<u64> = (0..4)
                .map(|i| {
                    router
                        .route(&req(i, 10, 10), tracker.loads(), &healthy)
                        .raw()
                })
                .collect();
            assert_eq!(picks, vec![0, 2, 0, 2]);
            // When replica 1 recovers, the counter has still advanced one per
            // request, so the cycle re-phases deterministically.
            let all = all_replicas(3);
            assert_eq!(
                router.route(&req(9, 10, 10), tracker.loads(), &all),
                ReplicaId(1)
            );
        }
    }
}

#[cfg(test)]
mod jsq {
    mod tests {
        use crate::router::tests::req;
        use crate::router::*;

        #[test]
        fn picks_least_queued_tokens_not_fewest_requests() {
            let mut router = RouterPolicy::JoinShortestQueue.build();
            let mut tracker = FleetLoadTracker::new(2);
            let all = all_replicas(2);
            // Replica 0: one huge request. Replica 1: three small ones.
            tracker.on_assign(ReplicaId(0), &req(0, 100_000, 64));
            for i in 1..4 {
                tracker.on_assign(ReplicaId(1), &req(i, 100, 64));
            }
            // Fewest requests is replica 0, but fewest queued tokens is 1.
            assert_eq!(
                router.route(&req(9, 10, 10), tracker.loads(), &all),
                ReplicaId(1)
            );
        }

        #[test]
        fn ties_break_to_lowest_replica() {
            let mut router = RouterPolicy::JoinShortestQueue.build();
            let tracker = FleetLoadTracker::new(4);
            let all = all_replicas(4);
            assert_eq!(
                router.route(&req(0, 10, 10), tracker.loads(), &all),
                ReplicaId(0)
            );
        }

        #[test]
        fn unhealthy_replicas_are_excluded_even_when_emptiest() {
            let mut router = RouterPolicy::JoinShortestQueue.build();
            let mut tracker = FleetLoadTracker::new(3);
            // Replica 0 is idle (global argmin) but unhealthy; among the
            // candidates, 2 is lighter than 1.
            tracker.on_assign(ReplicaId(1), &req(0, 1_000, 64));
            tracker.on_assign(ReplicaId(2), &req(1, 100, 64));
            assert_eq!(
                router.route(
                    &req(9, 10, 10),
                    tracker.loads(),
                    &[ReplicaId(1), ReplicaId(2)]
                ),
                ReplicaId(2)
            );
            // Candidate ties break towards the lowest *candidate* id.
            let idle = FleetLoadTracker::new(3);
            assert_eq!(
                router.route(
                    &req(10, 10, 10),
                    idle.loads(),
                    &[ReplicaId(1), ReplicaId(2)]
                ),
                ReplicaId(1)
            );
        }
    }
}

#[cfg(test)]
mod least_kv {
    mod tests {
        use crate::router::tests::req;
        use crate::router::*;

        #[test]
        fn ignores_output_bounds_when_comparing_load() {
            let mut router = RouterPolicy::LeastKvLoad.build();
            let mut tracker = FleetLoadTracker::new(2);
            let all = all_replicas(2);
            // Replica 0: small prompt, huge declared output (heavy queue, light
            // KV). Replica 1: large prompt, tiny output (light queue, heavy KV).
            tracker.on_assign(ReplicaId(0), &req(0, 100, 60_000));
            tracker.on_assign(ReplicaId(1), &req(1, 50_000, 64));
            // JSQ would pick replica 1; least-KV must pick replica 0.
            assert_eq!(
                router.route(&req(2, 10, 10), tracker.loads(), &all),
                ReplicaId(0)
            );
        }

        #[test]
        fn unhealthy_replicas_are_excluded_even_when_emptiest() {
            let mut router = RouterPolicy::LeastKvLoad.build();
            let mut tracker = FleetLoadTracker::new(3);
            // Replica 0 holds no KV (global argmin) but is unhealthy; among the
            // candidates, replica 2 holds less.
            tracker.on_assign(ReplicaId(1), &req(0, 10_000, 64));
            tracker.on_assign(ReplicaId(2), &req(1, 100, 64));
            assert_eq!(
                router.route(
                    &req(9, 10, 10),
                    tracker.loads(),
                    &[ReplicaId(1), ReplicaId(2)]
                ),
                ReplicaId(2)
            );
            // Candidate ties break towards the lowest *candidate* id.
            let idle = FleetLoadTracker::new(3);
            assert_eq!(
                router.route(
                    &req(10, 10, 10),
                    idle.loads(),
                    &[ReplicaId(1), ReplicaId(2)]
                ),
                ReplicaId(1)
            );
        }
    }
}

#[cfg(test)]
mod p2c {
    mod tests {
        use crate::router::tests::req;
        use crate::router::*;

        fn p2c(seed: u64) -> Router {
            RouterPolicy::PowerOfTwoChoices { seed }.build()
        }

        #[test]
        fn identical_seeds_probe_identically() {
            let tracker = FleetLoadTracker::new(8);
            let all = all_replicas(8);
            let route_all = |seed: u64| -> Vec<u64> {
                let mut router = p2c(seed);
                (0..64)
                    .map(|i| router.route(&req(i, 100, 10), tracker.loads(), &all).raw())
                    .collect()
            };
            assert_eq!(route_all(42), route_all(42));
            assert_ne!(route_all(42), route_all(43), "seeds must matter");
        }

        #[test]
        fn prefers_the_less_loaded_probe() {
            let mut tracker = FleetLoadTracker::new(2);
            let all = all_replicas(2);
            // With two replicas the probe pair is always {0, 1}.
            tracker.on_assign(ReplicaId(0), &req(0, 10_000, 64));
            let mut router = p2c(7);
            for i in 0..16 {
                assert_eq!(
                    router.route(&req(i, 10, 10), tracker.loads(), &all),
                    ReplicaId(1)
                );
            }
        }

        #[test]
        fn probe_tie_breaks_to_lower_replica_id() {
            let tracker = FleetLoadTracker::new(2);
            let all = all_replicas(2);
            let mut router = p2c(11);
            // All loads are zero, so every probe pair ties; with two replicas
            // the pair is {0, 1} and the lower id must always win.
            for i in 0..16 {
                assert_eq!(
                    router.route(&req(i, 10, 10), tracker.loads(), &all),
                    ReplicaId(0)
                );
            }
        }

        #[test]
        fn single_replica_needs_no_draws() {
            let tracker = FleetLoadTracker::new(1);
            let all = all_replicas(1);
            let mut router = p2c(3);
            assert_eq!(
                router.route(&req(0, 10, 10), tracker.loads(), &all),
                ReplicaId(0)
            );
        }

        #[test]
        fn probes_never_land_on_excluded_replicas() {
            let tracker = FleetLoadTracker::new(4);
            let healthy = [ReplicaId(1), ReplicaId(3)];
            let mut router = p2c(5);
            // Probes are indices into the candidate slice, so replicas 0 and 2
            // are unreachable no matter what the RNG draws; all loads tie, so
            // the lower candidate id wins every time.
            for i in 0..32 {
                assert_eq!(
                    router.route(&req(i, 10, 10), tracker.loads(), &healthy),
                    ReplicaId(1)
                );
            }
        }

        #[test]
        fn single_candidate_keeps_probe_stream_aligned() {
            // A decision over one candidate must not consume RNG draws: the
            // probe sequence after the degenerate call matches a router that
            // never saw it.
            let tracker = FleetLoadTracker::new(4);
            let all = all_replicas(4);
            let mut skipped = p2c(9);
            let mut fresh = p2c(9);
            assert_eq!(
                skipped.route(&req(0, 10, 10), tracker.loads(), &[ReplicaId(2)]),
                ReplicaId(2)
            );
            for i in 1..32 {
                assert_eq!(
                    skipped.route(&req(i, 10, 10), tracker.loads(), &all),
                    fresh.route(&req(i, 10, 10), tracker.loads(), &all)
                );
            }
        }
    }
}

#[cfg(test)]
mod affinity {
    mod tests {
        use crate::router::tests::req;
        use crate::router::*;

        fn conv_req(id: u64, input: u64, conversation: u64) -> RouteRequest {
            RouteRequest {
                conversation: Some(ConversationId(conversation)),
                ..req(id, input, 64)
            }
        }

        /// Number of conversations with a pinned replica.
        fn pinned(router: &Router) -> usize {
            match router {
                Router::PrefixAffinity { pins } => pins.len(),
                other => panic!("not an affinity router: {other:?}"),
            }
        }

        #[test]
        fn follow_ups_stick_to_the_first_turn_replica() {
            let mut router = RouterPolicy::PrefixAffinity.build();
            let mut tracker = FleetLoadTracker::new(2);
            let all = all_replicas(2);
            // Turn 0 of conversation 7 lands on the emptiest replica (0).
            let first = conv_req(0, 1_000, 7);
            let r0 = router.route(&first, tracker.loads(), &all);
            assert_eq!(r0, ReplicaId(0));
            tracker.on_assign(r0, &first);
            // Load replica 0 heavily: a fresh conversation prefers replica 1...
            tracker.on_assign(ReplicaId(0), &req(1, 500_000, 64));
            assert_eq!(
                router.route(&conv_req(2, 1_000, 8), tracker.loads(), &all),
                ReplicaId(1)
            );
            // ...but conversation 7's follow-up still goes to replica 0, where
            // its prefix is retained.
            assert_eq!(
                router.route(&conv_req(3, 3_000, 7), tracker.loads(), &all),
                ReplicaId(0)
            );
            assert_eq!(pinned(&router), 2);
        }

        #[test]
        fn untagged_requests_fall_back_to_least_kv() {
            let mut router = RouterPolicy::PrefixAffinity.build();
            let mut tracker = FleetLoadTracker::new(2);
            let all = all_replicas(2);
            tracker.on_assign(ReplicaId(0), &req(0, 50_000, 64));
            assert_eq!(
                router.route(&req(1, 10, 10), tracker.loads(), &all),
                ReplicaId(1)
            );
            assert_eq!(pinned(&router), 0);
        }

        #[test]
        fn retired_pin_is_dropped_and_does_not_resurrect_cold() {
            let mut router = RouterPolicy::PrefixAffinity.build();
            let mut tracker = FleetLoadTracker::new(3);
            let all = all_replicas(3);
            // Conversation 5 pins to replica 0 (emptiest), 7 to replica 1.
            let first = conv_req(0, 2_000, 5);
            assert_eq!(router.route(&first, tracker.loads(), &all), ReplicaId(0));
            tracker.on_assign(ReplicaId(0), &first);
            let r = conv_req(1, 1_000, 7);
            assert_eq!(router.route(&r, tracker.loads(), &all), ReplicaId(1));
            tracker.on_assign(ReplicaId(1), &r);
            assert_eq!(pinned(&router), 2);

            // Replica 0 drains and retires: its pin must be dropped durably,
            // pins to other replicas untouched.
            router.on_replica_removed(ReplicaId(0));
            assert_eq!(pinned(&router), 1);

            // The id later re-activates as a *cold* replica with an empty pool
            // and zero tracked load. Without the removal hook, the stale pin
            // would be "routable" again and send the follow-up to a pool that
            // holds nothing; with it, the conversation re-pins by least-KV —
            // which is the cold replica on merit (emptiest), and durably so.
            let mut cold = FleetLoadTracker::new(3);
            cold.on_assign(ReplicaId(1), &req(90, 50_000, 64));
            cold.on_assign(ReplicaId(2), &req(91, 40_000, 64));
            let follow_up = conv_req(3, 4_000, 5);
            let repinned = router.route(&follow_up, cold.loads(), &all);
            assert_eq!(repinned, ReplicaId(0), "re-pin is by load, not stale state");
            assert_eq!(pinned(&router), 2);
            // Conversation 7's pin to replica 1 survived the removal.
            assert_eq!(
                router.route(&conv_req(4, 1_000, 7), cold.loads(), &all),
                ReplicaId(1)
            );
        }

        #[test]
        fn crashed_pin_re_pins_to_a_healthy_candidate() {
            let mut router = RouterPolicy::PrefixAffinity.build();
            let mut tracker = FleetLoadTracker::new(3);
            let all = all_replicas(3);
            // Conversation 5 pins to replica 0.
            let first = conv_req(0, 2_000, 5);
            assert_eq!(router.route(&first, tracker.loads(), &all), ReplicaId(0));
            tracker.on_assign(ReplicaId(0), &first);
            // Replica 0 crashes: the follow-up must re-pin among {1, 2}; with
            // replica 2 lighter in KV, it wins over the old pin *and* over the
            // lower-id healthy replica.
            tracker.on_assign(ReplicaId(1), &req(1, 9_000, 64));
            let healthy = [ReplicaId(1), ReplicaId(2)];
            assert_eq!(
                router.route(&conv_req(2, 2_000, 5), tracker.loads(), &healthy),
                ReplicaId(2)
            );
            // The re-pin is durable: once replica 0 recovers (empty pool), the
            // conversation stays with replica 2, which now holds its prefix.
            assert_eq!(
                router.route(&conv_req(3, 2_000, 5), tracker.loads(), &all),
                ReplicaId(2)
            );
            assert_eq!(pinned(&router), 1);
        }
    }
}
