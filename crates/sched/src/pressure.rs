//! Memory-pressure policies: watermarks, victim selection, re-admission.
//!
//! With ample KV memory the schedulers reserve a request's full declared
//! output up front and pressure never occurs. Production serving cannot
//! afford that: declared bounds are loose, so real systems admit
//! optimistically and handle the (rare) exhaustion by trading memory for
//! something else — vLLM-style engines preempt a victim and *recompute* its
//! KV later, while a system with a host tier *swaps* the victim's KV to DRAM
//! over PCIe and restores it without recompute. This module implements both
//! policies behind one [`PressureConfig`]:
//!
//! * **Watermarks.** When device utilisation exceeds `high_watermark`, the
//!   policy evicts victims until projected utilisation drops to
//!   `low_watermark`; admission of new prefills pauses while above the high
//!   mark. When utilisation falls below the low mark, swapped requests are
//!   re-admitted one per scheduling point.
//! * **Victim selection** is deterministic and admission-rank-ordered: the
//!   decode-ready list is walked from the *newest* admission backwards
//!   (vLLM's preemption order), and the oldest decode-ready request is never
//!   evicted — the exemption that guarantees global progress, because the
//!   oldest request always runs to completion.
//! * **Fallback.** Under the swap policy, victims that do not fit on the
//!   host tier are preempted instead, so a saturated host degrades into the
//!   recompute policy rather than a livelock.
//!
//! The module only *selects*; the engine executes the returned actions,
//! mutates the pool, and charges PCIe transfer time.

use crate::types::{Action, SchedulerView};
use serde::{Deserialize, Serialize};

/// What to do with a victim's KV cache under pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PressurePolicy {
    /// Discard the KV and recompute the request from its prompt later (the
    /// vLLM-style baseline behaviour, paper §7).
    Recompute,
    /// Park the KV on the host-DRAM tier and restore it once pressure
    /// clears (no recompute; pays PCIe transfer time instead).
    SwapToHost,
}

/// Tunables of the memory-pressure subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PressureConfig {
    /// The victim policy.
    pub policy: PressurePolicy,
    /// Device utilisation above which victims are evicted and admission
    /// pauses.
    pub high_watermark: f64,
    /// Eviction frees down to this utilisation; swapped requests re-admit
    /// below it.
    pub low_watermark: f64,
    /// Fraction of a request's declared output bound reserved at admission.
    /// `1.0` reproduces the conservative no-pressure reservation; `0.0` is
    /// fully optimistic admission (prompt plus one token), which is what
    /// makes pressure reachable in the first place.
    pub output_reserve_factor: f64,
}

impl PressureConfig {
    /// The preempt-and-recompute policy with default watermarks (90% high,
    /// 75% low) and fully optimistic admission.
    pub fn recompute() -> Self {
        PressureConfig {
            policy: PressurePolicy::Recompute,
            high_watermark: 0.90,
            low_watermark: 0.75,
            output_reserve_factor: 0.0,
        }
    }

    /// The swap-to-host policy with default watermarks and fully optimistic
    /// admission.
    pub fn swap_to_host() -> Self {
        PressureConfig {
            policy: PressurePolicy::SwapToHost,
            high_watermark: 0.90,
            low_watermark: 0.75,
            output_reserve_factor: 0.0,
        }
    }

    /// Validates the watermark ordering and ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0 < self.low_watermark && self.low_watermark <= self.high_watermark) {
            return Err(format!(
                "watermarks must satisfy 0 < low <= high, got low={} high={}",
                self.low_watermark, self.high_watermark
            ));
        }
        if self.high_watermark > 1.0 {
            return Err(format!(
                "high watermark must be <= 1, got {}",
                self.high_watermark
            ));
        }
        if !(0.0..=1.0).contains(&self.output_reserve_factor) {
            return Err(format!(
                "output reserve factor must be in [0, 1], got {}",
                self.output_reserve_factor
            ));
        }
        Ok(())
    }

    /// Returns true if admission of new prefills should pause: utilisation
    /// at or above the *low* watermark. Admission stopping a band below
    /// eviction is what gives resident decoders growth headroom — pausing
    /// only at the high mark would let every admission round refill the
    /// pool to the eviction threshold and thrash.
    pub fn admission_paused(&self, view: &SchedulerView<'_>) -> bool {
        view.kv_utilization() >= self.low_watermark
    }

    /// KV slots one admission round may commit: enough to bring utilisation
    /// up to the low watermark and no further. Without this cap a single
    /// prefill round fills the whole free pool, overshooting the eviction
    /// threshold in one step and thrashing its own admissions back out.
    pub fn admission_budget(&self, view: &SchedulerView<'_>) -> u64 {
        let capacity = view.pool.total_capacity();
        let target = (self.low_watermark * capacity as f64).floor() as u64;
        // Active used only: retained prefixes are reclaimable, so they
        // must not consume admission headroom (see
        // [`SchedulerView::kv_utilization`]).
        target.saturating_sub(view.pool.active_used())
    }
}

/// KV slots to reserve at admission for a pending request: the prompt,
/// `output_reserve_factor` of the declared output bound, and at least one
/// slot for the first generated token. At factor 1.0 no admitted request
/// can be forced out by its own decode growth (§5.1); below it, eviction
/// becomes the pressure policies' problem.
pub fn admission_reserve(input_len: u64, max_output_len: u64, output_reserve_factor: f64) -> u64 {
    let output = (max_output_len as f64 * output_reserve_factor).ceil() as u64;
    input_len + output.max(1)
}

/// Computes the pressure actions for the current scheduling point: victim
/// evictions while above the high watermark, one swap-in re-admission while
/// below the low watermark. Returns an empty list whenever utilisation sits
/// between the watermarks (or no eligible victim/returnee exists), so an
/// unpressured run emits no actions at all.
///
/// Suitable for schedulers over the *unified* pool, whose decode can route
/// around a single full instance; locality-constrained schedulers (the
/// independent baselines) should use
/// [`pressure_actions_with_rescue`] instead.
pub fn pressure_actions(view: &SchedulerView<'_>, config: &PressureConfig) -> Vec<Action> {
    pressure_actions_impl(view, config, false)
}

/// Like [`pressure_actions`], plus the full-instance stall rescue needed by
/// locality-constrained schedulers: each request decodes only on the single
/// instance holding its KV, so an instance with zero free slots can never
/// append another token — even while pool-global utilisation sits below the
/// watermarks (skewed growth across per-instance pools). For each full
/// instance the newest decode-ready resident is evicted; the globally
/// oldest request stays exempt so the progress argument holds.
pub fn pressure_actions_with_rescue(
    view: &SchedulerView<'_>,
    config: &PressureConfig,
) -> Vec<Action> {
    pressure_actions_impl(view, config, true)
}

fn pressure_actions_impl(
    view: &SchedulerView<'_>,
    config: &PressureConfig,
    rescue: bool,
) -> Vec<Action> {
    let capacity = view.pool.total_capacity();
    if capacity == 0 {
        return Vec::new();
    }
    // Active used only: a pool crowded by reclaimable retained prefixes is
    // not under pressure — evicting active decodes to make room for a
    // cache would be backwards.
    let used = view.pool.active_used();
    let utilization = used as f64 / capacity as f64;
    let mut actions = Vec::new();
    let mut victims: Vec<loong_simcore::ids::RequestId> = Vec::new();
    let mut host_free = view.host_free_slots();
    // Evicts one victim per the configured policy, falling back from swap
    // to preemption when the host tier cannot take it.
    let evict = |d: &crate::types::DecodingRequest,
                 tokens: u64,
                 host_free: &mut u64,
                 actions: &mut Vec<Action>| {
        match config.policy {
            PressurePolicy::SwapToHost if tokens <= *host_free => {
                *host_free -= tokens;
                actions.push(Action::SwapOut { request: d.id });
            }
            // Recompute policy, or a host tier too full to take the
            // victim: discard and recompute.
            _ => actions.push(Action::Preempt { request: d.id }),
        }
    };

    if utilization > config.high_watermark {
        // Evict newest-first down to the low watermark, exempting the
        // oldest decode-ready request (index 0) so the run always makes
        // progress.
        let target_used = (config.low_watermark * capacity as f64).floor() as u64;
        let mut need = used.saturating_sub(target_used);
        for d in view.decoding.iter().skip(1).rev() {
            if need == 0 {
                break;
            }
            let tokens = view.pool.tokens_of(d.id);
            if tokens == 0 {
                continue;
            }
            evict(d, tokens, &mut host_free, &mut actions);
            victims.push(d.id);
            need = need.saturating_sub(tokens);
        }
    }

    // Stall rescue, independent of the global watermarks (see
    // [`pressure_actions_with_rescue`]).
    if rescue {
        let oldest = view.decoding.first().map(|d| d.id);
        for (inst, free) in view.pool.free_slots() {
            // An instance whose only congestion is reclaimable retained
            // prefixes is not stalled: the engine evicts them the moment a
            // decode append needs the slot.
            if free + view.pool.prefix_retained_on(inst) > 0 {
                continue;
            }
            if let Some(d) = view.decoding.iter().rev().find(|d| {
                Some(d.id) != oldest
                    && !victims.contains(&d.id)
                    && view.pool.tokens_on(d.id, inst) > 0
            }) {
                let tokens = view.pool.tokens_of(d.id);
                if tokens == 0 {
                    continue;
                }
                evict(d, tokens, &mut host_free, &mut actions);
                victims.push(d.id);
            }
        }
    }

    if actions.is_empty() && utilization < config.low_watermark {
        // Re-admit the oldest swapped request, one per scheduling point,
        // when it fits below the high watermark (or unconditionally into an
        // empty pool, so oversized requests can always return eventually).
        if let Some(&request) = view.swapped.first() {
            let head_used = (config.high_watermark * capacity as f64).floor() as u64;
            if used + view.pool.swapped_tokens_of(request) <= head_used || used == 0 {
                actions.push(Action::SwapIn {
                    request,
                    targets: view.registry.all_ids(),
                });
            }
        }
    }
    actions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DecodingRequest;
    use loong_cluster::topology::ClusterSpec;
    use loong_esp::instance::InstanceRegistry;
    use loong_kvcache::unified::UnifiedKvPool;
    use loong_model::config::ModelConfig;
    use loong_model::roofline::CostModel;
    use loong_model::sib::ScalingInfoBase;
    use loong_simcore::ids::{InstanceId, RequestId};
    use loong_simcore::time::SimTime;

    struct Fixture {
        registry: InstanceRegistry,
        cost_model: CostModel,
        sib: ScalingInfoBase,
        pool: UnifiedKvPool,
        decoding: Vec<DecodingRequest>,
        swapped: Vec<RequestId>,
    }

    fn fixture(capacity: u64, host: Option<u64>) -> Fixture {
        let registry = InstanceRegistry::build(&ClusterSpec::single_node_a800(8), 2);
        let mut pool = UnifiedKvPool::new(4, capacity);
        if let Some(h) = host {
            pool.enable_host_tier(h);
        }
        Fixture {
            registry,
            cost_model: CostModel::new(ModelConfig::lwm_1m_text()),
            sib: ScalingInfoBase::new(),
            pool,
            decoding: vec![],
            swapped: vec![],
        }
    }

    fn view<'a>(f: &'a Fixture) -> SchedulerView<'a> {
        SchedulerView {
            now: SimTime::ZERO,
            pending: &[],
            decoding: &f.decoding,
            swapped: &f.swapped,
            idle_instances: &[],
            pool: &f.pool,
            registry: &f.registry,
            cost_model: &f.cost_model,
            sib: &f.sib,
            avg_decode_latency_s: 0.0,
        }
    }

    /// Fills the pool with `n` decode-ready requests of `tokens` each, in
    /// admission order 0..n.
    fn load(f: &mut Fixture, n: u64, tokens: u64) {
        for i in 0..n {
            f.pool
                .append(RequestId(i), InstanceId(i % 4), tokens)
                .expect("room");
            f.decoding.push(DecodingRequest {
                id: RequestId(i),
                context_len: tokens,
                generated: 1,
                decode_time_s: 0.0,
            });
        }
    }

    #[test]
    fn no_actions_between_watermarks() {
        let mut f = fixture(1_000, Some(10_000));
        load(&mut f, 8, 400); // 3200 of 4000: 80%, between 75% and 90%
        let cfg = PressureConfig::swap_to_host();
        assert!(pressure_actions(&view(&f), &cfg).is_empty());
    }

    #[test]
    fn eviction_is_newest_first_and_exempts_the_oldest() {
        let mut f = fixture(1_000, None);
        load(&mut f, 8, 470); // 3760 of 4000: 94%
        let cfg = PressureConfig::recompute();
        let actions = pressure_actions(&view(&f), &cfg);
        // 94% -> 75% target frees 760 tokens = 2 victims (ceil), chosen
        // newest-first: requests 7, 6.
        let victims: Vec<RequestId> = actions
            .iter()
            .map(|a| match a {
                Action::Preempt { request } => *request,
                other => panic!("unexpected action {other:?}"),
            })
            .collect();
        assert_eq!(victims, vec![RequestId(7), RequestId(6)]);
    }

    #[test]
    fn swap_policy_swaps_until_host_full_then_preempts() {
        let mut f = fixture(1_000, Some(500)); // host holds one victim only
        load(&mut f, 8, 470);
        let cfg = PressureConfig::swap_to_host();
        let actions = pressure_actions(&view(&f), &cfg);
        assert!(matches!(
            actions[0],
            Action::SwapOut {
                request: RequestId(7)
            }
        ));
        // The next victim does not fit on the 500-token host: preempted.
        assert!(actions[1..]
            .iter()
            .all(|a| matches!(a, Action::Preempt { .. })));
        assert_eq!(actions.len(), 2);
    }

    #[test]
    fn the_sole_decoder_is_never_evicted() {
        let mut f = fixture(1_000, None);
        // One request spread across every instance: 3900 of 4000 = 97.5%.
        for i in 0..4u64 {
            f.pool
                .append(RequestId(0), InstanceId(i), 975)
                .expect("room");
        }
        f.decoding.push(DecodingRequest {
            id: RequestId(0),
            context_len: 3_900,
            generated: 1,
            decode_time_s: 0.0,
        });
        let cfg = PressureConfig::recompute();
        assert!(pressure_actions(&view(&f), &cfg).is_empty());
    }

    #[test]
    fn swap_in_readmits_oldest_when_pressure_clears() {
        let mut f = fixture(1_000, Some(10_000));
        load(&mut f, 2, 300); // 15% utilisation
        f.pool.swap_out(RequestId(0)).expect("host room");
        f.pool
            .append(RequestId(5), InstanceId(0), 200)
            .expect("room");
        f.pool.swap_out(RequestId(5)).expect("host room");
        f.decoding.retain(|d| d.id != RequestId(0));
        // Admission order: 0 first, then 5.
        f.swapped = vec![RequestId(0), RequestId(5)];
        let cfg = PressureConfig::swap_to_host();
        let actions = pressure_actions(&view(&f), &cfg);
        assert_eq!(actions.len(), 1, "one re-admission per scheduling point");
        assert!(matches!(
            &actions[0],
            Action::SwapIn { request, .. } if *request == RequestId(0)
        ));

        // It returns only while its parked tokens fit under the high
        // watermark: 1,000 onto 2,900 of 4,000 used slots would reach 97.5%.
        let mut g = fixture(1_000, Some(10_000));
        g.pool
            .append(RequestId(7), InstanceId(2), 1_000)
            .expect("room");
        g.pool.swap_out(RequestId(7)).expect("host room");
        for (inst, tokens) in [(0, 1_000), (1, 1_000), (3, 900)] {
            g.pool
                .append(RequestId(8), InstanceId(inst), tokens)
                .expect("room");
        }
        g.swapped = vec![RequestId(7)];
        assert!(pressure_actions(&view(&g), &cfg).is_empty());
    }

    #[test]
    fn full_instance_rescue_fires_below_the_global_watermark() {
        // Instance 0 is 100% full while the pool sits at 40% — locality-
        // constrained decodes on instance 0 could never append again, so
        // the rescue must evict its newest resident even though the global
        // watermark says all is well.
        let mut f = fixture(1_000, None);
        for (i, inst) in [(0u64, 0u64), (1, 0), (2, 1)] {
            let tokens = if inst == 0 { 500 } else { 600 };
            f.pool
                .append(RequestId(i), InstanceId(inst), tokens)
                .expect("room");
            f.decoding.push(DecodingRequest {
                id: RequestId(i),
                context_len: tokens,
                generated: 1,
                decode_time_s: 0.0,
            });
        }
        let cfg = PressureConfig::recompute();
        let actions = pressure_actions_with_rescue(&view(&f), &cfg);
        // Newest resident of the full instance 0 is request 1; request 0
        // (the globally oldest) stays exempt.
        assert_eq!(
            actions,
            vec![Action::Preempt {
                request: RequestId(1)
            }]
        );

        // With free slots everywhere, the rescue stays silent — and the
        // rescue-free variant never fires on full instances at all.
        let mut g = fixture(1_000, None);
        load(&mut g, 3, 300);
        assert!(pressure_actions_with_rescue(&view(&g), &cfg).is_empty());
        assert!(pressure_actions(&view(&f), &cfg).is_empty());
    }

    #[test]
    fn config_validation_and_reserve() {
        assert!(PressureConfig::recompute().validate().is_ok());
        assert!(PressureConfig::swap_to_host().validate().is_ok());
        let mut bad = PressureConfig::recompute();
        bad.low_watermark = 0.95;
        assert!(bad.validate().is_err());
        bad = PressureConfig::recompute();
        bad.high_watermark = 1.5;
        assert!(bad.validate().is_err());

        let factor = PressureConfig::recompute().output_reserve_factor;
        assert_eq!(admission_reserve(100, 64, factor), 101);
        assert_eq!(admission_reserve(100, 64, 0.5), 132);
        assert_eq!(admission_reserve(100, 64, 1.0), 164);
    }
}
