//! Shared digest machinery for the golden determinism suites.
//!
//! Both `tests/determinism_golden.rs` (single engine) and
//! `tests/fleet_equivalence.rs` (fleet tier) pin 64-bit digests of complete
//! outcomes. The field walks live here, once: when `RunOutcome` or
//! `FleetOutcome` grows a field, extending [`outcome_digest`] or
//! [`fleet_digest`] updates **every** golden suite at the same time, so no
//! suite can silently keep pinning the old shape.
//!
//! Included into each test binary via `#[path = "golden_util.rs"]`. Every
//! pinned digest lives here too, once: the single-engine table
//! [`ENGINE_GOLDENS`] and the fleet goldens, because several suites pin
//! their run paths to the same constants. Each suite uses a different
//! subset of the helpers, so unused-item lints are silenced per-binary
//! here.
#![allow(dead_code)]

use loongserve::prelude::*;

/// FNV-1a over a stream of u64 words.
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn time(&mut self, t: SimTime) {
        self.word(t.as_secs().to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(b as u64);
        }
    }

    /// Folds every field of a [`RunOutcome`] into the digest.
    pub fn outcome(&mut self, outcome: &RunOutcome) {
        self.word(outcome.records.len() as u64);
        for r in &outcome.records {
            self.word(r.id.raw());
            self.time(r.arrival);
            self.word(r.input_len);
            self.word(r.output_len);
            self.time(r.prefill_start);
            self.time(r.first_token);
            self.time(r.finish);
            self.word(r.preemptions as u64);
        }
        self.word(outcome.rejected.len() as u64);
        for (id, reason) in &outcome.rejected {
            self.word(id.raw());
            self.str(reason);
        }
        self.word(outcome.unfinished as u64);
        self.word(outcome.scaling_events.len() as u64);
        for e in &outcome.scaling_events {
            self.time(e.at);
            self.word(e.delta_instances as u64);
        }
        self.time(outcome.sim_time);
        self.word(outcome.iterations);
        self.word(outcome.migration_bytes.to_bits());
        self.word(outcome.scheduler_calls);
        // The pressure block participates only when the run actually
        // experienced pressure: an unpressured run must keep reproducing
        // the pre-subsystem digests bit for bit (the zero-cost-when-
        // disabled invariant the golden constants pin), while pressured
        // runs still pin every counter.
        if !outcome.pressure.is_zero() {
            self.word(outcome.pressure.preemptions);
            self.word(outcome.pressure.swap_out_events);
            self.word(outcome.pressure.swap_in_events);
            self.word(outcome.pressure.swap_out_bytes.to_bits());
            self.word(outcome.pressure.swap_in_bytes.to_bits());
            self.word(outcome.pressure.swap_stall_s.to_bits());
            self.word(outcome.pressure.max_outstanding_swapped_tokens);
        }
        // Same contract for the prefix-cache block: cache-off (and
        // never-hit) runs keep reproducing the pre-tier digests bit for
        // bit, while cache-active runs pin every counter. `prefilled_tokens`
        // is deliberately not folded on the zero-cache path: it is fully
        // determined by the iteration stream the digest already pins, and
        // folding it unconditionally would invalidate the pinned constants
        // without adding discrimination.
        if !outcome.cache.is_zero() {
            self.word(outcome.cache.lookups);
            self.word(outcome.cache.hits);
            self.word(outcome.cache.reused_tokens);
            self.word(outcome.cache.saved_prefill_s.to_bits());
            self.word(outcome.cache.evicted_entries);
            self.word(outcome.cache.evicted_tokens);
            self.word(outcome.cache.retained_tokens_high_water);
            self.word(outcome.prefilled_tokens);
        }
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

/// A bit-for-bit digest of everything in a [`RunOutcome`].
pub fn outcome_digest(outcome: &RunOutcome) -> u64 {
    let mut d = Digest::new();
    d.outcome(outcome);
    d.0
}

/// A bit-for-bit digest of everything in a [`FleetOutcome`]: assignments,
/// per-replica outcomes, merged records and counters.
pub fn fleet_digest(outcome: &FleetOutcome) -> u64 {
    let mut d = Digest::new();
    d.word(outcome.assignments.len() as u64);
    for &(id, replica) in &outcome.assignments {
        d.word(id.raw());
        d.word(replica.raw());
    }
    d.word(outcome.per_replica.len() as u64);
    for r in &outcome.per_replica {
        d.word(r.replica.raw());
        d.word(r.assigned as u64);
        d.outcome(&r.outcome);
    }
    d.word(outcome.records.len() as u64);
    for r in &outcome.records {
        d.word(r.id.raw());
        d.time(r.finish);
    }
    d.word(outcome.rejected.len() as u64);
    d.word(outcome.unfinished as u64);
    d.time(outcome.sim_time);
    d.word(outcome.iterations);
    d.word(outcome.migration_bytes.to_bits());
    d.word(outcome.scheduler_calls);
    d.0
}

/// A single-engine run recipe: a trace and the settings the system under
/// test runs it with. Together the scenarios reach every system's
/// rejection, admission, memory-pressure, prefix-cache and two-node paths.
#[derive(Debug, Clone, Copy)]
pub enum Scenario {
    /// ShareGPT at 6 req/s, 80 requests, seed 4242, on the paper node.
    ShareGpt,
    /// Mixed at 0.8 req/s, 40 requests, seed 77, on the paper node.
    Mixed,
    /// `Mixed` with every instance cut to 100,000 KV slots: every system
    /// rejects a few of its longest requests.
    MixedTight,
    /// 30 multi-turn ShareGPT conversations (109 requests) at 2
    /// conversations/s, seed 7, with the default prefix cache.
    MultiTurnPrefix,
    /// ShareGPT at 20 req/s, 120 requests, seed 5, on 6,000-slot instances
    /// under the given pressure mode.
    Pressured(PressureMode),
    /// `Mixed` on the paper's two-node testbed.
    TwoNodeMixed,
}

impl Scenario {
    /// The trace this scenario serves.
    pub fn trace(self) -> Trace {
        let dataset =
            |kind, rate, count, seed| WorkloadSpec::Dataset(kind).generate(rate, count, seed);
        match self {
            Scenario::ShareGpt => dataset(DatasetKind::ShareGpt, 6.0, 80, 4242),
            Scenario::Mixed | Scenario::MixedTight | Scenario::TwoNodeMixed => {
                dataset(DatasetKind::Mixed, 0.8, 40, 77)
            }
            Scenario::MultiTurnPrefix => Trace::generate_multi_turn(
                DatasetKind::ShareGpt,
                &MultiTurnProfile::sharegpt(),
                ArrivalProcess::Poisson { rate: 2.0 },
                30,
                &mut SimRng::seed(7),
            ),
            Scenario::Pressured(_) => dataset(DatasetKind::ShareGpt, 20.0, 120, 5),
        }
    }

    /// `kind` configured the way this scenario runs it.
    pub fn system(self, kind: SystemKind) -> SystemUnderTest {
        let node = SystemUnderTest::paper_single_node(kind);
        match self {
            Scenario::ShareGpt | Scenario::Mixed => node,
            Scenario::MixedTight => node.with_kv_capacity(100_000),
            Scenario::MultiTurnPrefix => node.with_prefix_cache(),
            Scenario::Pressured(mode) => node.with_kv_capacity(6_000).with_pressure(mode),
            Scenario::TwoNodeMixed => SystemUnderTest::paper_two_node(kind),
        }
    }
}

/// One pinned single-engine golden: a system, the scenario it runs, and
/// the digest of its [`RunOutcome`].
#[derive(Debug, Clone, Copy)]
pub struct EngineGolden {
    pub system: SystemKind,
    pub scenario: Scenario,
    pub digest: u64,
}

impl EngineGolden {
    /// The name a failure or `GOLDEN_PRINT` reports, e.g.
    /// `Vllm on MixedTight`.
    pub fn label(&self) -> String {
        format!("{:?} on {:?}", self.system, self.scenario)
    }

    /// The golden's trace and its configured system under test.
    pub fn setup(&self) -> (Trace, SystemUnderTest) {
        (self.scenario.trace(), self.scenario.system(self.system))
    }

    /// Checks `actual` against the pinned digest; with `GOLDEN_PRINT` set
    /// it prints the digest instead.
    pub fn check(&self, actual: u64) {
        let (label, expected) = (self.label(), self.digest);
        if std::env::var("GOLDEN_PRINT").is_ok() {
            println!("GOLDEN {label} = 0x{actual:016x}");
            return;
        }
        assert_eq!(
            actual, expected,
            "{label}: RunOutcome digest changed: expected 0x{expected:016x}, got 0x{actual:016x}. \
             Refactors must be bit-for-bit neutral; re-capture with GOLDEN_PRINT=1 only for \
             intentional behaviour changes."
        );
    }
}

const fn pin(system: SystemKind, scenario: Scenario, digest: u64) -> EngineGolden {
    EngineGolden {
        system,
        scenario,
        digest,
    }
}

// The first three were captured from the pre-refactor engine (HashMap
// states + full-scan view rebuild) at commit a66a012; the rest at commit
// 30dbdf6, from the four separate baseline schedulers before they became
// one. Re-capture only for intentional behaviour changes:
//   GOLDEN_PRINT=1 cargo test --test determinism_golden -- --nocapture
pub const LOONGSERVE_SHAREGPT: EngineGolden = pin(
    SystemKind::LoongServe,
    Scenario::ShareGpt,
    0x313d_174f_011c_a40b,
);
pub const LOONGSERVE_MIXED: EngineGolden = pin(
    SystemKind::LoongServe,
    Scenario::Mixed,
    0xe045_5f8a_c734_c8e8,
);
pub const VLLM_SHAREGPT: EngineGolden =
    pin(SystemKind::Vllm, Scenario::ShareGpt, 0x9fe5_405f_ae70_e47a);

/// Every single-engine golden.
pub const ENGINE_GOLDENS: &[EngineGolden] = {
    use PressureMode::{Recompute, SwapToHost};
    use Scenario::*;
    use SystemKind::*;
    &[
        LOONGSERVE_SHAREGPT,
        LOONGSERVE_MIXED,
        VLLM_SHAREGPT,
        pin(LoongServeNoScaleUp, ShareGpt, 0x313d_174f_011c_a40b),
        pin(DeepSpeedMii, ShareGpt, 0x28d7_1d78_74b5_922b),
        pin(LightLlmSplitFuse, ShareGpt, 0x5cfc_cd3c_a837_08a7),
        pin(DistServe, ShareGpt, 0x2d78_7221_dc58_90a6),
        pin(StaticHybrid, ShareGpt, 0x5203_b8b0_e4e2_11b6),
        pin(Replicated, ShareGpt, 0x1663_6fef_cffc_c934),
        pin(LoongServe, MixedTight, 0x472d_314b_6c55_8d27),
        pin(LoongServeNoScaleUp, MixedTight, 0x059b_a6aa_4cdf_6a79),
        pin(Vllm, MixedTight, 0x64ab_ee00_2acf_982b),
        pin(DeepSpeedMii, MixedTight, 0xd851_de76_f7a5_e419),
        pin(LightLlmSplitFuse, MixedTight, 0x288f_5ead_af73_eb65),
        pin(DistServe, MixedTight, 0x4a7d_394d_08c0_ae85),
        pin(StaticHybrid, MixedTight, 0x027b_ca0f_6f7a_93ce),
        pin(Replicated, MixedTight, 0xacc1_d11b_7f39_49b9),
        pin(LoongServe, MultiTurnPrefix, 0x2aa9_4f3a_3474_1e1f),
        pin(LoongServeNoScaleUp, MultiTurnPrefix, 0x2aa9_4f3a_3474_1e1f),
        pin(Vllm, MultiTurnPrefix, 0x7c24_d1eb_29c5_483e),
        pin(DeepSpeedMii, MultiTurnPrefix, 0xb07d_fef0_4e5a_3951),
        pin(LightLlmSplitFuse, MultiTurnPrefix, 0xbb26_0937_4643_e2f7),
        pin(DistServe, MultiTurnPrefix, 0x4d16_fd8e_82f0_59f6),
        pin(StaticHybrid, MultiTurnPrefix, 0xaeb5_0595_61e0_f848),
        pin(Replicated, MultiTurnPrefix, 0xdd92_7f91_d143_fe58),
        pin(Vllm, Pressured(Recompute), 0xc1d8_cff7_5d70_97c8),
        pin(Vllm, Pressured(SwapToHost), 0xa464_67d1_399e_e938),
        pin(Replicated, Pressured(Recompute), 0x6ce4_1d9b_7ffa_ac73),
        pin(Replicated, Pressured(SwapToHost), 0x9b98_86d3_6127_8d55),
        pin(Vllm, TwoNodeMixed, 0x383d_7754_5cfc_b016),
        pin(LightLlmSplitFuse, TwoNodeMixed, 0x922b_fbd4_6423_cc2c),
        pin(DistServe, TwoNodeMixed, 0x0b14_47dc_a4a8_c61e),
        pin(StaticHybrid, TwoNodeMixed, 0xe9b6_0277_c440_ecac),
        pin(Replicated, TwoNodeMixed, 0xc653_2e45_d7d2_7175),
    ]
};

/// One pinned fleet golden: a ShareGPT trace recipe, the fleet it runs on,
/// and the digest of its outcome. The constants below are shared by every
/// suite that pins a fleet tier to them (`fleet_equivalence`,
/// `reliability_properties`, `elasticity_properties`), so the suites cannot
/// drift apart.
pub struct FleetGolden {
    pub label: &'static str,
    pub replicas: usize,
    pub policy: RouterPolicy,
    pub rate: f64,
    pub digest: u64,
}

// Captured at fleet-tier introduction. Re-capture only for intentional
// behaviour changes:
//   GOLDEN_PRINT=1 cargo test --test fleet_equivalence -- --nocapture
pub const FLEET_2X_ROUND_ROBIN: FleetGolden = FleetGolden {
    label: "fleet_2x_round_robin",
    replicas: 2,
    policy: RouterPolicy::RoundRobin,
    rate: 12.0,
    digest: 0xb4a0_4cc9_72b0_c57f,
};
pub const FLEET_4X_JSQ: FleetGolden = FleetGolden {
    label: "fleet_4x_jsq",
    replicas: 4,
    policy: RouterPolicy::JoinShortestQueue,
    rate: 24.0,
    digest: 0x3598_362b_d2d5_f0d0,
};
pub const FLEET_4X_P2C: FleetGolden = FleetGolden {
    label: "fleet_4x_p2c",
    replicas: 4,
    policy: RouterPolicy::PowerOfTwoChoices { seed: 0x90f1ee7 },
    rate: 24.0,
    digest: 0x922d_41e0_3abc_c691,
};

/// Runs `golden`'s 80-request ShareGPT trace on a LoongServe fleet under
/// `plan`, which must be idle (no failure, scaling or shedding can fire),
/// and checks the digest plus the ledgers an idle plan must leave clean.
/// With `GOLDEN_PRINT` set it prints the digest instead of checking.
pub fn check_fleet_golden(golden: &FleetGolden, plan_label: &str, plan: &FleetPlan) {
    let n = golden.replicas;
    let trace = WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(golden.rate, 80, 4242);
    let mut fleet = FleetEngine::new(FleetConfig::paper_fleet(
        SystemKind::LoongServe,
        n,
        golden.policy,
    ));
    let run = fleet
        .run(TraceStream::from_trace(trace), plan, None)
        .expect("valid plan");
    let (label, expected, actual) = (golden.label, golden.digest, fleet_digest(&run.fleet));
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("GOLDEN {label} ({plan_label}) = 0x{actual:016x}");
        return;
    }
    assert_eq!(
        actual, expected,
        "{label} ({plan_label}): FleetOutcome digest changed: expected 0x{expected:016x}, \
         got 0x{actual:016x}. Router/merge refactors must be bit-for-bit neutral; \
         re-capture with GOLDEN_PRINT=1 only for intentional behaviour changes."
    );
    assert_eq!(run.total_requests(), 80, "{plan_label}");
    assert!(run.failed.is_empty() && run.shed.is_empty(), "{plan_label}");
    assert!(run.scale_events.is_empty(), "{plan_label}");
    assert!(run.reliability.is_zero(), "{plan_label}");
    let elasticity = run.elasticity;
    assert_eq!(elasticity.scale_up_events + elasticity.scale_down_events, 0);
    assert_eq!(elasticity.min_active_replicas, n as u64, "{plan_label}");
    assert_eq!(elasticity.max_active_replicas, n as u64, "{plan_label}");
    assert!(elasticity.replica_seconds > 0.0, "{plan_label}");
    assert!(!run.sla_windows.is_empty(), "{plan_label}");
    for window in &run.sla_windows {
        assert_eq!(
            window.success_ratio(),
            1.0,
            "{plan_label}: idle, perfect windows"
        );
    }
}
