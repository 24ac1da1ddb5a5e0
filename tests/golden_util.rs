//! Shared digest machinery for the golden determinism suites.
//!
//! Both `tests/determinism_golden.rs` (single engine) and
//! `tests/fleet_equivalence.rs` (fleet tier) pin 64-bit digests of complete
//! outcomes. The field walks live here, once: when `RunOutcome` or
//! `FleetOutcome` grows a field, extending [`outcome_digest`] or
//! [`fleet_digest`] updates **every** golden suite at the same time, so no
//! suite can silently keep pinning the old shape.
//!
//! Included into each test binary via `#[path = "golden_util.rs"]`. The
//! single-engine constants stay in their suites; the fleet goldens live
//! here because three suites pin fleet tiers to them. Each suite uses a
//! different subset of the helpers, so unused-item lints are silenced
//! per-binary here.
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
