//! Golden determinism tests for the serving engine.
//!
//! These pin a 64-bit digest of the full [`RunOutcome`] — every record
//! timestamp bit, every rejection, every scaling event — for identically
//! seeded runs of every system. The digests live in one table,
//! `golden_util::ENGINE_GOLDENS`; a refactor must reproduce them
//! bit-for-bit, which is the acceptance oracle for "this change moves no
//! decision".
//!
//! To re-capture after an *intentional* behaviour change, run (it prints
//! the whole table):
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test --test determinism_golden -- --nocapture
//! ```

use loongserve::prelude::*;

#[path = "golden_util.rs"]
mod golden_util;
use golden_util::{
    outcome_digest, EngineGolden, Scenario, ENGINE_GOLDENS, LOONGSERVE_MIXED, LOONGSERVE_SHAREGPT,
    VLLM_SHAREGPT,
};

fn run(golden: &EngineGolden) -> RunOutcome {
    let (trace, system) = golden.setup();
    system.build_engine(Some(&trace)).run(&trace)
}

fn run_digest(kind: SystemKind, dataset: DatasetKind, rate: f64, count: usize, seed: u64) -> u64 {
    let trace = WorkloadSpec::Dataset(dataset).generate(rate, count, seed);
    let system = SystemUnderTest::paper_single_node(kind);
    let mut engine = system.build_engine(Some(&trace));
    outcome_digest(&engine.run(&trace))
}

#[test]
fn loongserve_sharegpt_outcome_is_pinned() {
    LOONGSERVE_SHAREGPT.check(outcome_digest(&run(&LOONGSERVE_SHAREGPT)));
}

#[test]
fn loongserve_mixed_outcome_is_pinned() {
    LOONGSERVE_MIXED.check(outcome_digest(&run(&LOONGSERVE_MIXED)));
}

#[test]
fn vllm_baseline_outcome_is_pinned() {
    VLLM_SHAREGPT.check(outcome_digest(&run(&VLLM_SHAREGPT)));
}

#[test]
fn every_system_outcome_is_pinned() {
    for golden in ENGINE_GOLDENS {
        let outcome = run(golden);
        golden.check(outcome_digest(&outcome));
        // Each scenario still reaches the path it is there to pin.
        let label = golden.label();
        match golden.scenario {
            Scenario::MixedTight => {
                let rejected = outcome.rejected.len();
                assert!((2..=9).contains(&rejected), "{label}: {rejected} rejected");
            }
            Scenario::MultiTurnPrefix => {
                assert_eq!(outcome.records.len(), 109, "{label}");
                let hits = outcome.cache.hits;
                assert!((72..=74).contains(&hits), "{label}: {hits} cache hits");
            }
            Scenario::Pressured(_) => {
                assert!(!outcome.pressure.is_zero(), "{label}: no pressure");
            }
            _ => {}
        }
    }
}

#[test]
fn repeated_runs_reproduce_the_digest() {
    let a = run_digest(SystemKind::LoongServe, DatasetKind::ShareGpt, 6.0, 40, 9);
    let b = run_digest(SystemKind::LoongServe, DatasetKind::ShareGpt, 6.0, 40, 9);
    assert_eq!(a, b, "identical seeds must reproduce identical outcomes");
}
