//! Properties of the live engine: advancing in pieces is advancing in one go.
//!
//! A fleet admits each replica's requests era by era and advances the
//! replica's live engine from boundary to boundary. That reproduces the bare
//! engine only if splitting changes nothing, at any split instant —
//! including one that lands exactly on an arrival (the arrival must still
//! join that instant's batch, ahead of the work completing then) or exactly
//! on a completion. These properties split runs at random instants of both
//! kinds and compare digests with the one-shot run, for LoongServe, a
//! baseline, and a multi-turn trace with the prefix cache on, where the
//! order of events at one instant decides waiter pins and retention.

use loongserve::prelude::*;
use proptest::prelude::*;

#[path = "golden_util.rs"]
mod golden_util;
use golden_util::outcome_digest;

const PROPTEST_SEED: u64 = 0x11fe_e2e1_0808_2026;

fn ci_config(cases: u32) -> ProptestConfig {
    ProptestConfig {
        cases,
        failure_persistence: Some(FileFailurePersistence::Off),
        rng_seed: PROPTEST_SEED,
    }
}

/// Split instants for a run of `trace` whose one-shot outcome is
/// `reference`: each pick is an arrival instant (kind 0), a completion
/// instant — a prefill's first token or a request's finish — (kind 1), or an
/// instant drawn uniformly over the run (kind 2).
fn split_instants(trace: &Trace, reference: &RunOutcome, picks: &[(usize, u64)]) -> Vec<SimTime> {
    let records = &reference.records;
    picks
        .iter()
        .map(|&(kind, x)| match kind {
            0 => trace.requests[x as usize % trace.len()].arrival,
            1 if !records.is_empty() => {
                let r = &records[x as usize % records.len()];
                if x % 2 == 0 {
                    r.first_token
                } else {
                    r.finish
                }
            }
            _ => SimTime::from_secs(reference.sim_time.as_secs() * (x % 1_000) as f64 / 1_000.0),
        })
        .collect()
}

/// Runs `trace` on a fresh engine of `system`, admitting lazily: before
/// each split every request arriving strictly before it is admitted, then
/// the engine advances until the split; after the last, the rest is
/// admitted and the engine runs to the end.
fn split_run(system: &SystemUnderTest, trace: &Trace, splits: &[SimTime]) -> RunOutcome {
    let mut engine = system.build_engine(Some(trace));
    let mut requests = trace.requests.iter().peekable();
    for &split in splits {
        while let Some(req) = requests.next_if(|r| r.arrival < split) {
            engine.admit(req.clone());
        }
        engine.advance_until(split, &mut NoopSink);
    }
    for req in requests {
        engine.admit(req.clone());
    }
    engine.advance_to_end(&mut NoopSink);
    engine.finish()
}

/// Asserts that `system` splits `trace` at the picked instants to the
/// one-shot digest. One extra request first joins the trace exactly when
/// the one-shot run's first prefill completes — causality keeps that
/// completion in place — and the run is also split there, so an arrival
/// admitted after an advance must still share its instant's batch with the
/// work completing then.
fn check_split(system: &SystemUnderTest, trace: &Trace, picks: &[(usize, u64)]) {
    let first = system.build_engine(Some(trace)).run(trace);
    let Some(at) = first.records.iter().map(|r| r.first_token).min() else {
        return;
    };
    let mut requests = trace.requests.clone();
    let id = requests
        .iter()
        .map(|r| r.id.raw())
        .max()
        .map_or(0, |max| max + 1);
    requests.push(Request::new(RequestId(id), at, 1_000, 16));
    let trace = Trace::from_requests(trace.label.clone(), requests);
    let reference = system.build_engine(Some(&trace)).run(&trace);
    let mut splits = split_instants(&trace, &reference, picks);
    splits.push(at);
    splits.sort();
    splits.dedup();
    let split = split_run(system, &trace, &splits);
    assert_eq!(
        outcome_digest(&split),
        outcome_digest(&reference),
        "splits at {splits:?}"
    );
}

proptest! {
    #![proptest_config(ci_config(16))]

    /// LoongServe and the vLLM baseline on ShareGPT, split anywhere.
    #[test]
    fn split_advancing_reproduces_the_one_shot_run(
        seed in 0u64..10_000,
        rate_milli in 500u64..12_000,
        count in 5usize..40,
        baseline in 0usize..2,
        picks in proptest::collection::vec((0usize..3, 0u64..1_000_000), 1..16),
    ) {
        let kind = [SystemKind::LoongServe, SystemKind::Vllm][baseline];
        let rate = rate_milli as f64 / 1000.0;
        let trace = WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(rate, count, seed);
        check_split(&SystemUnderTest::paper_single_node(kind), &trace, &picks);
    }

    /// Multi-turn conversations with the prefix cache on: waiter pins,
    /// adoption and retention all hinge on what happens first at an instant.
    #[test]
    fn split_advancing_reproduces_prefix_cached_runs(
        seed in 0u64..10_000,
        conversations in 4usize..16,
        rate_centi in 20u64..150,
        picks in proptest::collection::vec((0usize..3, 0u64..1_000_000), 1..16),
    ) {
        let trace = Trace::generate_multi_turn(
            DatasetKind::ShareGpt,
            &MultiTurnProfile::sharegpt(),
            ArrivalProcess::Poisson { rate: rate_centi as f64 / 100.0 },
            conversations,
            &mut SimRng::seed(seed),
        );
        let system = SystemUnderTest::paper_single_node(SystemKind::LoongServe)
            .with_prefix_cache();
        check_split(&system, &trace, &picks);
    }
}
