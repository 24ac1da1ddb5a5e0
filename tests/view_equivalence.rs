//! View-equivalence properties for the O(active) engine loop.
//!
//! The engine maintains its scheduler-view inputs (pending, decoding and
//! swapped lists, the idle instance set) incrementally; schedulers read KV
//! residency from the pool's index, whose invariants are checked at every
//! point. Debug builds shadow every scheduling point with a naive rebuild
//! from the audit's own records — an append-only arrival log and a
//! busy-until record of claims — and `assert_eq!` the two (see the `audit`
//! module in `loongserve::engine`). The properties here drive
//! that audit across random traces, rates and systems: any divergence
//! between the incremental view and the O(all-requests) rebuild panics
//! inside the run.
//!
//! A second property checks the `RequestTable` live list directly against
//! a brute-force model (an append-only arrival log plus per-request
//! admitted and retired flags), since the engine only exercises the
//! transitions its schedulers happen to take.

use loong_simcore::table::RequestTable;
use loongserve::prelude::*;
use proptest::prelude::*;

const PROPTEST_SEED: u64 = 0x7669_6577_6571_7576;

fn ci_config(cases: u32) -> ProptestConfig {
    ProptestConfig {
        cases,
        failure_persistence: Some(FileFailurePersistence::Off),
        rng_seed: PROPTEST_SEED,
    }
}

// Debug assertions are what arm the engine's per-scheduling-point audit;
// without them this suite would only test outcomes, not views.
#[cfg(not(debug_assertions))]
compile_error!("view_equivalence must run with debug assertions enabled");

proptest! {
    // Every case is a full engine run whose every scheduling point is
    // audited, so a small case budget still checks thousands of views.
    #![proptest_config(ci_config(12))]

    /// The incrementally maintained view equals a naive full-scan rebuild
    /// at every scheduling point, for random traces across the systems
    /// that exercise all four action kinds (LoongServe: prefill, decode
    /// and migration; the SplitFuse baseline: chunked prefill).
    #[test]
    fn incremental_views_match_full_rebuild_on_random_traces(
        seed in 0u64..10_000,
        rate_milli in 100u64..4_000,
        count in 5usize..30,
        system_idx in 0usize..4,
    ) {
        let kind = [
            SystemKind::LoongServe,
            SystemKind::Vllm,
            SystemKind::LightLlmSplitFuse,
            SystemKind::DistServe,
        ][system_idx];
        let rate = rate_milli as f64 / 1000.0;
        let trace = WorkloadSpec::Dataset(DatasetKind::Mixed).generate(rate, count, seed);
        let system = SystemUnderTest::paper_single_node(kind);
        // The run panics if any scheduling point's incremental view
        // diverges from the naive rebuild.
        let (_, outcome) = system.run(&trace, rate, &SloSpec::default_for_lwm());
        prop_assert_eq!(
            outcome.records.len() + outcome.rejected.len() + outcome.unfinished,
            count
        );
    }

    /// Same property under a simulated-time cap, which exits the loop
    /// mid-flight and stresses the "work still in flight" bookkeeping.
    #[test]
    fn incremental_views_match_under_time_cap(
        seed in 0u64..10_000,
        cap_ds in 1u64..80,
        count in 5usize..20,
    ) {
        let trace = WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(2.0, count, seed);
        let outcome = SystemUnderTest::paper_single_node(SystemKind::LoongServe)
            .with_max_sim_time(SimDuration::from_secs(cap_ds as f64 / 10.0))
            .build_engine(Some(&trace))
            .run(&trace);
        prop_assert!(outcome.records.len() + outcome.rejected.len() + outcome.unfinished <= count);
    }

    /// The `RequestTable` live list equals a brute-force scan of an
    /// append-only arrival log for arbitrary insert/admit/retire/payload
    /// write/remove sequences, and a payload write never moves a request.
    /// Retirement is a request finishing or being rejected; removal is the
    /// crash path (`take_unresolved`), after which a removed id may be
    /// inserted again and is then admitted at a fresh rank.
    #[test]
    fn request_table_matches_bruteforce_model(
        ops in proptest::collection::vec((0u64..12, 0usize..6), 1..200)
    ) {
        let mut table: RequestTable<u64> = RequestTable::new();
        // Model: per-id (admitted, retired, payload) plus an admission-order
        // log — the log plays the role of the engine's append-only arrival
        // vector.
        let mut model: Vec<(RequestId, bool, bool, u64)> = Vec::new();
        let mut admission_log: Vec<RequestId> = Vec::new();

        for (raw, op) in ops {
            let id = RequestId(raw);
            let known = model.iter().any(|&(i, ..)| i == id);
            match op {
                0 if !known => {
                    table.insert(id, 0);
                    model.push((id, false, false, 0));
                }
                1 if known => {
                    let entry = model.iter_mut().find(|(i, ..)| *i == id).unwrap();
                    if !entry.1 {
                        entry.1 = true;
                        admission_log.push(id);
                        table.admit(id);
                    }
                }
                4 if known => {
                    model.iter_mut().find(|(i, ..)| *i == id).unwrap().2 = true;
                    table.retire(id);
                }
                5 if known => {
                    let payload = model.iter().find(|(i, ..)| *i == id).unwrap().3;
                    model.retain(|&(i, ..)| i != id);
                    admission_log.retain(|&i| i != id);
                    prop_assert_eq!(table.remove(id), Some(payload));
                }
                c if known => {
                    // A phase change short of retirement: a payload write.
                    model.iter_mut().find(|(i, ..)| *i == id).unwrap().3 = c as u64;
                    *table.get_mut(id).unwrap() = c as u64;
                }
                _ => {}
            }
            prop_assert!(table.check_invariants().is_ok());
            prop_assert_eq!(table.len(), model.len());
            // Naive rebuild: scan the admission log for the admitted,
            // unretired requests — exactly what the old engine loop did.
            let naive_live: Vec<(RequestId, u64)> = admission_log
                .iter()
                .filter_map(|&i| {
                    model
                        .iter()
                        .find(|&&(j, admitted, retired, _)| j == i && admitted && !retired)
                        .map(|&(j, .., payload)| (j, payload))
                })
                .collect();
            let live: Vec<(RequestId, u64)> =
                table.iter_live().map(|(id, &payload)| (id, payload)).collect();
            prop_assert_eq!(live, naive_live);
        }
    }
}

/// Admission order in the model above follows op order, which is also the
/// order `admit` assigns ranks — but requests admitted in the same batch of
/// simultaneous events must keep FIFO order too. The engine relies on the
/// event queue for that; this pins the composition of the two.
#[test]
fn simultaneous_arrivals_keep_fifo_order_in_pending_view() {
    use loong_simcore::ids::RequestId;
    use loong_simcore::time::SimTime;
    use loong_workload::request::Request;

    let t = SimTime::from_secs(1.0);
    // Same arrival instant, descending ids: the pending view must list
    // them in trace order, not id order.
    let requests = vec![
        Request::new(RequestId(2), t, 4_000, 4),
        Request::new(RequestId(1), t, 4_000, 4),
        Request::new(RequestId(0), t, 4_000, 4),
    ];
    let trace = Trace::from_requests("fifo", requests);
    let system = SystemUnderTest::paper_single_node(SystemKind::LoongServe);
    let (_, outcome) = system.run(&trace, 1.0, &SloSpec::default_for_lwm());
    // The audit inside the run already checked view order; completing all
    // three confirms the engine processed them.
    assert_eq!(outcome.records.len(), 3);
}
