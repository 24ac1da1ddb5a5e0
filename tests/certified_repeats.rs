//! A certified repeat changes nothing but the calls made.
//!
//! At a scheduling point whose one event is a decode iteration completing,
//! the engine re-issues that decode without calling the scheduler when the
//! scheduler certifies that its decision repeats
//! (`Scheduler::certify_repeat`). Debug builds call the scheduler at every
//! certified point as well and assert that it returns the re-issued decode;
//! these tests hold whole runs to it. Each engine runs once with its
//! scheduler certifying as built and once behind a decorator that forwards
//! only `schedule`, so it is called at every point, and the two outcomes
//! must digest alike.

#[path = "golden_util.rs"]
mod golden_util;

use golden_util::outcome_digest;
use loongserve::prelude::*;
use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;

/// Forwards everything to `inner`, counting the repeats it certifies and
/// the decode actions it rotates.
struct Counted {
    inner: Box<dyn Scheduler>,
    /// Rotate by one the request list of each decode whose members differ
    /// from the last decode on its instances, as they never do at a
    /// certified point. The group's next iteration then completes with
    /// its members in an order other than newest first.
    rotate: bool,
    /// The sorted members of the last decode on each instance set.
    groups: HashMap<Vec<InstanceId>, Vec<RequestId>>,
    /// Forward `certify_repeat`; otherwise refuse every repeat, so the
    /// engine calls `schedule` at every point.
    certify: bool,
    certified: Rc<Cell<u64>>,
    rotated: Rc<Cell<u64>>,
}

impl Scheduler for Counted {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn schedule(&mut self, view: &SchedulerView<'_>) -> Vec<Action> {
        let mut actions = self.inner.schedule(view);
        if !self.rotate {
            return actions;
        }
        for action in &mut actions {
            if let Action::Decode {
                instances,
                requests,
                ..
            } = action
            {
                let mut members = requests.clone();
                members.sort();
                let changed =
                    self.groups.insert(instances.clone(), members.clone()) != Some(members);
                if changed && requests.len() > 1 {
                    requests.rotate_left(1);
                    self.rotated.set(self.rotated.get() + 1);
                }
            }
        }
        actions
    }

    fn certify_repeat(&self, repeat: &DecodeRepeat<'_>, masters: &mut Vec<InstanceId>) -> bool {
        let certified = self.certify && self.inner.certify_repeat(repeat, masters);
        self.certified
            .set(self.certified.get() + u64::from(certified));
        certified
    }

    fn scaling_events(&self) -> &[ScalingEvent] {
        self.inner.scaling_events()
    }
}

/// One run's outcome digest, the repeats certified and the decodes
/// rotated.
struct Run {
    digest: u64,
    certified: u64,
    rotated: u64,
}

/// Runs `trace` on `system` behind a [`Counted`] decorator.
fn run(system: &SystemUnderTest, trace: &Trace, certify: bool, rotate: bool) -> Run {
    let (certified, rotated) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
    let scheduler = Counted {
        inner: system.scheduler(Some(trace)).expect("the system builds"),
        rotate,
        groups: HashMap::new(),
        certify,
        certified: Rc::clone(&certified),
        rotated: Rc::clone(&rotated),
    };
    let outcome = ServingEngine::new(system.engine_config(), Box::new(scheduler)).run(trace);
    assert_eq!(
        outcome.records.len() + outcome.rejected.len() + outcome.unfinished,
        trace.len(),
        "{}",
        trace.label
    );
    Run {
        digest: outcome_digest(&outcome),
        certified: certified.get(),
        rotated: rotated.get(),
    }
}

/// Runs `trace` on `system` certifying and called at every point, asserts
/// equal outcomes, and returns the repeats the former certified.
fn certified_repeats(system: &SystemUnderTest, trace: &Trace) -> u64 {
    let certifying = run(system, trace, true, false);
    let called = run(system, trace, false, false);
    assert_eq!(
        certifying.digest, called.digest,
        "{:?} on {}: certified repeats changed the outcome",
        system.kind, trace.label
    );
    certifying.certified
}

/// A uniform draw from `lo..hi`.
fn draw(rng: &mut SimRng, lo: u64, hi: u64) -> u64 {
    lo + (rng.uniform01() * (hi - lo) as f64) as u64
}

/// Random Mixed traces as `tests/view_equivalence.rs` draws them: 5 to 29
/// requests at 0.1 to 4 req/s.
fn mixed_traces(rng: &mut SimRng, cases: usize) -> Vec<Trace> {
    (0..cases)
        .map(|_| {
            let rate = draw(rng, 100, 4_000) as f64 / 1000.0;
            let count = draw(rng, 5, 30) as usize;
            WorkloadSpec::Dataset(DatasetKind::Mixed).generate(rate, count, draw(rng, 0, 10_000))
        })
        .collect()
}

/// Random ShareGPT traces: 20 to 79 requests at 4 to 30 req/s.
fn sharegpt_traces(rng: &mut SimRng, cases: usize) -> Vec<Trace> {
    (0..cases)
        .map(|_| {
            let rate = draw(rng, 4, 30) as f64;
            let count = draw(rng, 20, 80) as usize;
            WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(rate, count, draw(rng, 0, 10_000))
        })
        .collect()
}

/// Random multi-turn ShareGPT traces: 5 to 19 conversations at 1 to 4
/// conversations per second.
fn multi_turn_traces(rng: &mut SimRng, cases: usize) -> Vec<Trace> {
    (0..cases)
        .map(|_| {
            Trace::generate_multi_turn(
                DatasetKind::ShareGpt,
                &MultiTurnProfile::sharegpt(),
                ArrivalProcess::Poisson {
                    rate: draw(rng, 1, 5) as f64,
                },
                draw(rng, 5, 20) as usize,
                &mut SimRng::seed(draw(rng, 0, 10_000)),
            )
        })
        .collect()
}

#[test]
fn certified_repeats_change_no_outcome() {
    use PressureMode::{Recompute, SwapToHost};
    use SystemKind::{LoongServe, LoongServeNoScaleUp};
    let mut rng = SimRng::seed(0xce27_1f1e);
    let node = SystemUnderTest::paper_single_node;
    let mixed = mixed_traces(&mut rng, 4);
    let sharegpt = sharegpt_traces(&mut rng, 3);
    let multi_turn = multi_turn_traces(&mut rng, 3);
    let pressured = sharegpt_traces(&mut rng, 3);
    // Instances cut to 100,000 slots: the golden `MixedTight` setting,
    // where decode groups scale up.
    let tight = |kind| node(kind).with_kv_capacity(100_000);
    let cases: [(SystemUnderTest, &[Trace]); 9] = [
        (node(LoongServe), &mixed),
        (node(LoongServe), &sharegpt),
        (tight(LoongServe), &mixed),
        (tight(LoongServeNoScaleUp), &mixed),
        (SystemUnderTest::paper_two_node(LoongServe), &mixed),
        (node(LoongServe), &multi_turn),
        (node(LoongServe).with_prefix_cache(), &multi_turn),
        (
            node(LoongServe)
                .with_kv_capacity(6_000)
                .with_pressure(Recompute),
            &pressured,
        ),
        (
            node(LoongServe)
                .with_kv_capacity(6_000)
                .with_pressure(SwapToHost),
            &pressured,
        ),
    ];
    for (system, traces) in &cases {
        let certified: u64 = traces
            .iter()
            .map(|trace| certified_repeats(system, trace))
            .sum();
        let label = format!(
            "{:?} under {:?}, prefix cache {}, {} nodes",
            system.kind,
            system.pressure,
            system.prefix_cache.is_some(),
            system.cluster.nodes
        );
        if system.pressure == PressureMode::Off {
            assert!(certified > 0, "{label}: no repeat was certified");
        } else {
            // A manager with pressure handling never certifies.
            assert_eq!(certified, 0, "{label}");
        }
    }
}

#[test]
fn a_group_run_out_of_rank_order_is_not_repeated() {
    // A decode group the manager lists newest first, rotated by one when
    // its members change, completes its iteration with its members out of
    // that order. Re-issuing it as it stands would decide otherwise than
    // the manager, which lists it newest first again; the engine must call
    // it instead.
    let system = SystemUnderTest::paper_single_node(SystemKind::LoongServe);
    let mut rng = SimRng::seed(0x07de2);
    let (mut certified, mut rotated) = (0, 0);
    for trace in sharegpt_traces(&mut rng, 3) {
        let certifying = run(&system, &trace, true, true);
        let called = run(&system, &trace, false, true);
        assert_eq!(certifying.digest, called.digest, "{}", trace.label);
        assert_eq!(certifying.rotated, called.rotated, "{}", trace.label);
        certified += certifying.certified;
        rotated += certifying.rotated;
    }
    assert!(
        certified > 0 && rotated > 0,
        "{certified} certified, {rotated} rotated"
    );
}
