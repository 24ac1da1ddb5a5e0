//! Heap-allocation budget of the LoongServe scheduling point.
//!
//! A long Mixed run makes millions of scheduling points, most of them
//! decode-only. This binary installs a counting global allocator and holds
//! the steady-state point to a fixed number of heap allocations per
//! scheduling point, on long-context Mixed traffic and on decode-heavy
//! ShareGPT traffic. A point that re-issues a decode its scheduler
//! certified would repeat allocates nothing; any other one-group
//! decode-only point allocates four times: the action list and the decode
//! action's instances, masters and requests. Each arm's budget is its
//! reading plus about 10%, so a regression of one allocation on every
//! certified point fails it.
//!
//! Debug builds shadow every point with the view audit, which allocates by
//! design, so the budget is checked in release builds only:
//!
//! ```text
//! cargo test --release --test alloc_budget
//! ```

use loongserve::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations and reallocations made on threads that switched
/// counting on; every other thread allocates uncounted.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator may run while this thread's locals are
    // being torn down.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter only reads and writes plain thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` counting the allocations this thread makes meanwhile.
fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, COUNT.with(Cell::get))
}

/// Runs `trace` through one paper node under LoongServe and holds the run
/// to `budget` allocations plus reallocations per scheduling point.
fn assert_within_budget(trace: &Trace, budget: f64) {
    let system = SystemUnderTest::paper_single_node(SystemKind::LoongServe);
    let mut engine = system.build_engine(Some(trace));
    let (outcome, allocations) = count_allocations(|| engine.run(trace));
    assert_eq!(outcome.unfinished, 0, "the run resolves every request");
    // `scheduler_calls` counts scheduling points, certified or not.
    let points = outcome.scheduler_calls;
    let per_point = allocations as f64 / points as f64;
    println!(
        "{}: {allocations} allocations over {points} scheduling points: {per_point:.2} per point",
        trace.label
    );
    assert!(
        per_point <= budget,
        "{per_point:.2} heap allocations per scheduling point, budget {budget}"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the debug view audit allocates by design; run with --release"
)]
fn loongserve_mixed_run_stays_within_its_allocation_budget() {
    // Reads 2.00.
    assert_within_budget(
        &WorkloadSpec::Dataset(DatasetKind::Mixed).generate(0.15, 2_000, 2026),
        2.2,
    );
}

/// Decode-heavy traffic: short ShareGPT requests at one replica's share of
/// the `sharegpt-fleet` benchmark load (120 req/s over four replicas), so
/// decode groups hold tens of requests.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the debug view audit allocates by design; run with --release"
)]
fn loongserve_sharegpt_run_stays_within_its_allocation_budget() {
    // Reads 3.75.
    assert_within_budget(
        &WorkloadSpec::Dataset(DatasetKind::ShareGpt).generate(30.0, 4_000, 2026),
        4.1,
    );
}
