//! Host-speed calibration.
//!
//! On a shared host the CPU itself runs faster or slower from one minute to
//! the next: the same simulation can take 25% longer in one process than in
//! the next, and its CPU time grows with its wall time. A fixed kernel timed
//! next to the workload in the same process sees the same slowdown, so
//! dividing by it cancels most of the host's drift.
//!
//! The kernel calls no workspace code, so no change to the simulator can
//! change what it measures. It mimics the simulator's hot loop — a binary
//! heap of timed events, an ordered map of live entries, branchy integer
//! work and a little floating point — over a working set of a few hundred
//! kilobytes.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's median duration on the reference host (a 2-vCPU x86-64
/// VM). Normalised figures read as "on the reference host".
pub const REFERENCE_KERNEL_S: f64 = 0.0133;

/// Runs the calibration kernel once and returns a checksum of its work.
pub fn kernel() -> u64 {
    const EVENTS: u64 = 4_096;
    const STEPS: u64 = 60_000;
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move || {
        // xorshift64*: fixed, dependency-free pseudo-randomness.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::with_capacity(EVENTS as usize);
    let mut live: BTreeMap<u64, (u64, f64)> = BTreeMap::new();
    for id in 0..EVENTS {
        heap.push(Reverse((next() % 1_000_000, id)));
        live.insert(id, (0, 1.0));
    }
    let mut checksum = 0u64;
    let mut weight = 0.0f64;
    for step in 0..STEPS {
        let Reverse((at, id)) = heap.pop().expect("the heap never drains");
        let entry = live.entry(id).or_insert((0, 1.0));
        entry.0 += 1;
        entry.1 = entry.1 * 0.999 + (at % 97) as f64 * 1e-3;
        weight += entry.1.sqrt();
        // Retire and re-admit a few entries so the map keeps rebalancing.
        if step % 7 == 0 {
            let victim = next() % (EVENTS * 2);
            if live.remove(&victim).is_none() {
                live.insert(victim, (step, 0.5));
            }
        }
        checksum = checksum.wrapping_add(at ^ id.rotate_left((step % 63) as u32));
        heap.push(Reverse((at + 1 + next() % 4_096, id)));
    }
    checksum ^ weight.to_bits() ^ live.len() as u64
}

/// Times one kernel run, in seconds.
fn sample() -> f64 {
    let start = Instant::now();
    black_box(kernel());
    start.elapsed().as_secs_f64()
}

/// Times kernel runs until they add up to `budget_s`, and at least `min`
/// of them, in seconds each.
///
/// The host's speed shifts in episodes of a few hundred milliseconds, so a
/// measurement is normalised by a burst taken right next to it, sized in
/// proportion to the measurement.
pub fn burst(budget_s: f64, min: usize) -> Vec<f64> {
    let mut out = Vec::new();
    let mut spent = 0.0;
    while out.len() < min || spent < budget_s {
        let s = sample();
        spent += s;
        out.push(s);
    }
    out
}

/// Converts a wall time measured while the kernel took `calib_s` into the
/// time the same work would take on the reference host, for work that
/// slows `sensitivity` times as much as the kernel in log terms: where the
/// kernel runs 10% slow, such work runs 1.1^sensitivity slow.
pub fn to_reference_time(raw_s: f64, calib_s: f64, sensitivity: f64) -> f64 {
    raw_s * (REFERENCE_KERNEL_S / calib_s).powf(sensitivity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn a_host_twice_as_slow_normalises_to_the_same_figures() {
        // The reference host runs the workload in 2 s and the kernel in
        // REFERENCE_KERNEL_S; a host half as fast doubles both.
        assert!((to_reference_time(2.0, REFERENCE_KERNEL_S, 1.0) - 2.0).abs() < 1e-12);
        assert!((to_reference_time(4.0, 2.0 * REFERENCE_KERNEL_S, 1.0) - 2.0).abs() < 1e-12);
        // A host 25% faster than the reference: 3 s there is 4 s here.
        assert!((to_reference_time(3.0, 0.75 * REFERENCE_KERNEL_S, 1.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn sensitive_work_is_corrected_by_a_power_of_the_kernel_ratio() {
        // Work twice as sensitive as the kernel: where the kernel takes
        // twice as long, it takes four times as long.
        assert!((to_reference_time(8.0, 2.0 * REFERENCE_KERNEL_S, 2.0) - 2.0).abs() < 1e-12);
        // At the reference speed the sensitivity does not matter.
        assert_eq!(to_reference_time(5.0, REFERENCE_KERNEL_S, 1.5), 5.0);
    }

    #[test]
    fn a_burst_takes_at_least_its_minimum_and_fills_its_budget() {
        assert_eq!(burst(0.0, 3).len(), 3);
        let long = burst(5.0 * REFERENCE_KERNEL_S, 1);
        assert!(long.iter().sum::<f64>() >= 5.0 * REFERENCE_KERNEL_S);
    }
}
