//! Per-phase simulated-time attribution.
//!
//! The observability tier answers "*where did the latency go?*" by folding
//! every request's lifecycle spans into per-phase, per-class accumulators:
//! the sum of simulated seconds each traffic class spent queued, prefilling,
//! decoding, swapping, migrating, re-prefilling after a crash retry, or
//! waiting out retry backoff. The totals are the denominator of the
//! latency-breakdown tables in EXPERIMENTS.md and ride on
//! [`RunSummary`]/[`FleetSummary`] so every report can show them.
//!
//! [`RunSummary`]: crate::summary::RunSummary
//! [`FleetSummary`]: crate::fleet::FleetSummary

use loong_simcore::class::TrafficClass;

/// Simulated seconds a set of requests spent in each lifecycle phase.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct PhaseSeconds {
    /// Waiting for admission or dispatch (including decode-batch waits
    /// before the first token).
    pub queued_s: f64,
    /// First-attempt prefill (full or chunked) execution.
    pub prefill_s: f64,
    /// Decode iterations, including inter-iteration batch gaps.
    pub decode_s: f64,
    /// Swap-out transfer + parked-on-host + swap-in transfer.
    pub swap_s: f64,
    /// Elastic KV migration.
    pub migrate_s: f64,
    /// Prefill executed by retry attempts after a replica crash — work the
    /// fleet paid twice.
    pub retry_prefill_s: f64,
    /// Retry backoff: the gap between a casualty's crash and its retry
    /// re-entering admission.
    pub downtime_s: f64,
}

impl PhaseSeconds {
    /// Total attributed seconds across all phases.
    pub fn total_s(&self) -> f64 {
        self.queued_s
            + self.prefill_s
            + self.decode_s
            + self.swap_s
            + self.migrate_s
            + self.retry_prefill_s
            + self.downtime_s
    }

    /// Adds another accumulator into this one, phase-wise.
    pub fn add(&mut self, other: &PhaseSeconds) {
        self.queued_s += other.queued_s;
        self.prefill_s += other.prefill_s;
        self.decode_s += other.decode_s;
        self.swap_s += other.swap_s;
        self.migrate_s += other.migrate_s;
        self.retry_prefill_s += other.retry_prefill_s;
        self.downtime_s += other.downtime_s;
    }

    /// True when no time has been attributed.
    pub fn is_zero(&self) -> bool {
        self.total_s() == 0.0
    }
}

/// Per-class time attribution for one run (engine or fleet scope).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct TimeAttribution {
    /// Interactive (chat-style) traffic.
    pub interactive: PhaseSeconds,
    /// Standard (multi-turn assistant) traffic.
    pub standard: PhaseSeconds,
    /// Best-effort (long-document / batch) traffic.
    pub best_effort: PhaseSeconds,
}

impl TimeAttribution {
    /// The accumulator for a traffic class.
    pub fn class(&self, class: TrafficClass) -> &PhaseSeconds {
        match class {
            TrafficClass::Interactive => &self.interactive,
            TrafficClass::Standard => &self.standard,
            TrafficClass::BestEffort => &self.best_effort,
        }
    }

    /// Mutable accumulator for a traffic class.
    pub fn class_mut(&mut self, class: TrafficClass) -> &mut PhaseSeconds {
        match class {
            TrafficClass::Interactive => &mut self.interactive,
            TrafficClass::Standard => &mut self.standard,
            TrafficClass::BestEffort => &mut self.best_effort,
        }
    }

    /// The class-summed accumulator.
    pub fn total(&self) -> PhaseSeconds {
        let mut t = self.interactive;
        t.add(&self.standard);
        t.add(&self.best_effort);
        t
    }

    /// Adds another attribution into this one, class- and phase-wise.
    pub fn add(&mut self, other: &TimeAttribution) {
        self.interactive.add(&other.interactive);
        self.standard.add(&other.standard);
        self.best_effort.add(&other.best_effort);
    }

    /// True when no time has been attributed to any class.
    pub fn is_zero(&self) -> bool {
        self.interactive.is_zero() && self.standard.is_zero() && self.best_effort.is_zero()
    }

    /// Renders the latency-breakdown table: one row per class with
    /// non-zero attribution plus a totals row, seconds per phase.
    pub fn markdown_table(&self) -> String {
        let mut out = String::from(
            "| class | queued_s | prefill_s | decode_s | swap_s | migrate_s | \
             retry_prefill_s | downtime_s | total_s |\n\
             |---|---|---|---|---|---|---|---|---|\n",
        );
        let mut row = |label: &str, p: &PhaseSeconds| {
            out.push_str(&format!(
                "| {label} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} |\n",
                p.queued_s,
                p.prefill_s,
                p.decode_s,
                p.swap_s,
                p.migrate_s,
                p.retry_prefill_s,
                p.downtime_s,
                p.total_s(),
            ));
        };
        for class in TrafficClass::all() {
            let p = self.class(class);
            if !p.is_zero() {
                row(class.label(), p);
            }
        }
        let total = self.total();
        row("total", &total);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_classes_and_phases() {
        let mut a = TimeAttribution::default();
        assert!(a.is_zero());
        a.class_mut(TrafficClass::Interactive).queued_s = 1.0;
        a.class_mut(TrafficClass::Interactive).decode_s = 2.0;
        a.class_mut(TrafficClass::BestEffort).prefill_s = 4.0;
        assert!(!a.is_zero());
        assert_eq!(a.total().total_s(), 7.0);
        assert_eq!(a.class(TrafficClass::Standard).total_s(), 0.0);

        let mut b = TimeAttribution::default();
        b.class_mut(TrafficClass::Interactive).queued_s = 0.5;
        b.class_mut(TrafficClass::Standard).downtime_s = 1.5;
        a.add(&b);
        assert_eq!(a.interactive.queued_s, 1.5);
        assert_eq!(a.standard.downtime_s, 1.5);
        assert_eq!(a.total().total_s(), 9.0);
    }

    #[test]
    fn markdown_table_skips_zero_classes() {
        let mut a = TimeAttribution::default();
        a.class_mut(TrafficClass::Standard).decode_s = 3.0;
        let table = a.markdown_table();
        assert!(table.contains("| standard |"));
        assert!(!table.contains("| interactive |"));
        assert!(table.contains("| total |"));
    }
}
