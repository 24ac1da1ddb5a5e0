//! Elastic fleet control: autoscaling and admission under overload.
//!
//! A fixed fleet has exactly two failure modes under real traffic: at night
//! it burns replica-seconds doing nothing, and under a flash crowd it wedges
//! queues until every class misses its SLO. This module is the *policy*
//! half of the elasticity tier — two deterministic controllers the fleet
//! engine consults at era boundaries:
//!
//! * [`Autoscaler`] — target-tracking on SLO attainment and queue depth
//!   over the control window, with cooldowns and min/max bounds, deciding
//!   when the fleet grows (cold replicas after a provisioning delay) or
//!   shrinks (a replica drains, then retires);
//! * [`AdmissionController`] — load shedding when the fleet saturates:
//!   class-priority shedding (best-effort before interactive) and
//!   deadline-based early rejection, behind an on/off hysteresis band so
//!   shedding cannot flap around the threshold.
//!
//! Both controllers are pure functions of their observed signals: no clocks,
//! no randomness. Identically-seeded runs make identical decisions, which is
//! what lets the composition proptests pin exactly-once accounting across
//! scale events, and an armed-but-idle controller pair reproduce the static
//! fleet bit for bit.

use loong_workload::request::TrafficClass;
use serde::{Deserialize, Serialize};

/// Static configuration of the fleet [`Autoscaler`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoscalerConfig {
    /// The fleet never shrinks below this many active replicas.
    pub min_replicas: usize,
    /// The fleet never grows beyond this many active replicas.
    pub max_replicas: usize,
    /// Spacing of control decisions on the sim clock, in seconds; also the
    /// sliding window over which attainment and backlog are observed.
    pub control_interval_s: f64,
    /// Scale **up** when windowed SLO attainment drops below this target.
    pub target_attainment: f64,
    /// Scale **up** when per-replica backlog (queued prompt + declared
    /// output tokens per active replica) exceeds this, even if attainment
    /// still holds — queue depth leads attainment by one window.
    pub scale_up_backlog_tokens: u64,
    /// Scale **down** only when attainment holds *and* per-replica backlog
    /// is below this. Must be strictly below `scale_up_backlog_tokens` so
    /// the two thresholds form a dead band.
    pub scale_down_backlog_tokens: u64,
    /// Minimum seconds between any two scale decisions (either direction).
    pub cooldown_s: f64,
    /// Seconds between a scale-up decision and the cold replica becoming
    /// routable (container start + model load + empty KV pool warm-up).
    pub provisioning_delay_s: f64,
    /// Replicas added or drained per decision.
    pub step: usize,
}

impl AutoscalerConfig {
    /// An autoscaler pinned to exactly `n` replicas: decisions still run on
    /// every control boundary but can never fire. The configuration of the
    /// bit-for-bit equivalence proptests.
    pub fn fixed(n: usize) -> Self {
        AutoscalerConfig {
            min_replicas: n,
            max_replicas: n,
            ..AutoscalerConfig::overload_defaults(n, n)
        }
    }

    /// Defaults calibrated for the diurnal + flash-crowd studies: 60 s
    /// control windows, 95% attainment target, 30 s cooldown, 15 s
    /// provisioning delay, one replica per step.
    pub fn overload_defaults(min_replicas: usize, max_replicas: usize) -> Self {
        AutoscalerConfig {
            min_replicas,
            max_replicas,
            control_interval_s: 60.0,
            target_attainment: 0.95,
            scale_up_backlog_tokens: 60_000,
            scale_down_backlog_tokens: 15_000,
            cooldown_s: 30.0,
            provisioning_delay_s: 15.0,
            step: 1,
        }
    }

    /// True when the bounds leave any room to scale.
    pub fn is_elastic(&self) -> bool {
        self.min_replicas < self.max_replicas
    }

    /// Validates bounds, thresholds and timings.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_replicas == 0 || self.min_replicas > self.max_replicas {
            return Err(format!(
                "replica bounds must satisfy 1 <= min <= max, got {}..={}",
                self.min_replicas, self.max_replicas
            ));
        }
        if !(self.control_interval_s.is_finite() && self.control_interval_s > 0.0) {
            return Err("control interval must be finite and positive".to_string());
        }
        if !(0.0..=1.0).contains(&self.target_attainment) {
            return Err(format!(
                "target attainment must be in [0, 1], got {}",
                self.target_attainment
            ));
        }
        if self.scale_down_backlog_tokens >= self.scale_up_backlog_tokens {
            return Err(format!(
                "backlog thresholds must form a dead band (down {} < up {})",
                self.scale_down_backlog_tokens, self.scale_up_backlog_tokens
            ));
        }
        if !(self.cooldown_s >= 0.0 && self.provisioning_delay_s >= 0.0) {
            return Err("cooldown and provisioning delay must be non-negative".to_string());
        }
        if !self.provisioning_delay_s.is_finite() {
            return Err("provisioning delay must be finite".to_string());
        }
        if self.step == 0 {
            return Err("scale step must be at least 1".to_string());
        }
        Ok(())
    }
}

/// What the autoscaler observes at one control boundary: the fleet's state
/// over the window that just closed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetSignals {
    /// SLO attainment of requests finishing in the window (1.0 when the
    /// window saw no completions — an idle fleet is not a missed SLO).
    pub attainment: f64,
    /// Total unresolved backlog across active replicas, in worst-case
    /// tokens (`input_len + max_output_len` of every routed-but-unfinished
    /// request).
    pub backlog_tokens: u64,
    /// Replicas currently active and routable.
    pub active_replicas: usize,
}

/// One autoscaler decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleDecision {
    /// Stay at the current size.
    Hold,
    /// Activate this many cold replicas (after the provisioning delay).
    Up(usize),
    /// Drain this many active replicas, then retire them.
    Down(usize),
}

/// The deterministic target-tracking fleet autoscaler.
///
/// At every control boundary the fleet engine hands the window's
/// [`FleetSignals`] to [`Autoscaler::decide`]. The controller scales up when
/// the window missed the attainment target or per-replica backlog crossed
/// the high-water mark, scales down when attainment held with backlog under
/// the low-water mark, and otherwise holds. A single cooldown covers both
/// directions, so decisions cannot oscillate faster than `cooldown_s`.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    config: AutoscalerConfig,
    last_change_s: Option<f64>,
    decisions: u64,
}

impl Autoscaler {
    /// Creates an autoscaler.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`AutoscalerConfig::validate`].
    pub fn new(config: AutoscalerConfig) -> Self {
        config.validate().expect("valid autoscaler config");
        Autoscaler {
            config,
            last_change_s: None,
            decisions: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AutoscalerConfig {
        &self.config
    }

    /// Number of non-hold decisions made so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Decides at sim-time `now_s` given the closed window's signals.
    pub fn decide(&mut self, now_s: f64, signals: &FleetSignals) -> ScaleDecision {
        let active = signals.active_replicas;
        if let Some(last) = self.last_change_s {
            if now_s - last < self.config.cooldown_s {
                return ScaleDecision::Hold;
            }
        }
        let backlog_per_replica = signals.backlog_tokens as f64 / active.max(1) as f64;
        let overloaded = signals.attainment < self.config.target_attainment
            || backlog_per_replica > self.config.scale_up_backlog_tokens as f64;
        if overloaded && active < self.config.max_replicas {
            let k = self.config.step.min(self.config.max_replicas - active);
            self.last_change_s = Some(now_s);
            self.decisions += 1;
            return ScaleDecision::Up(k);
        }
        let underloaded = signals.attainment >= self.config.target_attainment
            && backlog_per_replica < self.config.scale_down_backlog_tokens as f64;
        if underloaded && active > self.config.min_replicas {
            let k = self.config.step.min(active - self.config.min_replicas);
            self.last_change_s = Some(now_s);
            self.decisions += 1;
            return ScaleDecision::Down(k);
        }
        ScaleDecision::Hold
    }
}

/// Static configuration of the [`AdmissionController`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Shedding switches **on** when fleet backlog reaches this multiple of
    /// total capacity (`replica_capacity_tokens × ready replicas`).
    pub shed_on_ratio: f64,
    /// Shedding switches **off** only when the backlog ratio falls back to
    /// this; must be strictly below `shed_on_ratio` — the hysteresis band
    /// that stops shedding from flapping around one threshold.
    pub shed_off_ratio: f64,
    /// Nominal queued-token capacity of one replica: the backlog it can
    /// hold while still meeting SLOs.
    pub replica_capacity_tokens: u64,
    /// Nominal serving throughput of one replica in tokens/second, used to
    /// estimate queueing delay for deadline-based early rejection.
    pub service_tokens_per_s: f64,
    /// Queueing-delay budget of interactive requests, in seconds.
    pub deadline_interactive_s: f64,
    /// Queueing-delay budget of standard requests, in seconds.
    pub deadline_standard_s: f64,
    /// Queueing-delay budget of best-effort requests, in seconds.
    pub deadline_best_effort_s: f64,
}

impl AdmissionConfig {
    /// Defaults calibrated for the overload studies: shed above 150% of
    /// capacity, recover below 75%.
    pub fn overload_defaults() -> Self {
        AdmissionConfig {
            shed_on_ratio: 1.5,
            shed_off_ratio: 0.75,
            replica_capacity_tokens: 40_000,
            service_tokens_per_s: 4_000.0,
            deadline_interactive_s: 30.0,
            deadline_standard_s: 120.0,
            deadline_best_effort_s: 600.0,
        }
    }

    /// A controller that is armed but can never shed: the on-threshold is
    /// unreachable. The configuration of the bit-for-bit equivalence
    /// proptests — decisions still run on every arrival, with no effect.
    pub fn never_sheds() -> Self {
        AdmissionConfig {
            shed_on_ratio: f64::INFINITY,
            ..AdmissionConfig::overload_defaults()
        }
    }

    /// The queueing-delay budget of `class`, in seconds.
    pub fn deadline_s(&self, class: TrafficClass) -> f64 {
        match class {
            TrafficClass::Interactive => self.deadline_interactive_s,
            TrafficClass::Standard => self.deadline_standard_s,
            TrafficClass::BestEffort => self.deadline_best_effort_s,
        }
    }

    /// Validates the hysteresis band and rates.
    pub fn validate(&self) -> Result<(), String> {
        let band_ok = self.shed_off_ratio >= 0.0 && self.shed_off_ratio < self.shed_on_ratio;
        if !band_ok {
            return Err(format!(
                "hysteresis band requires 0 <= off < on, got off {} / on {}",
                self.shed_off_ratio, self.shed_on_ratio
            ));
        }
        if self.replica_capacity_tokens == 0
            || self.service_tokens_per_s.is_nan()
            || self.service_tokens_per_s <= 0.0
        {
            return Err("replica capacity and service rate must be positive".to_string());
        }
        let deadlines_ok = self.deadline_interactive_s > 0.0
            && self.deadline_standard_s >= self.deadline_interactive_s
            && self.deadline_best_effort_s >= self.deadline_standard_s;
        if !deadlines_ok {
            return Err(
                "deadlines must be positive and loosen with the class (interactive <= \
                 standard <= best-effort)"
                    .to_string(),
            );
        }
        Ok(())
    }
}

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedReason {
    /// The fleet is saturated and the request's class is shed under
    /// class-priority shedding.
    Saturated,
    /// The estimated queueing delay already exceeds the class's deadline —
    /// serving it would be wasted work, so it is rejected at admission.
    DeadlineExceeded,
}

/// One admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionDecision {
    /// Route the request.
    Admit,
    /// Reject the request at the frontend.
    Shed(ShedReason),
}

/// The saturation-triggered load shedder.
///
/// The controller watches the fleet's backlog-to-capacity ratio. Crossing
/// `shed_on_ratio` arms shedding; only falling below `shed_off_ratio`
/// disarms it (hysteresis — a single threshold would flap admit/shed on
/// every request near the boundary). While shedding: best-effort traffic is
/// dropped outright (class-priority shedding), and any class whose
/// estimated queueing delay exceeds its deadline is rejected early. Off the
/// shedding state, every request is admitted — an armed-but-idle controller
/// is a no-op, which the equivalence proptests pin.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    config: AdmissionConfig,
    shedding: bool,
    transitions: u64,
}

impl AdmissionController {
    /// Creates a controller (shedding off).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`AdmissionConfig::validate`].
    pub fn new(config: AdmissionConfig) -> Self {
        config.validate().expect("valid admission config");
        AdmissionController {
            config,
            shedding: false,
            transitions: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// True while the controller is in the shedding state.
    pub fn is_shedding(&self) -> bool {
        self.shedding
    }

    /// Number of shedding on/off transitions so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Decides admission for one arriving request of `class`, given the
    /// fleet's current backlog (worst-case queued tokens) and ready replica
    /// count. Updates the hysteresis state first, so the decision reflects
    /// the ratio *including* this arrival's era.
    pub fn admit(
        &mut self,
        class: TrafficClass,
        backlog_tokens: u64,
        ready_replicas: usize,
    ) -> AdmissionDecision {
        let ready = ready_replicas.max(1);
        let capacity = self
            .config
            .replica_capacity_tokens
            .saturating_mul(ready as u64);
        let ratio = backlog_tokens as f64 / capacity as f64;
        if !self.shedding && ratio >= self.config.shed_on_ratio {
            self.shedding = true;
            self.transitions += 1;
        } else if self.shedding && ratio <= self.config.shed_off_ratio {
            self.shedding = false;
            self.transitions += 1;
        }
        if !self.shedding {
            return AdmissionDecision::Admit;
        }
        if class == TrafficClass::BestEffort {
            return AdmissionDecision::Shed(ShedReason::Saturated);
        }
        let est_wait_s = backlog_tokens as f64 / (self.config.service_tokens_per_s * ready as f64);
        if est_wait_s > self.config.deadline_s(class) {
            return AdmissionDecision::Shed(ShedReason::DeadlineExceeded);
        }
        AdmissionDecision::Admit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signals(attainment: f64, backlog_tokens: u64, active_replicas: usize) -> FleetSignals {
        FleetSignals {
            attainment,
            backlog_tokens,
            active_replicas,
        }
    }

    #[test]
    fn scales_up_on_missed_attainment_and_down_when_idle() {
        let mut scaler = Autoscaler::new(AutoscalerConfig::overload_defaults(1, 4));
        // Missed target -> up.
        assert_eq!(
            scaler.decide(60.0, &signals(0.80, 0, 2)),
            ScaleDecision::Up(1)
        );
        // Cooldown gates the next decision...
        assert_eq!(
            scaler.decide(80.0, &signals(0.80, 0, 3)),
            ScaleDecision::Hold
        );
        // ...then queue depth alone can trigger an up even at full
        // attainment (backlog leads attainment by a window).
        assert_eq!(
            scaler.decide(120.0, &signals(1.0, 500_000, 3)),
            ScaleDecision::Up(1)
        );
        // Healthy and idle -> down.
        assert_eq!(
            scaler.decide(300.0, &signals(1.0, 1_000, 4)),
            ScaleDecision::Down(1)
        );
        assert_eq!(scaler.decisions(), 3);
    }

    #[test]
    fn bounds_and_dead_band_hold() {
        let mut scaler = Autoscaler::new(AutoscalerConfig::overload_defaults(2, 3));
        // At max: overload cannot scale further up.
        assert_eq!(
            scaler.decide(60.0, &signals(0.5, 900_000, 3)),
            ScaleDecision::Hold
        );
        // At min: idleness cannot scale further down.
        assert_eq!(
            scaler.decide(120.0, &signals(1.0, 0, 2)),
            ScaleDecision::Hold
        );
        // In the dead band (attainment holds, backlog between thresholds):
        // hold, in both directions.
        let cfg = scaler.config();
        let mid = (cfg.scale_up_backlog_tokens + cfg.scale_down_backlog_tokens) / 2;
        let mid_total = mid * 2;
        assert_eq!(
            scaler.decide(180.0, &signals(1.0, mid_total, 2)),
            ScaleDecision::Hold
        );
        assert_eq!(scaler.decisions(), 0);
    }

    #[test]
    fn fixed_autoscaler_never_fires() {
        let mut scaler = Autoscaler::new(AutoscalerConfig::fixed(3));
        assert!(!scaler.config().is_elastic());
        for (t, s) in [
            (60.0, signals(0.0, u64::MAX / 2, 3)),
            (120.0, signals(1.0, 0, 3)),
        ] {
            assert_eq!(scaler.decide(t, &s), ScaleDecision::Hold);
        }
        assert_eq!(scaler.decisions(), 0);
    }

    #[test]
    fn step_is_clamped_to_the_bounds() {
        let mut config = AutoscalerConfig::overload_defaults(1, 4);
        config.step = 3;
        config.cooldown_s = 0.0;
        let mut scaler = Autoscaler::new(config);
        assert_eq!(
            scaler.decide(60.0, &signals(0.5, 0, 2)),
            ScaleDecision::Up(2),
            "step 3 clamps to the 2 slots below max"
        );
        assert_eq!(
            scaler.decide(120.0, &signals(1.0, 0, 3)),
            ScaleDecision::Down(2),
            "step 3 clamps to the 2 replicas above min"
        );
    }

    #[test]
    fn infinite_control_timings_rejected() {
        // Both once validated, then panicked mid-run when the fleet turned
        // them into sim time at a control boundary or a scale-up.
        let mut config = AutoscalerConfig::overload_defaults(1, 2);
        config.control_interval_s = f64::INFINITY;
        assert!(config.validate().is_err());
        let mut config = AutoscalerConfig::overload_defaults(1, 2);
        config.provisioning_delay_s = f64::INFINITY;
        assert!(config.validate().is_err());
    }

    #[test]
    fn nan_cooldown_rejected() {
        // Once validated, then switched the cooldown off: no elapsed time
        // compares below NaN.
        let mut config = AutoscalerConfig::overload_defaults(1, 2);
        config.cooldown_s = f64::NAN;
        assert!(config.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "dead band")]
    fn inverted_backlog_thresholds_rejected() {
        let mut config = AutoscalerConfig::overload_defaults(1, 2);
        config.scale_down_backlog_tokens = config.scale_up_backlog_tokens;
        let _ = Autoscaler::new(config);
    }

    #[test]
    fn hysteresis_stops_shedding_from_flapping() {
        let mut ctl = AdmissionController::new(AdmissionConfig::overload_defaults());
        let capacity = ctl.config().replica_capacity_tokens; // 1 replica
        let on = (capacity as f64 * 1.5) as u64 + 1;
        let between = capacity; // ratio 1.0: between off (0.75) and on (1.5)
                                // Below on-threshold: admit everything, even best-effort.
        assert_eq!(
            ctl.admit(TrafficClass::BestEffort, between, 1),
            AdmissionDecision::Admit
        );
        assert!(!ctl.is_shedding());
        // Crossing on: shedding arms.
        assert_eq!(
            ctl.admit(TrafficClass::BestEffort, on, 1),
            AdmissionDecision::Shed(ShedReason::Saturated)
        );
        assert!(ctl.is_shedding());
        // Backlog falls back *between* the thresholds: still shedding —
        // this is exactly where a single threshold would flap.
        assert_eq!(
            ctl.admit(TrafficClass::BestEffort, between, 1),
            AdmissionDecision::Shed(ShedReason::Saturated)
        );
        // Only dropping below the off-threshold disarms.
        assert_eq!(
            ctl.admit(TrafficClass::BestEffort, capacity / 2, 1),
            AdmissionDecision::Admit
        );
        assert!(!ctl.is_shedding());
        assert_eq!(ctl.transitions(), 2);
    }

    #[test]
    fn sheds_best_effort_before_interactive() {
        let mut ctl = AdmissionController::new(AdmissionConfig::overload_defaults());
        let on = (ctl.config().replica_capacity_tokens as f64 * 1.6) as u64;
        assert_eq!(
            ctl.admit(TrafficClass::BestEffort, on, 1),
            AdmissionDecision::Shed(ShedReason::Saturated)
        );
        // Same saturation: interactive and standard are still admitted (the
        // estimated wait is within their deadlines).
        assert_eq!(
            ctl.admit(TrafficClass::Interactive, on, 1),
            AdmissionDecision::Admit
        );
        assert_eq!(
            ctl.admit(TrafficClass::Standard, on, 1),
            AdmissionDecision::Admit
        );
    }

    #[test]
    fn deadline_rejection_kicks_in_at_extreme_backlog() {
        let mut ctl = AdmissionController::new(AdmissionConfig::overload_defaults());
        let cfg = *ctl.config();
        // Backlog implying a wait beyond the interactive deadline but
        // within the standard one.
        let wait = (cfg.deadline_interactive_s + cfg.deadline_standard_s) / 2.0;
        let backlog = (wait * cfg.service_tokens_per_s) as u64;
        assert!(backlog as f64 / cfg.replica_capacity_tokens as f64 > cfg.shed_on_ratio);
        assert_eq!(
            ctl.admit(TrafficClass::Interactive, backlog, 1),
            AdmissionDecision::Shed(ShedReason::DeadlineExceeded)
        );
        assert_eq!(
            ctl.admit(TrafficClass::Standard, backlog, 1),
            AdmissionDecision::Admit
        );
        // Way beyond every deadline: standard goes too.
        let extreme = backlog * 100;
        assert_eq!(
            ctl.admit(TrafficClass::Standard, extreme, 1),
            AdmissionDecision::Shed(ShedReason::DeadlineExceeded)
        );
    }

    #[test]
    fn never_sheds_configuration_admits_everything() {
        let mut ctl = AdmissionController::new(AdmissionConfig::never_sheds());
        for class in TrafficClass::all() {
            assert_eq!(ctl.admit(class, u64::MAX / 4, 1), AdmissionDecision::Admit);
        }
        assert!(!ctl.is_shedding());
        assert_eq!(ctl.transitions(), 0);
    }

    #[test]
    fn nan_deadlines_rejected() {
        // Once validated, then switched deadline shedding off for the
        // class: no estimated wait compares above NaN.
        for class in TrafficClass::all() {
            let mut config = AdmissionConfig::overload_defaults();
            match class {
                TrafficClass::Interactive => config.deadline_interactive_s = f64::NAN,
                TrafficClass::Standard => config.deadline_standard_s = f64::NAN,
                TrafficClass::BestEffort => config.deadline_best_effort_s = f64::NAN,
            }
            assert!(config.validate().is_err(), "NaN {} deadline", class.label());
        }
    }

    #[test]
    #[should_panic(expected = "off < on")]
    fn inverted_hysteresis_band_rejected() {
        let mut config = AdmissionConfig::overload_defaults();
        config.shed_off_ratio = config.shed_on_ratio;
        let _ = AdmissionController::new(config);
    }

    #[test]
    fn capacity_scales_with_ready_replicas() {
        let mut ctl = AdmissionController::new(AdmissionConfig::overload_defaults());
        let backlog = (ctl.config().replica_capacity_tokens as f64 * 1.6) as u64;
        // The same backlog over 4 ready replicas is well under the
        // on-threshold: no shedding.
        assert_eq!(
            ctl.admit(TrafficClass::BestEffort, backlog, 4),
            AdmissionDecision::Admit
        );
        // Over 1 replica it saturates.
        assert_eq!(
            ctl.admit(TrafficClass::BestEffort, backlog, 1),
            AdmissionDecision::Shed(ShedReason::Saturated)
        );
    }

    #[test]
    fn configs_serialise() {
        let a = AutoscalerConfig::overload_defaults(1, 8);
        let json = serde_json::to_string(&a).expect("serialise");
        assert_eq!(a, serde_json::from_str(&json).expect("deserialise"));
        let c = AdmissionConfig::overload_defaults();
        let json = serde_json::to_string(&c).expect("serialise");
        assert_eq!(c, serde_json::from_str(&json).expect("deserialise"));
    }
}
