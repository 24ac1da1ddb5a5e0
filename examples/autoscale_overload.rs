//! Graceful degradation under overload: what elasticity and shedding buy.
//!
//! Replays one mixed-class diurnal + flash-crowd trace against LoongServe
//! four ways: a static fleet sized for the trough (one replica), a static
//! fleet sized for the flash (four replicas), an SLO-driven elastic fleet
//! scaling between the two, and the elastic fleet with the admission
//! controller armed. Prints the capacity-efficiency table an operator
//! would read off the elasticity ledger: completions, sheds,
//! replica-seconds paid, SLO-goodput per replica-second, per-class SLO
//! attainment, and scale activity.
//!
//! ```text
//! cargo run --release --example autoscale_overload
//! ```
//!
//! Set `LOONG_SMOKE=1` for the reduced configuration CI uses.

use loongserve::prelude::*;

const MAX_REPLICAS: usize = 4;
const SEED: u64 = 2026;

const FLASH_START_S: f64 = 80.0;
const FLASH_SECS: f64 = 50.0;

fn arrivals() -> ArrivalProcess {
    ArrivalProcess::DiurnalFlash {
        trough_rate: 0.4,
        peak_rate: 1.2,
        period_secs: 300.0,
        flash_start_s: FLASH_START_S,
        flash_secs: FLASH_SECS,
        flash_rate: 8.0,
    }
}

/// The elastic policy shared by both autoscaled rows: 10 s control
/// boundaries, one replica per step, a 12k/24k-token backlog dead band,
/// and a 5 s provisioning delay for cold replicas.
fn scaler() -> AutoscalerConfig {
    let mut scaler = AutoscalerConfig::overload_defaults(1, MAX_REPLICAS);
    scaler.control_interval_s = 10.0;
    scaler.cooldown_s = 5.0;
    scaler.provisioning_delay_s = 5.0;
    scaler.scale_up_backlog_tokens = 24_000;
    scaler.scale_down_backlog_tokens = 12_000;
    scaler
}

/// Shed above 150% of nominal queued-token capacity, recover below 75% —
/// the hysteresis band that keeps the shedding decision from flapping.
fn admission() -> AdmissionConfig {
    let mut adm = AdmissionConfig::overload_defaults();
    adm.replica_capacity_tokens = 25_000;
    adm.service_tokens_per_s = 8_000.0;
    adm
}

struct Row {
    label: &'static str,
    outcome: FleetRun,
}

impl Row {
    fn goodput_per_rs(&self, slo: &SloSpec) -> f64 {
        slo_goodput_per_replica_second(
            &self.outcome.fleet.records,
            slo,
            self.outcome.elasticity.replica_seconds,
        )
    }

    fn attainment_of(&self, slo: &SloSpec, class: TrafficClass) -> f64 {
        self.outcome
            .class_attainment(slo)
            .into_iter()
            .find(|(c, _)| *c == class)
            .map(|(_, a)| a)
            .unwrap_or(1.0)
    }
}

fn run(label: &'static str, replicas: usize, trace: &Trace, plan: &FleetPlan) -> Row {
    let mut fleet = FleetEngine::new(FleetConfig::paper_fleet(
        SystemKind::LoongServe,
        replicas,
        RouterPolicy::JoinShortestQueue,
    ));
    let stream = TraceStream::from_trace(trace.clone());
    let outcome = fleet.run(stream, plan, None).expect("valid plan");
    assert_eq!(
        outcome.total_requests(),
        trace.len(),
        "{label}: every request must be accounted for exactly once"
    );
    Row { label, outcome }
}

fn main() {
    let smoke = std::env::var("LOONG_SMOKE").is_ok();
    let count = if smoke { 140 } else { 360 };
    let mut rng = SimRng::seed(SEED);
    let trace = Trace::generate_mixed_classes(
        arrivals(),
        count,
        &MixedClassProfile::overload_mix(),
        &mut rng,
    );
    let slo = SloSpec::default_for_lwm();
    println!(
        "Overload: {} mixed-class requests (diurnal 0.4-1.2/s; flash 8/s at \
         {FLASH_START_S} s for {FLASH_SECS} s) against LoongServe fleets (JSQ routing)\n",
        trace.len()
    );

    let rows = [
        run(
            "static, trough-sized (x1)",
            1,
            &trace,
            &FleetPlan::armed_idle(1),
        ),
        run(
            "static, flash-sized (x4)",
            MAX_REPLICAS,
            &trace,
            &FleetPlan::armed_idle(MAX_REPLICAS),
        ),
        run(
            "autoscaled (1..4)",
            MAX_REPLICAS,
            &trace,
            &FleetPlan::new(scaler()),
        ),
        run(
            "autoscaled + shedding",
            MAX_REPLICAS,
            &trace,
            &FleetPlan::new(scaler()).with_admission(admission()),
        ),
    ];

    println!(
        "| {:<25} | {:>5} | {:>4} | {:>9} | {:>13} | {:>8} | {:>8} | {:>8} | {:>9} |",
        "scenario",
        "done",
        "shed",
        "replica-s",
        "goodput/rep-s",
        "interact",
        "standard",
        "best-eff",
        "ups/downs"
    );
    println!(
        "|{}|{}|{}|{}|{}|{}|{}|{}|{}|",
        "-".repeat(27),
        "-".repeat(7),
        "-".repeat(6),
        "-".repeat(11),
        "-".repeat(15),
        "-".repeat(10),
        "-".repeat(10),
        "-".repeat(10),
        "-".repeat(11)
    );
    for row in &rows {
        let e = &row.outcome.elasticity;
        println!(
            "| {:<25} | {:>5} | {:>4} | {:>9.1} | {:>13.4} | {:>8.3} | {:>8.3} | {:>8.3} | {:>4}/{:<4} |",
            row.label,
            row.outcome.fleet.records.len(),
            row.outcome.shed.len(),
            e.replica_seconds,
            row.goodput_per_rs(&slo),
            row.attainment_of(&slo, TrafficClass::Interactive),
            row.attainment_of(&slo, TrafficClass::Standard),
            row.attainment_of(&slo, TrafficClass::BestEffort),
            e.scale_up_events,
            e.scale_down_events
        );
    }

    let [small, large, scaled, shedding] = &rows;
    // The static rows are armed-but-idle elastic runs: the controllers run
    // at every boundary and never fire, so their ledgers stay clean.
    for r in [small, large] {
        assert_eq!(r.outcome.elasticity.scale_up_events, 0);
        assert_eq!(r.outcome.elasticity.shed_total(), 0);
        assert!(r.outcome.shed.is_empty());
    }
    // Elasticity pays for fewer replica-seconds than the flash-sized fleet
    // and turns them into strictly better SLO-goodput per replica-second.
    assert!(scaled.outcome.elasticity.replica_seconds < large.outcome.elasticity.replica_seconds);
    assert!(scaled.goodput_per_rs(&slo) > large.goodput_per_rs(&slo));
    assert!(scaled.outcome.elasticity.scale_up_events >= 1);
    assert!(scaled.outcome.elasticity.scale_down_events >= 1);
    // Shedding is class-priority: best-effort is dropped before interactive,
    // and interactive attainment through the flash beats the melting
    // trough-sized fleet.
    let e = &shedding.outcome.elasticity;
    assert!(e.shed_total() > 0, "the flash must trigger shedding");
    assert!(e.shed_best_effort >= e.shed_interactive);
    assert!(
        shedding.attainment_of(&slo, TrafficClass::Interactive)
            > small.attainment_of(&slo, TrafficClass::Interactive)
    );

    println!(
        "\nThe trough-sized fleet melts in the flash crowd — interactive\n\
         attainment collapses while its queue drains. The flash-sized fleet\n\
         serves everything but pays for idle replicas all night, which is\n\
         what the goodput-per-replica-second column prices in. The elastic\n\
         fleet rides the burst at four replicas and retires back to one as\n\
         the queue drains — no request is killed by a scale event — and\n\
         shedding buys the interactive SLO back by dropping best-effort\n\
         work at admission, behind a hysteresis band so the decision\n\
         cannot flap."
    );
}
