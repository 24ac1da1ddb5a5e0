//! Request arrival processes.
//!
//! Following the paper (§7.1) and prior serving work, request arrivals are
//! generated by a Poisson process with a configurable rate. Two shapes
//! beyond the paper drive the overload tiers: a Markov-modulated Poisson
//! process for bursty memory pressure, and a diurnal curve with a flash
//! crowd for the autoscaler. Every trace draws its instants lazily through
//! [`ArrivalStream`].

use loong_simcore::distributions::Exponential;
use loong_simcore::rng::SimRng;
use loong_simcore::time::{SimDuration, SimTime};

/// The arrival pattern of requests at the serving frontend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals with the given mean rate (requests/second). This
    /// is the pattern used throughout the paper's evaluation.
    Poisson {
        /// Mean arrival rate in requests per second.
        rate: f64,
    },
    /// A two-state Markov-modulated Poisson process: the arrival rate
    /// switches between `rate_high` and `rate_low` with exponentially
    /// distributed sojourn times (means `mean_high_secs` / `mean_low_secs`),
    /// so burst and lull lengths are themselves random — the standard model
    /// for the bursty overload traffic that exercises memory-pressure
    /// policies. The process starts in the high state; `rate_low` may be
    /// zero (a pure on–off MMPP).
    MarkovModulated {
        /// Arrival rate in the high (burst) state, in requests per second.
        rate_high: f64,
        /// Arrival rate in the low (lull) state; may be zero.
        rate_low: f64,
        /// Mean sojourn time in the high state, in seconds.
        mean_high_secs: f64,
        /// Mean sojourn time in the low state, in seconds.
        mean_low_secs: f64,
    },
    /// A non-homogeneous Poisson process with a diurnal (sinusoidal) rate
    /// curve plus an optional flash-crowd burst: the instantaneous rate is
    ///
    /// ```text
    /// λ(t) = trough + (peak − trough) · ½(1 − cos(2πt/period))
    ///        + flash_rate · 1[flash_start ≤ t < flash_start + flash_secs]
    /// ```
    ///
    /// so the curve starts at its trough at `t = 0`, peaks at half a
    /// period, and a rectangular flash crowd of `flash_rate` extra
    /// requests/second rides on top during its window (`flash_secs = 0`
    /// disables it). Arrivals are generated by Lewis–Shedler thinning of a
    /// homogeneous process at `λ_max = peak + flash_rate`, which is exact
    /// and fully deterministic under a seeded [`SimRng`]. This is the
    /// workload shape the elasticity tier's autoscaler is judged on:
    /// capacity should track the diurnal swell and survive the flash.
    DiurnalFlash {
        /// Arrival rate at the bottom of the diurnal trough, in
        /// requests/second.
        trough_rate: f64,
        /// Arrival rate at the diurnal peak (flash excluded), in
        /// requests/second. Must be ≥ `trough_rate`.
        peak_rate: f64,
        /// Length of one full diurnal cycle, in seconds.
        period_secs: f64,
        /// Start of the flash-crowd window on the sim clock, in seconds.
        flash_start_s: f64,
        /// Length of the flash-crowd window, in seconds (0 disables it).
        flash_secs: f64,
        /// Extra arrival rate during the flash window, in requests/second.
        flash_rate: f64,
    },
}

/// The arrival instants of one process, drawn lazily from a seeded RNG.
///
/// Every process variant advances with O(1) state (current clock,
/// modulation state), so arrivals are *streamed*: pulled one at a time
/// without materialising the whole `Vec<SimTime>`. For a fixed process and
/// seed the instants are the same bit for bit on every run.
///
/// The iterator is infinite; callers bound it with `take` or by reading
/// until a horizon.
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    process: ArrivalProcess,
    rng: SimRng,
    state: StreamState,
}

/// The O(1) per-variant generator state.
#[derive(Debug, Clone)]
enum StreamState {
    /// Running clock.
    Poisson { t: SimTime },
    /// Running clock, modulation state, and the instant the state flips.
    Mmpp { t: f64, high: bool, window_end: f64 },
    /// Running clock of the homogeneous candidate process being thinned.
    Diurnal { t: f64 },
}

impl ArrivalStream {
    /// Starts streaming `process` from time zero, drawing from `rng`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid MMPP or diurnal configuration; the diurnal
    /// curve's own checks run at the first draw.
    pub fn new(process: ArrivalProcess, mut rng: SimRng) -> Self {
        let state = match process {
            ArrivalProcess::Poisson { .. } => StreamState::Poisson { t: SimTime::ZERO },
            ArrivalProcess::MarkovModulated {
                rate_high,
                rate_low,
                mean_high_secs,
                mean_low_secs,
            } => {
                assert!(
                    rate_high > 0.0 && rate_low >= 0.0,
                    "MMPP rates must be non-negative with a positive high rate"
                );
                assert!(
                    mean_high_secs > 0.0 && mean_low_secs > 0.0,
                    "MMPP sojourn means must be positive"
                );
                // The first sojourn is drawn before any arrival.
                let window_end = Exponential::new(1.0 / mean_high_secs).sample(&mut rng);
                StreamState::Mmpp {
                    t: 0.0,
                    high: true,
                    window_end,
                }
            }
            ArrivalProcess::DiurnalFlash { .. } => {
                let lambda_max = process.diurnal_lambda_max();
                assert!(lambda_max > 0.0, "diurnal peak rate must be positive");
                StreamState::Diurnal { t: 0.0 }
            }
        };
        ArrivalStream {
            process,
            rng,
            state,
        }
    }
}

impl Iterator for ArrivalStream {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        Some(match (&mut self.state, self.process) {
            (StreamState::Poisson { t }, ArrivalProcess::Poisson { rate }) => {
                let exp = Exponential::new(rate);
                *t += SimDuration::from_secs(exp.sample(&mut self.rng));
                *t
            }
            (
                StreamState::Mmpp {
                    t,
                    high,
                    window_end,
                },
                ArrivalProcess::MarkovModulated {
                    rate_high,
                    rate_low,
                    mean_high_secs,
                    mean_low_secs,
                },
            ) => {
                // Competing exponentials: sample the next arrival at the
                // current state's rate; if it lands past the state's end,
                // discard the partial gap (valid by memorylessness), jump to
                // the boundary and switch states.
                loop {
                    let rate = if *high { rate_high } else { rate_low };
                    let next = if rate > 0.0 {
                        *t + Exponential::new(rate).sample(&mut self.rng)
                    } else {
                        f64::INFINITY
                    };
                    if next <= *window_end {
                        *t = next;
                        break SimTime::from_secs(*t);
                    }
                    *t = *window_end;
                    *high = !*high;
                    let mean = if *high { mean_high_secs } else { mean_low_secs };
                    *window_end = *t + Exponential::new(1.0 / mean).sample(&mut self.rng);
                }
            }
            (StreamState::Diurnal { t }, process @ ArrivalProcess::DiurnalFlash { .. }) => {
                let lambda_max = process.diurnal_lambda_max();
                let exp = Exponential::new(lambda_max);
                // Thinning: accept with probability λ(t)/λ_max. The
                // uniform draw happens for every candidate, so the
                // stream is deterministic regardless of acceptance.
                loop {
                    *t += exp.sample(&mut self.rng);
                    let u = self.rng.uniform01();
                    if u * lambda_max < process.diurnal_rate_at(*t) {
                        break SimTime::from_secs(*t);
                    }
                }
            }
            _ => unreachable!("state always matches the process variant"),
        })
    }
}

impl ArrivalProcess {
    /// The instantaneous rate λ(t) of a [`ArrivalProcess::DiurnalFlash`]
    /// process, in requests/second (0 for every other variant).
    pub fn diurnal_rate_at(&self, t_s: f64) -> f64 {
        let ArrivalProcess::DiurnalFlash {
            trough_rate,
            peak_rate,
            period_secs,
            flash_start_s,
            flash_secs,
            flash_rate,
        } = *self
        else {
            return 0.0;
        };
        assert!(
            trough_rate >= 0.0 && peak_rate >= trough_rate,
            "diurnal rates must satisfy 0 ≤ trough ≤ peak"
        );
        assert!(period_secs > 0.0, "diurnal period must be positive");
        assert!(
            flash_secs >= 0.0 && flash_rate >= 0.0 && flash_start_s >= 0.0,
            "flash parameters must be non-negative"
        );
        let phase = (t_s / period_secs) * std::f64::consts::TAU;
        let diurnal = trough_rate + (peak_rate - trough_rate) * 0.5 * (1.0 - phase.cos());
        let flash = if t_s >= flash_start_s && t_s < flash_start_s + flash_secs {
            flash_rate
        } else {
            0.0
        };
        diurnal + flash
    }

    /// The thinning envelope of a [`ArrivalProcess::DiurnalFlash`] process:
    /// the maximum instantaneous rate λ_max = peak + flash.
    fn diurnal_lambda_max(&self) -> f64 {
        let ArrivalProcess::DiurnalFlash {
            peak_rate,
            flash_rate,
            ..
        } = *self
        else {
            return 0.0;
        };
        peak_rate + flash_rate
    }

    /// The long-run average rate of the process, in requests per second.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } => rate,
            // Time-weighted average over the stationary state distribution,
            // which for a two-state chain is proportional to the sojourn
            // means.
            ArrivalProcess::MarkovModulated {
                rate_high,
                rate_low,
                mean_high_secs,
                mean_low_secs,
            } => {
                (rate_high * mean_high_secs + rate_low * mean_low_secs)
                    / (mean_high_secs + mean_low_secs)
            }
            // Average of the sinusoid over whole periods; the flash crowd
            // is a transient, not part of the long-run rate.
            ArrivalProcess::DiurnalFlash {
                trough_rate,
                peak_rate,
                ..
            } => 0.5 * (trough_rate + peak_rate),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first `count` instants of `process` under `seed`.
    fn draw(process: ArrivalProcess, count: usize, seed: u64) -> Vec<SimTime> {
        ArrivalStream::new(process, SimRng::seed(seed))
            .take(count)
            .collect()
    }

    #[test]
    fn poisson_arrivals_are_monotone_and_match_rate() {
        let times = draw(ArrivalProcess::Poisson { rate: 2.0 }, 5000, 1);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        let horizon = times.last().unwrap().as_secs();
        let rate = times.len() as f64 / horizon;
        assert!((rate - 2.0).abs() < 0.15, "empirical rate {rate}");
    }

    #[test]
    fn mean_rate_reported_correctly() {
        assert_eq!(ArrivalProcess::Poisson { rate: 3.0 }.mean_rate(), 3.0);
    }

    fn mmpp() -> ArrivalProcess {
        ArrivalProcess::MarkovModulated {
            rate_high: 20.0,
            rate_low: 1.0,
            mean_high_secs: 2.0,
            mean_low_secs: 8.0,
        }
    }

    #[test]
    fn mmpp_is_deterministic_and_monotone() {
        let a = draw(mmpp(), 500, 11);
        let b = draw(mmpp(), 500, 11);
        assert_eq!(a, b, "same seed must reproduce the same arrivals");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let c = draw(mmpp(), 500, 12);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn mmpp_empirical_rate_matches_stationary_mean() {
        // (20*2 + 1*8) / 10 = 4.8 req/s long-run.
        let proc = mmpp();
        assert!((proc.mean_rate() - 4.8).abs() < 1e-12);
        let times = draw(proc, 20_000, 7);
        let horizon = times.last().unwrap().as_secs();
        let rate = times.len() as f64 / horizon;
        assert!(
            (rate - 4.8).abs() / 4.8 < 0.10,
            "empirical rate {rate} vs stationary 4.8"
        );
    }

    #[test]
    fn mmpp_is_burstier_than_poisson_at_equal_mean_rate() {
        // Squared coefficient of variation of inter-arrival gaps: 1 for a
        // Poisson process, strictly larger for an MMPP with distinct rates.
        let gaps = |times: &[SimTime]| -> Vec<f64> {
            times.windows(2).map(|w| (w[1] - w[0]).as_secs()).collect()
        };
        let cv2 = |g: &[f64]| -> f64 {
            let mean = g.iter().sum::<f64>() / g.len() as f64;
            let var = g.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / g.len() as f64;
            var / (mean * mean)
        };
        let bursty = cv2(&gaps(&draw(mmpp(), 20_000, 3)));
        let poisson = cv2(&gaps(&draw(
            ArrivalProcess::Poisson { rate: 4.8 },
            20_000,
            3,
        )));
        assert!(
            bursty > 1.5 && bursty > poisson * 1.3,
            "MMPP cv² {bursty} should exceed Poisson cv² {poisson}"
        );
    }

    #[test]
    fn mmpp_with_zero_low_rate_is_pure_on_off() {
        let proc = ArrivalProcess::MarkovModulated {
            rate_high: 10.0,
            rate_low: 0.0,
            mean_high_secs: 1.0,
            mean_low_secs: 4.0,
        };
        assert!((proc.mean_rate() - 2.0).abs() < 1e-12);
        let times = draw(proc, 300, 5);
        assert_eq!(times.len(), 300);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    fn diurnal() -> ArrivalProcess {
        ArrivalProcess::DiurnalFlash {
            trough_rate: 1.0,
            peak_rate: 9.0,
            period_secs: 600.0,
            flash_start_s: 200.0,
            flash_secs: 60.0,
            flash_rate: 20.0,
        }
    }

    #[test]
    fn diurnal_flash_is_deterministic_and_monotone() {
        let a = draw(diurnal(), 2_000, 31);
        let b = draw(diurnal(), 2_000, 31);
        assert_eq!(a, b, "same seed must reproduce the same arrivals");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let c = draw(diurnal(), 2_000, 32);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn diurnal_rate_curve_starts_at_trough_and_peaks_mid_period() {
        let proc = diurnal();
        assert!((proc.diurnal_rate_at(0.0) - 1.0).abs() < 1e-9);
        assert!((proc.diurnal_rate_at(300.0) - 9.0).abs() < 1e-9);
        assert!((proc.diurnal_rate_at(600.0) - 1.0).abs() < 1e-9);
        // Inside the flash window the flash rate rides on the sinusoid.
        let base_230 = 1.0 + 8.0 * 0.5 * (1.0 - (230.0 / 600.0 * std::f64::consts::TAU).cos());
        assert!((proc.diurnal_rate_at(230.0) - (base_230 + 20.0)).abs() < 1e-9);
        // Just past the window the flash is gone.
        assert!(proc.diurnal_rate_at(260.0) < proc.diurnal_rate_at(259.999) - 19.0);
        assert!((proc.mean_rate() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn diurnal_arrivals_track_the_rate_curve() {
        // Empirical counts in the trough, at the peak and inside the flash
        // window must order and roughly scale like λ(t).
        let times = draw(diurnal(), 6_000, 8);
        let count_in = |lo: f64, hi: f64| -> usize {
            times
                .iter()
                .filter(|t| t.as_secs() >= lo && t.as_secs() < hi)
                .count()
        };
        // First cycle: trough [0, 60) vs peak [270, 330) (both 60 s, no
        // flash overlap with the peak window... flash is [200, 260)).
        let trough = count_in(0.0, 60.0);
        let peak = count_in(270.0, 330.0);
        let flash = count_in(200.0, 260.0);
        assert!(
            peak as f64 > 3.0 * trough.max(1) as f64,
            "peak window ({peak}) must dwarf the trough window ({trough})"
        );
        // The flash window's rate (~26 req/s) beats the bare peak (~9).
        assert!(
            flash as f64 > 1.5 * peak as f64,
            "flash window ({flash}) must dwarf the bare peak ({peak})"
        );
    }

    #[test]
    fn diurnal_without_flash_has_no_burst_window() {
        let proc = ArrivalProcess::DiurnalFlash {
            trough_rate: 2.0,
            peak_rate: 6.0,
            period_secs: 100.0,
            flash_start_s: 0.0,
            flash_secs: 0.0,
            flash_rate: 50.0,
        };
        // flash_secs = 0 disables the flash entirely.
        assert!((proc.diurnal_rate_at(0.0) - 2.0).abs() < 1e-9);
        assert!((proc.mean_rate() - 4.0).abs() < 1e-12);
        let times = draw(proc, 4_000, 12);
        let horizon = times.last().unwrap().as_secs();
        let rate = times.len() as f64 / horizon;
        assert!(
            (rate - 4.0).abs() / 4.0 < 0.10,
            "empirical rate {rate} vs long-run 4.0"
        );
    }

    #[test]
    #[should_panic(expected = "trough ≤ peak")]
    fn diurnal_rejects_inverted_rates() {
        let proc = ArrivalProcess::DiurnalFlash {
            trough_rate: 5.0,
            peak_rate: 1.0,
            period_secs: 100.0,
            flash_start_s: 0.0,
            flash_secs: 0.0,
            flash_rate: 0.0,
        };
        let _ = draw(proc, 1, 1);
    }

    #[test]
    #[should_panic(expected = "sojourn means")]
    fn mmpp_rejects_non_positive_sojourns() {
        let proc = ArrivalProcess::MarkovModulated {
            rate_high: 10.0,
            rate_low: 0.0,
            mean_high_secs: 0.0,
            mean_low_secs: 4.0,
        };
        let _ = draw(proc, 1, 1);
    }
}
