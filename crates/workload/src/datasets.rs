//! Dataset length models.
//!
//! The paper evaluates on three real datasets plus a mixture (§7.1):
//!
//! * **ShareGPT** — conversational traffic, 4–2.3K-token prompts with
//!   relatively long generated outputs,
//! * **L-Eval** — long-document tasks, 2.7K–210.5K-token prompts with short
//!   answers,
//! * **LV-Eval** — the longest-context QA benchmark available at the time,
//!   15.1K–497.3K-token prompts with very short answers,
//! * **Mixed** — an equal-probability mixture of the three,
//!
//! and, for the Figure 12 ablation, Zipf-reshaped variants of the mixture
//! capped at 200K tokens. The real traces are not redistributable, so this
//! module provides synthetic samplers calibrated to the published ranges;
//! the serving-system comparison depends only on the joint distribution of
//! input/output lengths, which these samplers reproduce.

use loong_simcore::distributions::{Empirical, Exponential, LogNormal, LogUniform, Zipf};
use loong_simcore::rng::SimRng;
use serde::{Deserialize, Serialize};

/// A sampled (input length, output length) pair in tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LengthSample {
    /// Prompt length in tokens.
    pub input_len: u64,
    /// Generated output length in tokens.
    pub output_len: u64,
}

/// The workload families used in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetKind {
    /// ShareGPT-like conversational traffic (short prompts, long outputs).
    ShareGpt,
    /// L-Eval-like long-document tasks (2.7K–210.5K prompts, short outputs).
    LEval,
    /// LV-Eval-like extreme-context QA (15.1K–497.3K prompts, tiny outputs).
    LvEval,
    /// Equal mixture of the three datasets.
    Mixed,
}

impl DatasetKind {
    /// All dataset kinds, in the order the paper's Figure 10 rows use.
    pub fn all() -> [DatasetKind; 4] {
        [
            DatasetKind::ShareGpt,
            DatasetKind::LEval,
            DatasetKind::LvEval,
            DatasetKind::Mixed,
        ]
    }

    /// Human-readable name matching the paper's figure labels.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::ShareGpt => "ShareGPT",
            DatasetKind::LEval => "L-Eval",
            DatasetKind::LvEval => "LV-Eval",
            DatasetKind::Mixed => "Mixed",
        }
    }

    /// The request rates (requests/second) swept for this dataset in
    /// Figure 10. Longer-context datasets saturate the cluster at much lower
    /// rates.
    pub fn figure10_rates(&self) -> Vec<f64> {
        match self {
            DatasetKind::ShareGpt => vec![2.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0],
            DatasetKind::LEval => vec![0.25, 0.5, 1.0, 1.5, 2.0, 2.5],
            DatasetKind::LvEval => vec![0.025, 0.05, 0.075, 0.1, 0.15, 0.2],
            DatasetKind::Mixed => vec![0.05, 0.1, 0.2, 0.3, 0.45, 0.6],
        }
    }
}

/// A sampler of request lengths for one dataset family.
#[derive(Debug, Clone)]
pub struct DatasetSampler {
    kind: DatasetKind,
    sharegpt_input: LogNormal,
    sharegpt_output: LogNormal,
    leval_input: LogUniform,
    leval_output: LogNormal,
    lveval_input: LogUniform,
    lveval_output: LogUniform,
    mixture: Empirical<u8>,
    /// Optional hard cap applied to sampled input lengths.
    max_input_len: Option<u64>,
}

impl DatasetSampler {
    /// Creates a sampler for the given dataset family.
    pub fn new(kind: DatasetKind) -> Self {
        DatasetSampler {
            kind,
            // ShareGPT: median prompt around 250 tokens, hard range 4–2.3K
            // (the ChatGPT-3.5 context window at collection time), outputs a
            // few hundred tokens.
            sharegpt_input: LogNormal::new(5.5, 1.0, 4.0, 2_300.0),
            sharegpt_output: LogNormal::new(5.3, 0.9, 4.0, 2_000.0),
            // L-Eval: documents spread log-uniformly over 2.7K–210.5K with
            // answers of a few hundred tokens.
            leval_input: LogUniform::new(2_700.0, 210_500.0),
            leval_output: LogNormal::new(5.0, 0.8, 16.0, 1_000.0),
            // LV-Eval: 15.1K–497.3K prompts, short extractive answers.
            lveval_input: LogUniform::new(15_100.0, 497_300.0),
            lveval_output: LogUniform::new(8.0, 128.0),
            mixture: Empirical::new(vec![(0u8, 1.0), (1u8, 1.0), (2u8, 1.0)]),
            max_input_len: None,
        }
    }

    /// Applies a hard cap to sampled input lengths (used by the Figure 12
    /// ablation, which limits requests to 200K tokens so the replicated
    /// baseline can serve them at all).
    pub fn with_max_input_len(mut self, cap: u64) -> Self {
        assert!(cap > 0, "cap must be positive");
        self.max_input_len = Some(cap);
        self
    }

    /// The dataset family this sampler draws from.
    pub fn kind(&self) -> DatasetKind {
        self.kind
    }

    /// Draws one (input, output) length pair.
    pub fn sample(&self, rng: &mut SimRng) -> LengthSample {
        let raw = match self.kind {
            DatasetKind::ShareGpt => self.sample_sharegpt(rng),
            DatasetKind::LEval => self.sample_leval(rng),
            DatasetKind::LvEval => self.sample_lveval(rng),
            DatasetKind::Mixed => match self.mixture.sample(rng) {
                0 => self.sample_sharegpt(rng),
                1 => self.sample_leval(rng),
                _ => self.sample_lveval(rng),
            },
        };
        self.apply_cap(raw)
    }

    fn apply_cap(&self, mut s: LengthSample) -> LengthSample {
        if let Some(cap) = self.max_input_len {
            s.input_len = s.input_len.min(cap);
        }
        s
    }

    fn sample_sharegpt(&self, rng: &mut SimRng) -> LengthSample {
        LengthSample {
            input_len: self.sharegpt_input.sample(rng).round().max(4.0) as u64,
            output_len: self.sharegpt_output.sample(rng).round().max(4.0) as u64,
        }
    }

    fn sample_leval(&self, rng: &mut SimRng) -> LengthSample {
        LengthSample {
            input_len: self.leval_input.sample(rng).round() as u64,
            output_len: self.leval_output.sample(rng).round().max(16.0) as u64,
        }
    }

    fn sample_lveval(&self, rng: &mut SimRng) -> LengthSample {
        LengthSample {
            input_len: self.lveval_input.sample(rng).round() as u64,
            output_len: self.lveval_output.sample(rng).round().max(8.0) as u64,
        }
    }
}

/// Shape of a multi-turn conversation workload.
///
/// Calibrated to the published ShareGPT statistics the paper's multi-turn
/// rows build on: conversations average a handful of assistant turns (the
/// public dumps cluster around 3–4 human/assistant rounds with a long tail),
/// and each follow-up prompt carries the full prior context plus a fresh
/// user message. Round counts are geometric (capped), think times
/// exponential — both sampled from forked [`SimRng`] substreams, so traces
/// stay deterministic.
///
/// Think time is **open-loop**: a follow-up's arrival is the *previous
/// turn's arrival* plus the sampled think time, fixed at trace generation
/// (the trace cannot see service times). When queueing plus service
/// exceeds the think time — exactly the overloaded regimes the benches
/// probe — follow-ups arrive before their previous turn finishes and
/// cannot hit the prefix cache, so measured hit rates fall with load by
/// construction. A closed-loop "think after the answer" model would need
/// arrivals generated inside the engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiTurnProfile {
    /// Mean turns per conversation (geometric, at least one).
    pub mean_rounds: f64,
    /// Hard cap on turns per conversation (the geometric tail is cut here).
    pub max_rounds: u32,
    /// Mean gap between consecutive turn *arrivals* of one conversation,
    /// in seconds (exponential; open-loop — see the type docs).
    pub mean_think_s: f64,
}

impl MultiTurnProfile {
    /// The ShareGPT-calibrated profile: ~3.5 turns per conversation on
    /// average, capped at 16, with ~30 s of user think time between turns.
    pub fn sharegpt() -> Self {
        MultiTurnProfile {
            mean_rounds: 3.5,
            max_rounds: 16,
            mean_think_s: 30.0,
        }
    }

    /// Validates ranges: every mean must give its sampler a finite,
    /// positive exponential rate.
    pub fn validate(&self) -> Result<(), String> {
        // Above one round `sample_rounds` draws at rate -ln(1 - 1/mean),
        // which NaN, infinite and huge means leave at NaN or zero.
        let rounds_rate = -(1.0 - 1.0 / self.mean_rounds).ln();
        if !(self.mean_rounds == 1.0 || (self.mean_rounds > 1.0 && rounds_rate > 0.0)) {
            return Err(format!(
                "mean rounds must be at least 1 and small enough for a positive \
                 geometric rate, got {}",
                self.mean_rounds
            ));
        }
        if self.max_rounds == 0 {
            return Err("max rounds must be positive".to_string());
        }
        let think_rate = 1.0 / self.mean_think_s;
        if !(think_rate.is_finite() && think_rate > 0.0) {
            return Err(format!(
                "mean think time must be finite and positive, got {}",
                self.mean_think_s
            ));
        }
        Ok(())
    }

    /// Samples a conversation's turn count: geometric with the configured
    /// mean, starting at one turn, capped at `max_rounds`. A geometric on
    /// `{1, 2, ...}` with success probability `p = 1/mean` is the floor of
    /// an exponential with rate `-ln(1 - p)`, plus one.
    pub fn sample_rounds(&self, rng: &mut SimRng) -> u32 {
        let p = (1.0 / self.mean_rounds).min(1.0);
        if p >= 1.0 {
            return 1;
        }
        let rate = -(1.0 - p).ln();
        let extra = Exponential::new(rate).sample(rng).floor() as u32;
        extra.saturating_add(1).min(self.max_rounds)
    }

    /// Samples the think time before a follow-up turn, in seconds. The
    /// floor keeps follow-up arrivals strictly after the previous turn.
    pub fn sample_think_s(&self, rng: &mut SimRng) -> f64 {
        Exponential::new(1.0 / self.mean_think_s)
            .sample(rng)
            .max(1e-3)
    }
}

/// The traffic-class mixture of the elasticity tier's overload studies.
///
/// Each arrival event of the generating process becomes one of three
/// streams, drawn deterministically from a seeded substream:
///
/// * **interactive** — a single-shot ShareGPT-shaped request
///   ([`TrafficClass::Interactive`](crate::request::TrafficClass)), the
///   remainder after the other two fractions;
/// * **long-document** — a single-shot L-Eval-shaped request tagged
///   best-effort: big prompts whose latency tolerance is loose and which
///   the admission controller sheds first under saturation;
/// * **multi-turn** — the event *starts a conversation* (geometric rounds,
///   open-loop think times per [`MultiTurnProfile`]) whose turns are all
///   tagged standard; follow-ups add requests beyond the event count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MixedClassProfile {
    /// Fraction of arrival events that are long-document best-effort
    /// requests.
    pub long_doc_fraction: f64,
    /// Fraction of arrival events that start a standard-class multi-turn
    /// conversation.
    pub multi_turn_fraction: f64,
    /// Turn-count / think-time profile of the multi-turn stream.
    pub multi_turn: MultiTurnProfile,
}

impl MixedClassProfile {
    /// The default overload mix: 15% long-document, 25% multi-turn
    /// conversation starts, the rest interactive chat.
    pub fn overload_mix() -> Self {
        MixedClassProfile {
            long_doc_fraction: 0.15,
            multi_turn_fraction: 0.25,
            multi_turn: MultiTurnProfile::sharegpt(),
        }
    }

    /// Validates ranges: both fractions non-negative, summing to at most 1,
    /// and a valid multi-turn profile.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.long_doc_fraction)
            || !(0.0..=1.0).contains(&self.multi_turn_fraction)
            || self.long_doc_fraction + self.multi_turn_fraction > 1.0
        {
            return Err(format!(
                "class fractions must be non-negative and sum to at most 1, got \
                 long-doc {} + multi-turn {}",
                self.long_doc_fraction, self.multi_turn_fraction
            ));
        }
        self.multi_turn.validate()
    }
}

/// The Zipf-reshaped mixture of Figure 12.
///
/// Requests are drawn from the Mixed dataset, but the choice of source
/// dataset is ranked (ShareGPT shortest → LV-Eval longest) and sampled by a
/// Zipf distribution with the given exponent, then capped at 200K input
/// tokens. Larger exponents skew the workload towards short requests.
#[derive(Debug, Clone)]
pub struct ZipfMixedSampler {
    zipf: Zipf,
    sharegpt: DatasetSampler,
    leval: DatasetSampler,
    lveval: DatasetSampler,
}

impl ZipfMixedSampler {
    /// Input-length cap used by the Figure 12 ablation.
    pub const INPUT_CAP: u64 = 200_000;

    /// Creates a sampler with the given Zipf exponent (the paper uses 1.0,
    /// 1.2 and 1.4).
    pub fn new(exponent: f64) -> Self {
        ZipfMixedSampler {
            zipf: Zipf::new(3, exponent),
            sharegpt: DatasetSampler::new(DatasetKind::ShareGpt)
                .with_max_input_len(Self::INPUT_CAP),
            leval: DatasetSampler::new(DatasetKind::LEval).with_max_input_len(Self::INPUT_CAP),
            lveval: DatasetSampler::new(DatasetKind::LvEval).with_max_input_len(Self::INPUT_CAP),
        }
    }

    /// The Zipf exponent.
    pub fn exponent(&self) -> f64 {
        self.zipf.exponent()
    }

    /// Draws one (input, output) length pair.
    pub fn sample(&self, rng: &mut SimRng) -> LengthSample {
        match self.zipf.sample(rng) {
            1 => self.sharegpt.sample(rng),
            2 => self.leval.sample(rng),
            _ => self.lveval.sample(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_range(kind: DatasetKind, min_in: u64, max_in: u64) {
        let sampler = DatasetSampler::new(kind);
        let mut rng = SimRng::seed(7);
        for _ in 0..2000 {
            let s = sampler.sample(&mut rng);
            assert!(
                s.input_len >= min_in && s.input_len <= max_in,
                "{}: input {} outside [{min_in}, {max_in}]",
                kind.name(),
                s.input_len
            );
            assert!(s.output_len >= 1);
        }
    }

    #[test]
    fn sharegpt_range_matches_paper() {
        check_range(DatasetKind::ShareGpt, 4, 2_300);
    }

    #[test]
    fn leval_range_matches_paper() {
        check_range(DatasetKind::LEval, 2_700, 210_500);
    }

    #[test]
    fn lveval_range_matches_paper() {
        check_range(DatasetKind::LvEval, 15_100, 497_300);
    }

    #[test]
    fn mixed_covers_all_sources() {
        let sampler = DatasetSampler::new(DatasetKind::Mixed);
        let mut rng = SimRng::seed(11);
        let mut short = 0usize;
        let mut long = 0usize;
        for _ in 0..2000 {
            let s = sampler.sample(&mut rng);
            if s.input_len <= 2_300 {
                short += 1;
            }
            if s.input_len >= 15_100 {
                long += 1;
            }
        }
        assert!(
            short > 200,
            "mixed workload missing short requests ({short})"
        );
        assert!(long > 200, "mixed workload missing long requests ({long})");
    }

    #[test]
    fn sharegpt_outputs_are_longer_than_lveval_outputs() {
        // The ShareGPT row of Figure 13 relies on long decode phases; the
        // LV-Eval row on very short ones.
        let mut rng = SimRng::seed(13);
        let sg = DatasetSampler::new(DatasetKind::ShareGpt);
        let lv = DatasetSampler::new(DatasetKind::LvEval);
        let n = 2000;
        let sg_mean: f64 = (0..n)
            .map(|_| sg.sample(&mut rng).output_len as f64)
            .sum::<f64>()
            / n as f64;
        let lv_mean: f64 = (0..n)
            .map(|_| lv.sample(&mut rng).output_len as f64)
            .sum::<f64>()
            / n as f64;
        assert!(
            sg_mean > 2.0 * lv_mean,
            "ShareGPT {sg_mean} vs LV-Eval {lv_mean}"
        );
    }

    #[test]
    fn input_cap_is_enforced() {
        let sampler = DatasetSampler::new(DatasetKind::LvEval).with_max_input_len(200_000);
        let mut rng = SimRng::seed(17);
        for _ in 0..2000 {
            assert!(sampler.sample(&mut rng).input_len <= 200_000);
        }
    }

    #[test]
    fn zipf_exponent_skews_towards_short_requests() {
        let mut rng_a = SimRng::seed(23);
        let mut rng_b = SimRng::seed(23);
        let mild = ZipfMixedSampler::new(1.0);
        let steep = ZipfMixedSampler::new(1.4);
        let n = 4000;
        let mean = |sampler: &ZipfMixedSampler, rng: &mut SimRng| -> f64 {
            (0..n)
                .map(|_| sampler.sample(rng).input_len as f64)
                .sum::<f64>()
                / n as f64
        };
        let mild_mean = mean(&mild, &mut rng_a);
        let steep_mean = mean(&steep, &mut rng_b);
        assert!(
            steep_mean < mild_mean,
            "steeper Zipf should shorten the mean input ({steep_mean} vs {mild_mean})"
        );
        assert!((mild.exponent() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_mixed_respects_cap() {
        let sampler = ZipfMixedSampler::new(1.2);
        let mut rng = SimRng::seed(29);
        for _ in 0..2000 {
            assert!(sampler.sample(&mut rng).input_len <= ZipfMixedSampler::INPUT_CAP);
        }
    }

    #[test]
    fn multi_turn_profile_samples_in_range() {
        let profile = MultiTurnProfile::sharegpt();
        assert!(profile.validate().is_ok());
        let mut rng = SimRng::seed(31);
        let n = 4000;
        let mut sum_rounds = 0u64;
        for _ in 0..n {
            let rounds = profile.sample_rounds(&mut rng);
            assert!((1..=profile.max_rounds).contains(&rounds));
            sum_rounds += u64::from(rounds);
            assert!(profile.sample_think_s(&mut rng) > 0.0);
        }
        let mean = sum_rounds as f64 / n as f64;
        assert!(
            (mean - profile.mean_rounds).abs() < 0.5,
            "geometric mean {mean} too far from {}",
            profile.mean_rounds
        );
    }

    #[test]
    fn multi_turn_profile_validation_rejects_bad_values() {
        let ok = MultiTurnProfile::sharegpt();
        assert!(MultiTurnProfile {
            mean_rounds: 0.5,
            ..ok
        }
        .validate()
        .is_err());
        assert!(MultiTurnProfile {
            max_rounds: 0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(MultiTurnProfile {
            mean_think_s: 0.0,
            ..ok
        }
        .validate()
        .is_err());
    }

    #[test]
    fn non_finite_think_times_are_rejected() {
        // Once accepted, then panicked in `Exponential::new` at the first
        // follow-up turn a stream produced.
        let ok = MultiTurnProfile::sharegpt();
        for mean_think_s in [f64::INFINITY, f64::NAN, 1e-320] {
            let profile = MultiTurnProfile { mean_think_s, ..ok };
            assert!(profile.validate().is_err(), "{mean_think_s} accepted");
        }
    }

    #[test]
    fn round_means_that_would_panic_are_rejected() {
        // Once accepted, then panicked in `Exponential::new` at the first
        // conversation a stream started.
        let ok = MultiTurnProfile::sharegpt();
        for mean_rounds in [f64::INFINITY, f64::NAN, 1e17] {
            let profile = MultiTurnProfile { mean_rounds, ..ok };
            assert!(profile.validate().is_err(), "{mean_rounds} accepted");
        }
        // Every accepted mean samples, however long its tail.
        for mean_rounds in [1.0, 1.0 + f64::EPSILON, 3.5, 1e9, 1e15] {
            let profile = MultiTurnProfile { mean_rounds, ..ok };
            assert!(profile.validate().is_ok(), "{mean_rounds} rejected");
            let mut rng = SimRng::seed(7);
            for _ in 0..64 {
                let rounds = profile.sample_rounds(&mut rng);
                assert!((1..=profile.max_rounds).contains(&rounds));
            }
        }
    }

    #[test]
    fn dataset_metadata_is_consistent() {
        assert_eq!(DatasetKind::all().len(), 4);
        for kind in DatasetKind::all() {
            assert!(!kind.name().is_empty());
            assert!(!kind.figure10_rates().is_empty());
        }
    }
}
