//! Deterministic random number generation.
//!
//! Every stochastic component of the simulator (arrival processes, dataset
//! samplers, tie-breaking) draws from a [`SimRng`], a small, fast,
//! splittable PRNG based on SplitMix64 seeding a xoshiro256**-style state.
//! Determinism is a hard requirement: given the same seed, every experiment
//! in the repository reproduces bit-for-bit, which the property tests and
//! the figure-reproduction benches rely on.

use rand::{Error, RngCore};

/// Advances a SplitMix64 state and returns the next 64-bit output.
///
/// SplitMix64 is used both to expand seeds into the main generator state and
/// to derive independent substream seeds in [`SimRng::fork`].
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, splittable pseudo-random number generator.
///
/// The generator implements [`rand::RngCore`] so it can be used with any
/// distribution from `rand`/`rand_distr`, and adds [`SimRng::fork`] for
/// carving out independent substreams (e.g. one per dataset, one per
/// arrival process) so that adding draws to one component does not perturb
/// another.
///
/// # Examples
///
/// ```
/// use loong_simcore::rng::SimRng;
/// use rand::Rng;
///
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
///
/// // Forked substreams are independent of later draws on the parent.
/// let mut fork = a.fork("arrivals");
/// let x: f64 = fork.gen_range(0.0..1.0);
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // Avoid the all-zero state, which xoshiro cannot escape.
        if s == [0, 0, 0, 0] {
            s = [
                0x1,
                0x9E3779B97F4A7C15,
                0xBF58476D1CE4E5B9,
                0x94D049BB133111EB,
            ];
        }
        SimRng { s }
    }

    /// Derives an independent substream labelled by `label`.
    ///
    /// The substream seed mixes the parent's *current* state with a hash of
    /// the label, so forking the same label twice at different points yields
    /// different streams, while forking from identically-seeded parents in
    /// the same order is fully reproducible.
    pub fn fork(&mut self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let mixed = self.next_u64() ^ h;
        SimRng::seed(mixed)
    }

    /// Draws one uniform value in `[0, 1)`.
    ///
    /// Convenience for crates that consume `SimRng` without depending on
    /// `rand` themselves (e.g. thinning acceptance tests in workload
    /// generation). Uses the top 53 bits of one `next_u64` draw, the same
    /// construction `rand`'s `f64` sampling uses.
    pub fn uniform01(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn rotl(x: u64, k: u32) -> u64 {
        x.rotate_left(k)
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        // xoshiro256** scrambler.
        let result = Self::rotl(self.s[1].wrapping_mul(5), 7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = Self::rotl(self.s[3], 45);
        result
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(8);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams with different seeds should diverge");
    }

    #[test]
    fn fork_is_reproducible() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(1);
        let mut fa = a.fork("x");
        let mut fb = b.fork("x");
        assert_eq!(fa.next_u64(), fb.next_u64());
    }

    #[test]
    fn fork_labels_differ() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(1);
        let mut fa = a.fork("x");
        let mut fb = b.fork("y");
        assert_ne!(fa.next_u64(), fb.next_u64());
    }

    #[test]
    fn fill_bytes_covers_remainder() {
        let mut rng = SimRng::seed(3);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn gen_range_stays_in_range() {
        let mut rng = SimRng::seed(11);
        for _ in 0..1000 {
            let x: f64 = rng.gen_range(0.0..1.0);
            assert!((0.0..1.0).contains(&x));
            let n: u64 = rng.gen_range(5..10);
            assert!((5..10).contains(&n));
        }
    }

    #[test]
    fn uniformity_rough_check() {
        let mut rng = SimRng::seed(99);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!(
            (mean - 0.5).abs() < 0.01,
            "mean of uniform draws was {mean}"
        );
    }
}
