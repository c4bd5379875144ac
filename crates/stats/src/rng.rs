//! Deterministic random-number utilities.
//!
//! Every Monte-Carlo experiment in the workspace is seeded so results are
//! reproducible bit-for-bit. [`SeedStream`] derives independent child seeds
//! from a master seed (one per cell, per net, per MC chunk) so that
//! parallelizing the sampling does not change the numbers.

use rand::{Rng, RngCore};

/// Derives decorrelated child seeds from a master seed using SplitMix64.
///
/// # Examples
///
/// ```
/// use nsigma_stats::rng::SeedStream;
///
/// let mut s = SeedStream::new(42);
/// let a = s.next_seed();
/// let b = s.next_seed();
/// assert_ne!(a, b);
///
/// // Deterministic: same master seed, same sequence.
/// let mut s2 = SeedStream::new(42);
/// assert_eq!(s2.next_seed(), a);
/// ```
#[derive(Debug, Clone)]
pub struct SeedStream {
    state: u64,
}

impl SeedStream {
    /// Creates a stream from a master seed.
    pub fn new(master: u64) -> Self {
        Self { state: master }
    }

    /// Returns the next child seed (SplitMix64 step).
    pub fn next_seed(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Derives a child seed tagged by a label, independent of stream position.
    ///
    /// Useful to give e.g. "cell 17, arc 3" a stable seed regardless of
    /// evaluation order.
    pub fn tagged_seed(&self, tag: u64) -> u64 {
        let mut z = self
            .state
            .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A counter-based RNG: word `i` of stream `s` under master seed `m` is a
/// pure hash of `(m, s, i)`, so any worker can be handed stream `s` and
/// reproduce it bit-for-bit with no shared state and no sequential warm-up.
///
/// The yield engine assigns one stream per Monte-Carlo trial, which makes
/// its results independent of the thread count and chunk schedule: trial
/// `t` always consumes exactly the words of stream `t`.
///
/// The construction is SplitMix64 twice over: the stream key is
/// [`SeedStream::tagged_seed`]`(stream)` of the master seed, and output `i`
/// is the SplitMix64 finalizer of `key + (i+1)·φ` — i.e. the plain
/// [`SeedStream`] sequence started at the key, addressable by position.
///
/// # Examples
///
/// ```
/// use nsigma_stats::rng::CounterRng;
/// use rand::RngCore;
///
/// let mut a = CounterRng::new(42, 0);
/// let mut b = CounterRng::new(42, 1);
/// assert_ne!(a.next_u64(), b.next_u64()); // distinct streams
///
/// let mut c = CounterRng::new(42, 0);
/// c.set_position(1);
/// assert_eq!(a.next_u64(), c.next_u64()); // position-addressable
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRng {
    key: u64,
    counter: u64,
}

impl CounterRng {
    /// Stream `stream` of the family keyed by `master`.
    pub fn new(master: u64, stream: u64) -> Self {
        Self {
            key: SeedStream::new(master).tagged_seed(stream),
            counter: 0,
        }
    }

    /// How many 64-bit words have been drawn.
    pub fn position(&self) -> u64 {
        self.counter
    }

    /// Jumps to an absolute position in the stream (0 = the start).
    pub fn set_position(&mut self, position: u64) {
        self.counter = position;
    }
}

impl RngCore for CounterRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.counter = self.counter.wrapping_add(1);
        let mut z = self
            .key
            .wrapping_add(self.counter.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Samples one standard normal deviate using the Marsaglia polar method.
///
/// Implemented locally because the offline dependency set does not include
/// `rand_distr`.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let z = nsigma_stats::rng::standard_normal(&mut rng);
/// assert!(z.is_finite());
/// ```
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Samples `N(mean, std)`.
///
/// # Panics
///
/// Panics if `std < 0`.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    assert!(std >= 0.0, "normal std must be non-negative, got {std}");
    mean + std * standard_normal(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn seed_stream_is_deterministic() {
        let mut a = SeedStream::new(7);
        let mut b = SeedStream::new(7);
        for _ in 0..10 {
            assert_eq!(a.next_seed(), b.next_seed());
        }
    }

    #[test]
    fn tagged_seed_ignores_position() {
        let mut a = SeedStream::new(7);
        let before = a.tagged_seed(99);
        a.next_seed();
        a.next_seed();
        // tagged_seed uses current state, so advance changes it...
        assert_ne!(a.tagged_seed(99), 0);
        // ...but a fresh stream reproduces the original tag.
        let b = SeedStream::new(7);
        assert_eq!(b.tagged_seed(99), before);
    }

    #[test]
    fn counter_rng_is_byte_stable() {
        // Known-answer pins: the exact words (and bytes) of two streams.
        // If these drift, every recorded yield-engine result drifts too.
        let mut s0 = CounterRng::new(0xC0FFEE, 0);
        let words: Vec<u64> = (0..4).map(|_| s0.next_u64()).collect();
        assert_eq!(
            words,
            [
                0xBFA0_A00E_FA4B_3E10,
                0xEBA4_4047_BAED_2ABF,
                0xCFC1_1F60_E667_3934,
                0x31A4_7FB3_FD68_39E6,
            ]
        );
        let mut s1 = CounterRng::new(0xC0FFEE, 1);
        let mut bytes = [0u8; 16];
        s1.fill_bytes(&mut bytes);
        assert_eq!(
            bytes,
            [14, 146, 77, 2, 25, 109, 6, 105, 232, 149, 115, 153, 14, 51, 103, 166]
        );
    }

    #[test]
    fn counter_rng_streams_are_uncorrelated() {
        // Distinct worker streams from the same master seed: lag-0
        // cross-correlation of uniform draws must stay within a 5-sigma
        // bound of zero (sigma = 1/sqrt(n)), and each stream must look
        // marginally uniform.
        const STREAMS: usize = 8;
        const N: usize = 4096;
        let draws: Vec<Vec<f64>> = (0..STREAMS as u64)
            .map(|s| {
                let mut rng = CounterRng::new(0x5EED, s);
                (0..N).map(|_| rng.gen_range(0.0f64..1.0)).collect()
            })
            .collect();
        for xs in &draws {
            let mean = xs.iter().sum::<f64>() / N as f64;
            assert!((mean - 0.5).abs() < 0.03, "stream mean drifted: {mean}");
        }
        let bound = 5.0 / (N as f64).sqrt();
        for a in 0..STREAMS {
            for b in (a + 1)..STREAMS {
                let (xs, ys) = (&draws[a], &draws[b]);
                let (mx, my) = (
                    xs.iter().sum::<f64>() / N as f64,
                    ys.iter().sum::<f64>() / N as f64,
                );
                let mut cov = 0.0;
                let mut vx = 0.0;
                let mut vy = 0.0;
                for (x, y) in xs.iter().zip(ys) {
                    cov += (x - mx) * (y - my);
                    vx += (x - mx) * (x - mx);
                    vy += (y - my) * (y - my);
                }
                let r = cov / (vx * vy).sqrt();
                assert!(
                    r.abs() < bound,
                    "streams {a} and {b} correlate: r={r}, bound={bound}"
                );
            }
        }
    }

    #[test]
    fn counter_rng_position_jump_matches_sequential() {
        let mut seq = CounterRng::new(9, 4);
        for _ in 0..10 {
            seq.next_u64();
        }
        let expected = seq.next_u64();
        let mut jumped = CounterRng::new(9, 4);
        jumped.set_position(10);
        assert_eq!(jumped.next_u64(), expected);
        assert_eq!(jumped.position(), 11);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = SmallRng::seed_from_u64(123);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let z = standard_normal(&mut rng);
            sum += z;
            sum2 += z * z;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean={mean}");
        assert!((var - 1.0).abs() < 0.02, "var={var}");
    }

    #[test]
    fn normal_respects_parameters() {
        let mut rng = SmallRng::seed_from_u64(5);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            sum += normal(&mut rng, 10.0, 2.0);
        }
        assert!((sum / n as f64 - 10.0).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "normal std must be non-negative")]
    fn normal_rejects_negative_std() {
        let mut rng = SmallRng::seed_from_u64(5);
        normal(&mut rng, 0.0, -1.0);
    }
}
