//! Deterministic random-number utilities.
//!
//! Every Monte-Carlo experiment in the workspace is seeded so results are
//! reproducible bit-for-bit. [`SeedStream`] derives independent child seeds
//! from a master seed (one per cell, per net, per MC chunk) so that
//! parallelizing the sampling does not change the numbers.

use rand::{Rng, RngCore};
use std::sync::LazyLock;

/// Derives decorrelated child seeds from a master seed using SplitMix64.
///
/// # Examples
///
/// ```
/// use nsigma_stats::rng::SeedStream;
///
/// let s = SeedStream::new(42);
/// let a = s.tagged_seed(0);
/// let b = s.tagged_seed(1);
/// assert_ne!(a, b);
///
/// // Deterministic: same master seed, same child seeds.
/// assert_eq!(SeedStream::new(42).tagged_seed(0), a);
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

    /// Derives a child seed tagged by a label.
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
/// is the SplitMix64 finalizer of `key + (i+1)·φ` — i.e. the SplitMix64
/// sequence started at the key.
///
/// # Examples
///
/// ```
/// use nsigma_stats::rng::CounterRng;
/// use rand::RngCore;
///
/// let mut a = CounterRng::new(42, 0);
/// let mut b = CounterRng::new(42, 1);
/// let first = a.next_u64();
/// assert_ne!(first, b.next_u64()); // distinct streams
///
/// let mut c = CounterRng::new(42, 0);
/// assert_eq!(c.next_u64(), first); // a stream replays from its (master, stream) pair
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

/// Right edge `R` of the ziggurat's base layer: the normal tail starts here.
const ZIG_R: f64 = 3.654_152_885_361_009;
/// Area `V` of each of the 256 ziggurat layers under the unnormalized
/// density `exp(−x²/2)`; the base layer counts its tail beyond `R`.
const ZIG_V: f64 = 0.004_928_673_233_99;

/// The 256-layer Marsaglia–Tsang ziggurat for the standard normal: layer
/// `i` spans `|x| < x[i]` between the density heights `f[i]` and `f[i+1]`.
/// `x[0] = V/f(R)` is the base layer's equal-area width, `x[1] = R`, each
/// further edge solves `x[i]·(f(x[i+1]) − f(x[i])) = V`, and `x[256] = 0`.
struct Ziggurat {
    x: [f64; 257],
    f: [f64; 257],
}

/// The unnormalized standard normal density `exp(−x²/2)`.
fn gauss_density(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// Built on first use: the recursion is 255 `ln`/`sqrt` steps.
static ZIGGURAT: LazyLock<Ziggurat> = LazyLock::new(|| {
    let mut x = [0.0; 257];
    x[0] = ZIG_V / gauss_density(ZIG_R);
    x[1] = ZIG_R;
    for i in 1..255 {
        x[i + 1] = (-2.0 * (ZIG_V / x[i] + gauss_density(x[i])).ln()).sqrt();
    }
    Ziggurat {
        x,
        f: x.map(gauss_density),
    }
});

/// A uniform deviate in the open interval (0, 1): 53 bits, offset by half
/// a step so that neither end is reachable.
fn open01<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
}

/// Samples one standard normal deviate with a 256-layer Marsaglia–Tsang
/// ziggurat, the one normal sampler of the workspace.
///
/// The fast path (98.5 % of calls) reads one word from `rng`: its low
/// 8 bits pick the layer, its high 52 bits a uniform in [−1, 1). A draw in
/// a layer's wedge reads one more uniform, and a draw in the base layer's
/// tail runs Marsaglia's exact tail loop. The deviates therefore come in
/// stream order: deviate k is the k-th call on `rng`, and how many words a
/// call reads depends only on the words themselves.
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
    let zig = &*ZIGGURAT;
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xff) as usize;
        // 52 mantissa bits under the exponent of 2: uniform in [2, 4).
        let u = f64::from_bits((bits >> 12) | (1024 << 52)) - 3.0;
        let x = u * zig.x[i];
        if x.abs() < zig.x[i + 1] {
            return x;
        }
        if i == 0 {
            // Marsaglia (1964): the normal tail beyond R, exactly.
            loop {
                let t = open01(rng).ln() / ZIG_R;
                if -2.0 * open01(rng).ln() >= t * t {
                    return if u < 0.0 { t - ZIG_R } else { ZIG_R - t };
                }
            }
        }
        let y = zig.f[i + 1] + (zig.f[i] - zig.f[i + 1]) * rng.gen::<f64>();
        if y < gauss_density(x) {
            return x;
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
        let a = SeedStream::new(7);
        let b = SeedStream::new(7);
        for tag in 0..10 {
            assert_eq!(a.tagged_seed(tag), b.tagged_seed(tag));
        }
    }

    #[test]
    fn tagged_seed_ignores_position() {
        // A tag's seed does not depend on which tags were derived before it.
        let a = SeedStream::new(7);
        let forward: Vec<u64> = (0..10).map(|tag| a.tagged_seed(tag)).collect();
        let backward: Vec<u64> = (0..10).rev().map(|tag| a.tagged_seed(tag)).collect();
        assert!(forward.iter().eq(backward.iter().rev()));
        assert_eq!(SeedStream::new(7).tagged_seed(99), a.tagged_seed(99));
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

    /// The Marsaglia polar method with one output kept: the workspace's
    /// normal sampler before the ziggurat, kept as the oracle the
    /// ziggurat's draws are compared against.
    fn polar_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        loop {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// `n` draws of `sampler` from stream `stream` of one master seed.
    fn draws(sampler: fn(&mut CounterRng) -> f64, stream: u64, n: usize) -> Vec<f64> {
        let mut rng = CounterRng::new(0x2164_0005, stream);
        (0..n).map(|_| sampler(&mut rng)).collect()
    }

    const EVIDENCE_DRAWS: usize = 1 << 20;

    #[test]
    fn ziggurat_matches_polar_two_sample_ks() {
        let mut zig = draws(standard_normal, 0, EVIDENCE_DRAWS);
        let mut polar = draws(polar_normal, 1, EVIDENCE_DRAWS);
        zig.sort_unstable_by(f64::total_cmp);
        polar.sort_unstable_by(f64::total_cmp);
        // Largest gap between the two empirical CDFs.
        let (mut i, mut j, mut d) = (0, 0, 0.0f64);
        while i < zig.len() && j < polar.len() {
            if zig[i] <= polar[j] {
                i += 1;
            } else {
                j += 1;
            }
            d = d.max((i as f64 - j as f64).abs() / EVIDENCE_DRAWS as f64);
        }
        // Critical value at α = 1e-4: sqrt(−ln(α/2)/2)·sqrt(2/n).
        let critical = (-(0.5e-4f64).ln() / 2.0).sqrt() * (2.0 / EVIDENCE_DRAWS as f64).sqrt();
        assert!(d < critical, "KS distance {d:.5} ≥ {critical:.5}");
    }

    #[test]
    fn ziggurat_moments_match_the_normal_and_polar() {
        let n = EVIDENCE_DRAWS as f64;
        let zig = crate::moments::Moments::from_samples(&draws(standard_normal, 2, EVIDENCE_DRAWS));
        let polar = crate::moments::Moments::from_samples(&draws(polar_normal, 3, EVIDENCE_DRAWS));
        // Five standard errors of each sample moment under N(0, 1).
        let bounds = [
            5.0 / n.sqrt(),
            5.0 * (2.0 / n).sqrt(),
            5.0 * (6.0 / n).sqrt(),
            5.0 * (24.0 / n).sqrt(),
        ];
        let exact = [0.0, 1.0, 0.0, 3.0];
        let moments = |m: &crate::moments::Moments| [m.mean, m.std * m.std, m.skewness, m.kurtosis];
        let (z, p) = (moments(&zig), moments(&polar));
        for k in 0..4 {
            assert!(
                (z[k] - exact[k]).abs() < bounds[k],
                "moment {k}: {} vs {}",
                z[k],
                exact[k]
            );
            assert!(
                (z[k] - p[k]).abs() < std::f64::consts::SQRT_2 * bounds[k],
                "moment {k}: ziggurat {} vs polar {}",
                z[k],
                p[k]
            );
        }
    }

    #[test]
    fn ziggurat_tail_counts_match_phi() {
        // Beyond |z| = 3.654 every deviate comes from the exact tail loop.
        let n = 4 * EVIDENCE_DRAWS;
        let zs = draws(standard_normal, 4, n);
        for t in [3.0, 4.0] {
            let expected = n as f64 * crate::special::norm_cdf(-t);
            for (side, count) in [
                ("upper", zs.iter().filter(|&&z| z > t).count()),
                ("lower", zs.iter().filter(|&&z| z < -t).count()),
            ] {
                assert!(
                    (count as f64 - expected).abs() < 5.0 * expected.sqrt(),
                    "{side} tail beyond {t}: {count} draws, Φ expects {expected:.1}"
                );
            }
        }
    }

    #[test]
    fn ziggurat_layers_close() {
        let zig = &*ZIGGURAT;
        let tail = (2.0 * std::f64::consts::PI).sqrt() * crate::special::norm_cdf(-ZIG_R);
        let base = ZIG_R * zig.f[1] + tail;
        assert!((base / ZIG_V - 1.0).abs() < 1e-10, "base layer area {base}");
        // The base layer as a rectangle: width x[0] under the height f(R).
        assert!((zig.x[0] * zig.f[1] / ZIG_V - 1.0).abs() < 1e-14);
        for i in 1..256 {
            let area = zig.x[i] * (zig.f[i + 1] - zig.f[i]);
            assert!((area / ZIG_V - 1.0).abs() < 1e-8, "layer {i} area {area}");
        }
        // The recursion one step past x[255] lands on the density's peak.
        let top = ZIG_V / zig.x[255] + zig.f[255];
        assert!((top - 1.0).abs() < 1e-10, "top closes at {top}");
        assert!(zig.x.windows(2).all(|w| w[0] > w[1]) && zig.x[256] == 0.0);
        assert_eq!(zig.f[256], 1.0);
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
