//! Continuous distributions used by the delay models.
//!
//! * [`Normal`], [`LogNormal`] — building blocks of the process-variation
//!   model.
//! * [`SkewNormal`], [`LogSkewNormal`] — the LSN baseline cell model of
//!   Balef et al. \[12\] fits the logarithm of delay to a skew-normal density.
//! * [`BurrXii`] — the Burr baseline of Moshrefi et al. \[13\].
//!
//! All distributions implement [`Distribution`], exposing pdf/cdf/quantile/
//! sampling plus analytic moments where they exist.

use crate::special::{beta, norm_cdf, norm_pdf, norm_quantile, owen_t};
use rand::Rng;

/// A continuous univariate distribution.
///
/// Implementors provide the density, distribution function, quantile function
/// and sampling; [`Distribution::mean`] and [`Distribution::std`] return
/// analytic moments.
pub trait Distribution {
    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;
    /// Cumulative probability at `x`.
    fn cdf(&self, x: f64) -> f64;
    /// Quantile (inverse CDF) at probability `p ∈ (0, 1)`.
    fn quantile(&self, p: f64) -> f64;
    /// Draws one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64
    where
        Self: Sized;
    /// Analytic mean.
    fn mean(&self) -> f64;
    /// Analytic standard deviation.
    fn std(&self) -> f64;
}

/// Inverts a CDF by bisection on a bracketing interval.
///
/// Used by distributions without a closed-form quantile. 80 iterations give
/// ~1e-18 relative bracketing, far below sampling noise.
fn invert_cdf(cdf: impl Fn(f64) -> f64, p: f64, mut lo: f64, mut hi: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    // Expand bracket if needed.
    for _ in 0..64 {
        if cdf(lo) <= p {
            break;
        }
        lo -= hi - lo;
    }
    for _ in 0..64 {
        if cdf(hi) >= p {
            break;
        }
        hi += hi - lo;
    }
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if cdf(mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

// ---------------------------------------------------------------------------
// Normal
// ---------------------------------------------------------------------------

/// Gaussian distribution `N(mean, std²)`.
///
/// # Examples
///
/// ```
/// use nsigma_stats::distributions::{Distribution, Normal};
///
/// let n = Normal::new(10.0, 2.0);
/// assert!((n.cdf(10.0) - 0.5).abs() < 1e-12);
/// assert!((n.quantile(0.5) - 10.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `std <= 0`.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(std > 0.0, "Normal std must be positive, got {std}");
        Self { mean, std }
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Self::new(0.0, 1.0)
    }
}

impl Distribution for Normal {
    fn pdf(&self, x: f64) -> f64 {
        norm_pdf((x - self.mean) / self.std) / self.std
    }
    fn cdf(&self, x: f64) -> f64 {
        norm_cdf((x - self.mean) / self.std)
    }
    fn quantile(&self, p: f64) -> f64 {
        self.mean + self.std * norm_quantile(p)
    }
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        crate::rng::normal(rng, self.mean, self.std)
    }
    fn mean(&self) -> f64 {
        self.mean
    }
    fn std(&self) -> f64 {
        self.std
    }
}

// ---------------------------------------------------------------------------
// LogNormal
// ---------------------------------------------------------------------------

/// Log-normal distribution: `ln X ~ N(mu, sigma²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with log-space parameters.
    ///
    /// # Panics
    ///
    /// Panics if `sigma <= 0`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0, "LogNormal sigma must be positive, got {sigma}");
        Self { mu, sigma }
    }

    /// Creates a log-normal from its real-space mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0` or `std <= 0`.
    pub fn from_mean_std(mean: f64, std: f64) -> Self {
        assert!(mean > 0.0 && std > 0.0, "mean/std must be positive");
        let cv2 = (std / mean).powi(2);
        let sigma2 = (1.0 + cv2).ln();
        Self::new(mean.ln() - 0.5 * sigma2, sigma2.sqrt())
    }
}

impl Distribution for LogNormal {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            norm_pdf((x.ln() - self.mu) / self.sigma) / (x * self.sigma)
        }
    }
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            norm_cdf((x.ln() - self.mu) / self.sigma)
        }
    }
    fn quantile(&self, p: f64) -> f64 {
        (self.mu + self.sigma * norm_quantile(p)).exp()
    }
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * crate::rng::standard_normal(rng)).exp()
    }
    fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }
    fn std(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        (((s2).exp() - 1.0) * (2.0 * self.mu + s2).exp()).sqrt()
    }
}

// ---------------------------------------------------------------------------
// SkewNormal
// ---------------------------------------------------------------------------

/// Azzalini skew-normal with location `xi`, scale `omega`, shape `alpha`.
///
/// `pdf(x) = (2/ω) φ(z) Φ(αz)` with `z = (x − ξ)/ω`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewNormal {
    xi: f64,
    omega: f64,
    alpha: f64,
}

impl SkewNormal {
    /// Creates a skew-normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `omega <= 0`.
    pub fn new(xi: f64, omega: f64, alpha: f64) -> Self {
        assert!(
            omega > 0.0,
            "SkewNormal omega must be positive, got {omega}"
        );
        Self { xi, omega, alpha }
    }

    /// Location parameter ξ.
    pub fn xi(&self) -> f64 {
        self.xi
    }
    /// Scale parameter ω.
    pub fn omega(&self) -> f64 {
        self.omega
    }
    /// Shape parameter α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// δ = α/√(1+α²), the canonical shape transform.
    fn delta(&self) -> f64 {
        self.alpha / (1.0 + self.alpha * self.alpha).sqrt()
    }
}

impl Distribution for SkewNormal {
    fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.xi) / self.omega;
        2.0 / self.omega * norm_pdf(z) * norm_cdf(self.alpha * z)
    }
    fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.xi) / self.omega;
        norm_cdf(z) - 2.0 * owen_t(z, self.alpha)
    }
    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1)");
        let lo = self.xi - 8.0 * self.omega;
        let hi = self.xi + 8.0 * self.omega;
        invert_cdf(|x| self.cdf(x), p, lo, hi)
    }
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let d = self.delta();
        let u0 = crate::rng::standard_normal(rng);
        let u1 = crate::rng::standard_normal(rng);
        let z = d * u0.abs() + (1.0 - d * d).sqrt() * u1;
        self.xi + self.omega * z
    }
    fn mean(&self) -> f64 {
        self.xi + self.omega * self.delta() * (2.0 / core::f64::consts::PI).sqrt()
    }
    fn std(&self) -> f64 {
        let d = self.delta();
        self.omega * (1.0 - 2.0 * d * d / core::f64::consts::PI).sqrt()
    }
}

// ---------------------------------------------------------------------------
// LogSkewNormal
// ---------------------------------------------------------------------------

/// Log-skew-normal: `ln X` is skew-normal.
///
/// This is the model of Balef et al. \[12\] used as the LSN baseline in the
/// paper's Table II: take the logarithm of the delay samples and fit a
/// skew-normal density.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogSkewNormal {
    log: SkewNormal,
}

impl LogSkewNormal {
    /// Creates from the skew-normal parameters of `ln X`.
    ///
    /// # Panics
    ///
    /// Panics if `omega <= 0`.
    pub fn new(xi: f64, omega: f64, alpha: f64) -> Self {
        Self {
            log: SkewNormal::new(xi, omega, alpha),
        }
    }
}

impl Distribution for LogSkewNormal {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            self.log.pdf(x.ln()) / x
        }
    }
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            self.log.cdf(x.ln())
        }
    }
    fn quantile(&self, p: f64) -> f64 {
        self.log.quantile(p).exp()
    }
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.log.sample(rng).exp()
    }
    fn mean(&self) -> f64 {
        // E[exp(ξ + ωZ)] with Z skew-normal(α):
        // = 2 exp(ξ + ω²/2) Φ(δω)
        let d = self.log.delta();
        2.0 * (self.log.xi + 0.5 * self.log.omega * self.log.omega).exp()
            * norm_cdf(d * self.log.omega)
    }
    fn std(&self) -> f64 {
        let d = self.log.delta();
        let xi = self.log.xi;
        let om = self.log.omega;
        let m1 = 2.0 * (xi + 0.5 * om * om).exp() * norm_cdf(d * om);
        let m2 = 2.0 * (2.0 * xi + 2.0 * om * om).exp() * norm_cdf(2.0 * d * om);
        (m2 - m1 * m1).max(0.0).sqrt()
    }
}

// ---------------------------------------------------------------------------
// Burr XII
// ---------------------------------------------------------------------------

/// Burr type-XII distribution with shape parameters `c`, `k` and scale `s`.
///
/// `F(x) = 1 − (1 + (x/s)ᶜ)⁻ᵏ` for `x > 0`. This is the delay model of
/// Moshrefi et al. \[13\], the "Burr" baseline of the paper's Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurrXii {
    c: f64,
    k: f64,
    scale: f64,
}

impl BurrXii {
    /// Creates a Burr XII distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `c`, `k` and `scale` are all positive.
    pub fn new(c: f64, k: f64, scale: f64) -> Self {
        assert!(
            c > 0.0 && k > 0.0 && scale > 0.0,
            "BurrXii parameters must be positive (c={c}, k={k}, scale={scale})"
        );
        Self { c, k, scale }
    }

    /// Raw moment `E[Xʳ]`, finite only when `c·k > r`.
    pub fn raw_moment(&self, r: f64) -> Option<f64> {
        if self.c * self.k <= r {
            return None;
        }
        Some(self.scale.powf(r) * self.k * beta(self.k - r / self.c, 1.0 + r / self.c))
    }
}

impl Distribution for BurrXii {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let t = x / self.scale;
        self.c * self.k / self.scale
            * t.powf(self.c - 1.0)
            * (1.0 + t.powf(self.c)).powf(-self.k - 1.0)
    }
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (1.0 + (x / self.scale).powf(self.c)).powf(-self.k)
        }
    }
    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1)");
        self.scale * ((1.0 - p).powf(-1.0 / self.k) - 1.0).powf(1.0 / self.c)
    }
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        self.quantile(u)
    }
    fn mean(&self) -> f64 {
        self.raw_moment(1.0).unwrap_or(f64::INFINITY)
    }
    fn std(&self) -> f64 {
        match (self.raw_moment(2.0), self.raw_moment(1.0)) {
            (Some(m2), Some(m1)) => (m2 - m1 * m1).max(0.0).sqrt(),
            _ => f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn check_quantile_roundtrip<D: Distribution>(d: &D, tol: f64) {
        for &p in &[0.0014, 0.0228, 0.1587, 0.5, 0.8413, 0.9772, 0.9986] {
            let x = d.quantile(p);
            assert!((d.cdf(x) - p).abs() < tol, "p={p} x={x} cdf={}", d.cdf(x));
        }
    }

    fn check_pdf_integrates_cdf<D: Distribution>(d: &D, lo: f64, hi: f64, tol: f64) {
        // Trapezoid integral of pdf from lo to hi should be cdf(hi)-cdf(lo).
        let n = 4000;
        let h = (hi - lo) / n as f64;
        let mut acc = 0.5 * (d.pdf(lo) + d.pdf(hi));
        for i in 1..n {
            acc += d.pdf(lo + i as f64 * h);
        }
        let integral = acc * h;
        let expected = d.cdf(hi) - d.cdf(lo);
        assert!(
            (integral - expected).abs() < tol,
            "integral {integral} vs {expected}"
        );
    }

    #[test]
    fn normal_roundtrip_and_density() {
        let d = Normal::new(3.0, 1.5);
        check_quantile_roundtrip(&d, 1e-9);
        check_pdf_integrates_cdf(&d, -5.0, 11.0, 1e-6);
        assert_eq!(d.mean(), 3.0);
        assert_eq!(d.std(), 1.5);
    }

    #[test]
    fn lognormal_roundtrip_and_moments() {
        let d = LogNormal::from_mean_std(20.0, 5.0);
        check_quantile_roundtrip(&d, 1e-9);
        assert!((d.mean() - 20.0).abs() < 1e-9);
        assert!((d.std() - 5.0).abs() < 1e-9);
        check_pdf_integrates_cdf(&d, 1e-6, 100.0, 1e-5);
    }

    #[test]
    fn skew_normal_reduces_to_normal_at_alpha_zero() {
        let sn = SkewNormal::new(1.0, 2.0, 0.0);
        let n = Normal::new(1.0, 2.0);
        for &x in &[-3.0, 0.0, 1.0, 4.0] {
            assert!((sn.pdf(x) - n.pdf(x)).abs() < 1e-10);
            assert!((sn.cdf(x) - n.cdf(x)).abs() < 1e-9);
        }
        assert!((sn.mean() - 1.0).abs() < 1e-12);
        assert!((sn.std() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn skew_normal_quantile_roundtrip() {
        let d = SkewNormal::new(0.5, 1.2, 3.0);
        check_quantile_roundtrip(&d, 1e-8);
    }

    #[test]
    fn skew_normal_sampling_matches_analytic_moments() {
        let d = SkewNormal::new(2.0, 1.0, 4.0);
        let mut rng = SmallRng::seed_from_u64(77);
        let xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        let m = crate::moments::Moments::from_samples(&xs);
        assert!(
            (m.mean - d.mean()).abs() < 0.01,
            "{} vs {}",
            m.mean,
            d.mean()
        );
        assert!((m.std - d.std()).abs() < 0.01);
        // The analytic skewness from δ.
        let b = d.delta() * (2.0 / core::f64::consts::PI).sqrt();
        let skewness = (4.0 - core::f64::consts::PI) / 2.0 * b.powi(3) / (1.0 - b * b).powf(1.5);
        assert!((m.skewness - skewness).abs() < 0.05);
    }

    #[test]
    fn log_skew_normal_positive_support_and_tail() {
        let d = LogSkewNormal::new(2.0, 0.4, 2.0);
        assert_eq!(d.cdf(-1.0), 0.0);
        assert_eq!(d.pdf(0.0), 0.0);
        check_quantile_roundtrip(&d, 1e-7);
        // Right tail heavier than left in real space.
        let med = d.quantile(0.5);
        assert!(d.quantile(0.9986) - med > med - d.quantile(0.0014));
    }

    #[test]
    fn lsn_mean_matches_sampling() {
        let d = LogSkewNormal::new(1.0, 0.3, 1.5);
        let mut rng = SmallRng::seed_from_u64(3);
        let xs: Vec<f64> = (0..300_000).map(|_| d.sample(&mut rng)).collect();
        let m = crate::moments::Moments::from_samples(&xs);
        assert!(
            (m.mean - d.mean()).abs() / d.mean() < 0.01,
            "{} vs {}",
            m.mean,
            d.mean()
        );
        assert!((m.std - d.std()).abs() / d.std() < 0.03);
    }

    #[test]
    fn burr_quantile_closed_form_roundtrip() {
        let d = BurrXii::new(3.0, 2.0, 10.0);
        check_quantile_roundtrip(&d, 1e-10);
        check_pdf_integrates_cdf(&d, 1e-9, 200.0, 1e-5);
    }

    #[test]
    fn burr_moments_match_sampling() {
        let d = BurrXii::new(4.0, 3.0, 5.0);
        let mut rng = SmallRng::seed_from_u64(11);
        let xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        let m = crate::moments::Moments::from_samples(&xs);
        assert!((m.mean - d.mean()).abs() / d.mean() < 0.01);
        assert!((m.std - d.std()).abs() / d.std() < 0.03);
    }

    #[test]
    fn burr_infinite_moment_flagged() {
        let d = BurrXii::new(1.0, 0.5, 1.0); // c*k = 0.5 < 1 -> no mean
        assert!(d.raw_moment(1.0).is_none());
        assert!(d.mean().is_infinite());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn burr_rejects_nonpositive_params() {
        BurrXii::new(0.0, 1.0, 1.0);
    }
}
