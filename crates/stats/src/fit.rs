//! Distribution fitting: method of moments for the skew-normal family and a
//! derivative-free (Nelder–Mead) fit for the Burr XII baseline.
//!
//! These fits implement the *baseline* models the paper compares against in
//! Table II: LSN \[12\] fits a skew-normal to the log of the delay samples;
//! Burr \[13\] fits a Burr XII density to the delay samples directly.

use crate::distributions::{BurrXii, LogSkewNormal, SkewNormal};
use crate::moments::Moments;

/// Error returned by the fitting routines.
#[derive(Debug, Clone, PartialEq)]
pub enum FitDistError {
    /// The sample is too small to estimate the required moments.
    SampleTooSmall(usize),
    /// The sample moments are outside the family's attainable region and were
    /// clamped; carries the clamped parameter description.
    OutsideFamily(&'static str),
    /// Samples must be positive for log-domain fits.
    NonPositiveSample,
}

impl std::fmt::Display for FitDistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitDistError::SampleTooSmall(n) => write!(f, "sample of {n} is too small to fit"),
            FitDistError::OutsideFamily(what) => {
                write!(f, "sample moments outside the family: {what}")
            }
            FitDistError::NonPositiveSample => {
                write!(f, "log-domain fit requires strictly positive samples")
            }
        }
    }
}

impl std::error::Error for FitDistError {}

/// Maximum |skewness| attainable by a skew-normal (δ → ±1) minus a safety
/// margin; samples beyond this are clamped.
const SN_MAX_SKEW: f64 = 0.99;

/// Constructs a skew-normal by method of moments from target
/// mean/std/skewness.
///
/// Given mean `m`, standard deviation `s` and skewness `g`: solve `g` for δ,
/// then `ω² = s²/(1 − 2δ²/π)` and `ξ = m − ωδ√(2/π)`. Skewness outside the
/// attainable range (≈0.995) is clamped to the boundary, matching the
/// standard practice in LSN delay modeling.
fn skew_normal_from_moments(mean: f64, std: f64, skewness: f64) -> SkewNormal {
    let g = skewness.clamp(-SN_MAX_SKEW, SN_MAX_SKEW);
    // Solve skewness = (4-pi)/2 * b^3/(1-b^2)^{3/2} with b = delta*sqrt(2/pi).
    let c = (2.0 * g.abs() / (4.0 - core::f64::consts::PI)).powf(2.0 / 3.0);
    let b2 = c / (1.0 + c); // b^2
    let b = b2.sqrt() * g.signum();
    let delta = b / (2.0 / core::f64::consts::PI).sqrt();
    let delta = delta.clamp(-0.999, 0.999);
    let omega = std / (1.0 - 2.0 * delta * delta / core::f64::consts::PI).sqrt();
    let xi = mean - omega * delta * (2.0 / core::f64::consts::PI).sqrt();
    let alpha = delta / (1.0 - delta * delta).sqrt();
    SkewNormal::new(xi, omega.max(1e-300), alpha)
}

/// Fits a [`LogSkewNormal`] (the LSN baseline of \[12\]): takes the logarithm
/// of the samples and fits a skew-normal by method of moments.
///
/// # Errors
///
/// Returns [`FitDistError::NonPositiveSample`] if any sample is ≤ 0, and
/// [`FitDistError::SampleTooSmall`] for fewer than 8 samples.
pub fn fit_log_skew_normal(samples: &[f64]) -> Result<LogSkewNormal, FitDistError> {
    if samples.len() < 8 {
        return Err(FitDistError::SampleTooSmall(samples.len()));
    }
    if samples.iter().any(|&x| x <= 0.0) {
        return Err(FitDistError::NonPositiveSample);
    }
    let logs: Vec<f64> = samples.iter().map(|x| x.ln()).collect();
    let m = Moments::from_samples(&logs);
    let sn = skew_normal_from_moments(m.mean, m.std, m.skewness);
    Ok(LogSkewNormal::new(sn.xi(), sn.omega(), sn.alpha()))
}

/// Fits a [`BurrXii`] by minimizing the squared relative error of
/// (mean, std, skewness) with Nelder–Mead over `(ln c, ln k)`, with the scale
/// solved analytically from the mean at each step.
///
/// This mirrors the moment-matching procedure of \[13\]. Burr XII cannot
/// represent every (σ, γ) pair delay data produces — which is precisely why
/// the paper's Table II shows it with 10 %-class errors.
///
/// # Errors
///
/// Returns [`FitDistError::SampleTooSmall`] for fewer than 16 samples and
/// [`FitDistError::NonPositiveSample`] if any sample is ≤ 0.
pub fn fit_burr(samples: &[f64]) -> Result<BurrXii, FitDistError> {
    if samples.len() < 16 {
        return Err(FitDistError::SampleTooSmall(samples.len()));
    }
    if samples.iter().any(|&x| x <= 0.0) {
        return Err(FitDistError::NonPositiveSample);
    }
    let m = Moments::from_samples(samples);
    let target_cv = m.std / m.mean;
    let target_skew = m.skewness;

    let objective = |p: &[f64]| -> f64 {
        let c = p[0].exp().clamp(0.3, 80.0);
        let k = p[1].exp().clamp(0.3, 80.0);
        // Moments of Burr with unit scale.
        let b = BurrXii::new(c, k, 1.0);
        let (m1, m2, m3) = match (b.raw_moment(1.0), b.raw_moment(2.0), b.raw_moment(3.0)) {
            (Some(a), Some(b2), Some(c3)) => (a, b2, c3),
            _ => return 1e6,
        };
        let var = m2 - m1 * m1;
        if var <= 0.0 {
            return 1e6;
        }
        let std = var.sqrt();
        let cv = std / m1;
        let skew = (m3 - 3.0 * m1 * var - m1.powi(3)) / std.powi(3);
        let e1 = (cv - target_cv) / target_cv.max(1e-12);
        let e2 = skew - target_skew;
        e1 * e1 + e2 * e2
    };

    let best = nelder_mead(&objective, &[1.5f64.ln(), 2.0f64.ln()], 0.5, 400);
    let c = best[0].exp().clamp(0.3, 80.0);
    let k = best[1].exp().clamp(0.3, 80.0);
    let unit = BurrXii::new(c, k, 1.0);
    let m1 = unit.raw_moment(1.0).unwrap_or(1.0);
    let scale = m.mean / m1;
    Ok(BurrXii::new(c, k, scale.max(1e-300)))
}

/// Minimizes `f` with the Nelder–Mead simplex method.
///
/// `x0` is the starting point, `step` the initial simplex edge length and
/// `max_iter` the iteration budget. Returns the best vertex found. This is a
/// compact, allocation-light implementation sufficient for the 2–3 parameter
/// fits used in this workspace.
fn nelder_mead(f: &dyn Fn(&[f64]) -> f64, x0: &[f64], step: f64, max_iter: usize) -> Vec<f64> {
    let n = x0.len();
    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
    simplex.push((x0.to_vec(), f(x0)));
    for i in 0..n {
        let mut v = x0.to_vec();
        v[i] += step;
        let fv = f(&v);
        simplex.push((v, fv));
    }

    let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);
    for _ in 0..max_iter {
        simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN objective"));
        let best = simplex[0].1;
        let worst = simplex[n].1;
        if (worst - best).abs() < 1e-14 * (1.0 + best.abs()) {
            break;
        }
        // Centroid of all but worst.
        let mut centroid = vec![0.0; n];
        for v in &simplex[..n] {
            for (c, x) in centroid.iter_mut().zip(&v.0) {
                *c += x / n as f64;
            }
        }
        // Reflection.
        let reflected: Vec<f64> = centroid
            .iter()
            .zip(&simplex[n].0)
            .map(|(c, w)| c + alpha * (c - w))
            .collect();
        let fr = f(&reflected);
        if fr < simplex[0].1 {
            // Expansion.
            let expanded: Vec<f64> = centroid
                .iter()
                .zip(&reflected)
                .map(|(c, r)| c + gamma * (r - c))
                .collect();
            let fe = f(&expanded);
            simplex[n] = if fe < fr {
                (expanded, fe)
            } else {
                (reflected, fr)
            };
        } else if fr < simplex[n - 1].1 {
            simplex[n] = (reflected, fr);
        } else {
            // Contraction.
            let contracted: Vec<f64> = centroid
                .iter()
                .zip(&simplex[n].0)
                .map(|(c, w)| c + rho * (w - c))
                .collect();
            let fc = f(&contracted);
            if fc < simplex[n].1 {
                simplex[n] = (contracted, fc);
            } else {
                // Shrink toward best.
                let best_v = simplex[0].0.clone();
                for v in simplex.iter_mut().skip(1) {
                    for (x, b) in v.0.iter_mut().zip(&best_v) {
                        *x = b + sigma * (*x - b);
                    }
                    v.1 = f(&v.0);
                }
            }
        }
    }
    simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN objective"));
    simplex[0].0.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::Distribution;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn nelder_mead_finds_quadratic_minimum() {
        let f = |x: &[f64]| (x[0] - 3.0).powi(2) + 2.0 * (x[1] + 1.0).powi(2);
        let best = nelder_mead(&f, &[0.0, 0.0], 1.0, 300);
        assert!((best[0] - 3.0).abs() < 1e-5);
        assert!((best[1] + 1.0).abs() < 1e-5);
    }

    #[test]
    fn skew_normal_moment_fit_recovers_parameters() {
        let truth = SkewNormal::new(10.0, 2.0, 2.5);
        let mut rng = SmallRng::seed_from_u64(4);
        let xs: Vec<f64> = (0..100_000).map(|_| truth.sample(&mut rng)).collect();
        let m = Moments::from_samples(&xs);
        let fitted = skew_normal_from_moments(m.mean, m.std, m.skewness);
        assert!((fitted.mean() - truth.mean()).abs() < 0.05);
        assert!((fitted.std() - truth.std()).abs() < 0.05);
        // Quantiles track within 1%.
        for &p in &[0.0228, 0.5, 0.9772] {
            let rel = (fitted.quantile(p) - truth.quantile(p)).abs() / truth.quantile(p).abs();
            assert!(rel < 0.01, "p={p} rel={rel}");
        }
    }

    #[test]
    fn skew_normal_fit_clamps_extreme_skewness() {
        // Exponential-ish data has skewness ~2, far above the SN max ~0.995.
        let mut rng = SmallRng::seed_from_u64(8);
        let xs: Vec<f64> = (0..50_000)
            .map(|_| -rand::Rng::gen_range(&mut rng, f64::EPSILON..1.0f64).ln())
            .collect();
        let m = Moments::from_samples(&xs);
        let fitted = skew_normal_from_moments(m.mean, m.std, m.skewness);
        // Still produces a valid distribution with matching mean/std.
        assert!((fitted.mean() - m.mean).abs() / m.mean < 0.02);
        assert!((fitted.std() - m.std).abs() / m.std < 0.02);
    }

    #[test]
    fn lsn_fit_on_lognormal_like_data() {
        let truth = LogSkewNormal::new(3.0, 0.25, 1.5);
        let mut rng = SmallRng::seed_from_u64(21);
        let xs: Vec<f64> = (0..100_000).map(|_| truth.sample(&mut rng)).collect();
        let fitted = fit_log_skew_normal(&xs).unwrap();
        for &p in &[0.0014, 0.5, 0.9986] {
            let rel = (fitted.quantile(p) - truth.quantile(p)).abs() / truth.quantile(p);
            assert!(rel < 0.03, "p={p} rel={rel}");
        }
    }

    #[test]
    fn lsn_fit_rejects_nonpositive() {
        assert_eq!(
            fit_log_skew_normal(&[1.0, -2.0, 3.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
            Err(FitDistError::NonPositiveSample)
        );
    }

    #[test]
    fn burr_fit_recovers_burr_data() {
        let truth = BurrXii::new(4.0, 3.0, 12.0);
        let mut rng = SmallRng::seed_from_u64(6);
        let xs: Vec<f64> = (0..100_000).map(|_| truth.sample(&mut rng)).collect();
        let fitted = fit_burr(&xs).unwrap();
        for &p in &[0.0228, 0.5, 0.9772] {
            let rel = (fitted.quantile(p) - truth.quantile(p)).abs() / truth.quantile(p);
            assert!(rel < 0.05, "p={p} rel={rel}");
        }
    }

    #[test]
    fn fits_reject_tiny_samples() {
        assert!(matches!(
            fit_log_skew_normal(&[1.0, 2.0]),
            Err(FitDistError::SampleTooSmall(2))
        ));
        assert!(matches!(
            fit_burr(&[1.0; 4]),
            Err(FitDistError::SampleTooSmall(4))
        ));
    }
}
