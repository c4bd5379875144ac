//! Sample moments: mean, standard deviation, skewness and kurtosis.
//!
//! The N-sigma model is parameterized by exactly these four moments
//! (`[μ, σ, γ, κ]` in the paper's notation), so they are first-class citizens
//! here, with both batch and online (streaming) estimators.

/// The first four moments of a sample, in the paper's `[μ, σ, γ, κ]` order.
///
/// Kurtosis is *full* kurtosis (Gaussian → 3), not excess.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Moments {
    /// Sample mean μ.
    pub mean: f64,
    /// Sample standard deviation σ (population convention, `/n`).
    pub std: f64,
    /// Sample skewness γ = m₃ / m₂^{3/2}.
    pub skewness: f64,
    /// Sample kurtosis κ = m₄ / m₂² (Gaussian → 3).
    pub kurtosis: f64,
    /// Number of samples.
    pub n: usize,
}

impl Moments {
    /// Computes moments from a slice of samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use nsigma_stats::moments::Moments;
    ///
    /// let m = Moments::from_samples(&[1.0, 2.0, 3.0, 4.0]);
    /// assert!((m.mean - 2.5).abs() < 1e-12);
    /// assert!(m.skewness.abs() < 1e-12); // symmetric sample
    /// ```
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "moments of an empty sample");
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let mut m2 = 0.0;
        let mut m3 = 0.0;
        let mut m4 = 0.0;
        for &x in samples {
            let d = x - mean;
            let d2 = d * d;
            m2 += d2;
            m3 += d2 * d;
            m4 += d2 * d2;
        }
        m2 /= n;
        m3 /= n;
        m4 /= n;
        let std = m2.sqrt();
        let (skewness, kurtosis) = if m2 > 0.0 {
            (m3 / m2.powf(1.5), m4 / (m2 * m2))
        } else {
            (0.0, 0.0)
        };
        Self {
            mean,
            std,
            skewness,
            kurtosis,
            n: samples.len(),
        }
    }

    /// Coefficient of variation σ/μ — the "delay variability" the wire model
    /// of §IV is built on.
    ///
    /// # Panics
    ///
    /// Panics if the mean is zero.
    pub fn variability(&self) -> f64 {
        assert!(self.mean != 0.0, "variability undefined for zero mean");
        self.std / self.mean
    }

    /// The moment vector `[μ, σ, γ, κ]` in the paper's ordering.
    pub fn as_array(&self) -> [f64; 4] {
        [self.mean, self.std, self.skewness, self.kurtosis]
    }
}

/// Online (single-pass, numerically stable) moment accumulator.
///
/// Uses the standard incremental update formulas for central moments
/// (Pébay 2008), so it can absorb millions of Monte-Carlo samples without
/// storing them. Supports merging partial accumulators from parallel chunks.
///
/// # Examples
///
/// ```
/// use nsigma_stats::moments::{Moments, RunningMoments};
///
/// let xs = [1.0, 2.0, 3.0, 10.0];
/// let mut acc = RunningMoments::new();
/// for &x in &xs {
///     acc.push(x);
/// }
/// let batch = Moments::from_samples(&xs);
/// let online = acc.moments();
/// assert!((batch.mean - online.mean).abs() < 1e-12);
/// assert!((batch.kurtosis - online.kurtosis).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningMoments {
    n: u64,
    mean: f64,
    m2: f64,
    m3: f64,
    m4: f64,
}

impl RunningMoments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of samples absorbed so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Absorbs a single sample.
    pub fn push(&mut self, x: f64) {
        let n1 = self.n as f64;
        self.n += 1;
        let n = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let delta_n2 = delta_n * delta_n;
        let term1 = delta * delta_n * n1;
        self.mean += delta_n;
        self.m4 += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * self.m2
            - 4.0 * delta_n * self.m3;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &RunningMoments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let na = self.n as f64;
        let nb = other.n as f64;
        let n = na + nb;
        let delta = other.mean - self.mean;
        let delta2 = delta * delta;
        let delta3 = delta2 * delta;
        let delta4 = delta2 * delta2;

        let m2 = self.m2 + other.m2 + delta2 * na * nb / n;
        let m3 = self.m3
            + other.m3
            + delta3 * na * nb * (na - nb) / (n * n)
            + 3.0 * delta * (na * other.m2 - nb * self.m2) / n;
        let m4 = self.m4
            + other.m4
            + delta4 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n)
            + 6.0 * delta2 * (na * na * other.m2 + nb * nb * self.m2) / (n * n)
            + 4.0 * delta * (na * other.m3 - nb * self.m3) / n;

        self.mean += delta * nb / n;
        self.m2 = m2;
        self.m3 = m3;
        self.m4 = m4;
        self.n += other.n;
    }

    /// Finalizes the accumulated statistics into a [`Moments`].
    ///
    /// # Panics
    ///
    /// Panics if no samples were absorbed.
    pub fn moments(&self) -> Moments {
        assert!(self.n > 0, "moments of an empty accumulator");
        let n = self.n as f64;
        let m2 = self.m2 / n;
        let m3 = self.m3 / n;
        let m4 = self.m4 / n;
        let std = m2.sqrt();
        let (skewness, kurtosis) = if m2 > 0.0 {
            (m3 / m2.powf(1.5), m4 / (m2 * m2))
        } else {
            (0.0, 0.0)
        };
        Moments {
            mean: self.mean,
            std,
            skewness,
            kurtosis,
            n: self.n as usize,
        }
    }
}

impl Extend<f64> for RunningMoments {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningMoments {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut acc = RunningMoments::new();
        acc.extend(iter);
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_like_sample_has_kurtosis_near_3() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(42);
        let xs: Vec<f64> = (0..100_000)
            .map(|_| crate::rng::standard_normal(&mut rng))
            .collect();
        let m = Moments::from_samples(&xs);
        assert!(m.mean.abs() < 0.02);
        assert!((m.std - 1.0).abs() < 0.02);
        assert!(m.skewness.abs() < 0.05);
        assert!((m.kurtosis - 3.0).abs() < 0.1);
    }

    #[test]
    fn lognormal_is_right_skewed() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(1);
        let xs: Vec<f64> = (0..50_000)
            .map(|_| (0.5 * crate::rng::standard_normal(&mut rng)).exp())
            .collect();
        let m = Moments::from_samples(&xs);
        assert!(m.skewness > 1.0);
        assert!(m.kurtosis > 3.0);
    }

    #[test]
    fn running_matches_batch_exactly() {
        let xs = [3.2, -1.0, 4.4, 0.1, 9.0, 2.2, 2.3, -5.5];
        let batch = Moments::from_samples(&xs);
        let online: RunningMoments = xs.iter().copied().collect();
        let m = online.moments();
        assert!((batch.mean - m.mean).abs() < 1e-12);
        assert!((batch.std - m.std).abs() < 1e-12);
        assert!((batch.skewness - m.skewness).abs() < 1e-10);
        assert!((batch.kurtosis - m.kurtosis).abs() < 1e-10);
    }

    #[test]
    fn merge_matches_single_pass() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 * 0.13).collect();
        let (a, b) = xs.split_at(400);
        let mut acc_a: RunningMoments = a.iter().copied().collect();
        let acc_b: RunningMoments = b.iter().copied().collect();
        acc_a.merge(&acc_b);
        let merged = acc_a.moments();
        let whole = Moments::from_samples(&xs);
        assert!((merged.mean - whole.mean).abs() < 1e-10);
        assert!((merged.std - whole.std).abs() < 1e-10);
        assert!((merged.skewness - whole.skewness).abs() < 1e-8);
        assert!((merged.kurtosis - whole.kurtosis).abs() < 1e-8);
        assert_eq!(merged.n, 1000);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let xs = [1.0, 2.0, 3.0];
        let mut acc: RunningMoments = xs.iter().copied().collect();
        let before = acc.moments();
        acc.merge(&RunningMoments::new());
        assert_eq!(acc.moments(), before);

        let mut empty = RunningMoments::new();
        empty.merge(&acc);
        assert_eq!(empty.moments(), before);
    }

    #[test]
    fn constant_sample_has_zero_higher_moments() {
        let m = Moments::from_samples(&[5.0; 10]);
        assert_eq!(m.std, 0.0);
        assert_eq!(m.skewness, 0.0);
        assert_eq!(m.kurtosis, 0.0);
    }

    #[test]
    fn variability_is_cv() {
        let m = Moments::from_samples(&[9.0, 10.0, 11.0]);
        assert!((m.variability() - m.std / m.mean).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        Moments::from_samples(&[]);
    }
}
