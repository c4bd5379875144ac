//! The N-sigma cell delay model of the paper's Table I.
//!
//! Each sigma-level quantile is expressed as the Gaussian base `μ + n·σ`
//! plus moment cross terms:
//!
//! | level | correction terms |
//! |---|---|
//! | ±3σ | `σκ`, `γκ` |
//! | ±2σ | `σγ`, `σκ`, `γκ` |
//! | 0, ±σ | `σγ`, `γκ` |
//!
//! The `A_ni` / `B_nj` coefficients are fitted by linear regression of the
//! Monte-Carlo quantiles against the moments across the whole characterized
//! library (the paper fits them "through MATLAB"; here, through
//! [`nsigma_stats::regression`]).
//!
//! One normalization note (documented deviation): the paper's Table I mixes
//! terms of different physical dimension (`σκ` is seconds, `γκ` is
//! dimensionless). A single dimensionless-γκ coefficient cannot serve cells
//! whose delays differ by 10×, so this implementation regresses the
//! *normalized* residual `(q − μ − nσ)/σ` against the dimensionless features
//! `{γ, κ, γκ}` — exactly the paper's term structure with the overall σ
//! factored out, which is what makes one coefficient table work for the
//! entire library.

use nsigma_stats::linalg::Matrix;
use nsigma_stats::moments::Moments;
use nsigma_stats::quantile::{QuantileSet, SigmaLevel};
use nsigma_stats::regression::{ols, FitError};

/// Which dimensionless features feed each sigma level's regression,
/// mirroring Table I (σγ/σ → γ, σκ/σ → κ, γκ stays γκ). Returns the
/// features in a fixed array and how many of its leading slots are used,
/// so evaluating the model allocates nothing.
fn features_for(level: SigmaLevel, m: &Moments) -> ([f64; 3], usize) {
    let g = m.skewness;
    let k = m.kurtosis;
    match level.n().abs() {
        3 => ([k, g * k, 0.0], 2),
        2 => ([g, k, g * k], 3),
        _ => ([g, g * k, 0.0], 2),
    }
}

/// The fitted N-sigma cell quantile model (Table I coefficients).
///
/// # Examples
///
/// ```
/// use nsigma_core::cell_model::CellQuantileModel;
/// use nsigma_stats::moments::Moments;
/// use nsigma_stats::quantile::{QuantileSet, SigmaLevel};
///
/// // Gaussian training data: quantiles are exactly μ + nσ.
/// let training: Vec<(Moments, QuantileSet)> = (1..40)
///     .map(|i| {
///         let mean = 10.0 + i as f64;
///         let std = 1.0 + 0.05 * i as f64;
///         let m = Moments { mean, std, skewness: 0.0, kurtosis: 3.0, n: 1000 };
///         let q = QuantileSet::from_fn(|l| mean + l.n() as f64 * std);
///         (m, q)
///     })
///     .collect();
/// let model = CellQuantileModel::fit(&training)?;
/// let probe = Moments { mean: 25.0, std: 2.0, skewness: 0.0, kurtosis: 3.0, n: 1000 };
/// let q = model.predict(&probe);
/// assert!((q[SigmaLevel::PlusThree] - 31.0).abs() < 1e-6);
/// # Ok::<(), nsigma_stats::regression::FitError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CellQuantileModel {
    /// Per sigma level: intercept followed by the feature coefficients of
    /// [`features_for`], acting on the σ-normalized residual.
    coefficients: [Vec<f64>; 7],
}

impl CellQuantileModel {
    /// Fits the Table I coefficients from `(moments, quantiles)` pairs
    /// gathered across the characterized library.
    ///
    /// # Errors
    ///
    /// Returns a [`FitError`] if there are fewer training points than
    /// coefficients or the regression is degenerate.
    ///
    /// # Panics
    ///
    /// Panics if any training point has a non-positive σ.
    pub fn fit(training: &[(Moments, QuantileSet)]) -> Result<Self, FitError> {
        let mut coefficients: [Vec<f64>; 7] = Default::default();
        for level in SigmaLevel::ALL {
            let mut rows = Vec::with_capacity(training.len());
            let mut ys = Vec::with_capacity(training.len());
            for (m, q) in training {
                assert!(m.std > 0.0, "training moments need positive σ");
                let base = m.mean + level.n() as f64 * m.std;
                let resid = (q[level] - base) / m.std;
                let (features, len) = features_for(level, m);
                let mut row = vec![1.0];
                row.extend_from_slice(&features[..len]);
                rows.push(row);
                ys.push(resid);
            }
            let fit = ols(&Matrix::from_rows(&rows), &ys)?;
            coefficients[level.index()] = fit.coefficients;
        }
        Ok(Self { coefficients })
    }

    /// Predicts the seven sigma-level quantiles from the first four moments
    /// (Table I evaluated with the fitted coefficients).
    pub fn predict(&self, m: &Moments) -> QuantileSet {
        QuantileSet::from_fn(|level| {
            let coeffs = &self.coefficients[level.index()];
            let (features, len) = features_for(level, m);
            let mut resid = coeffs[0];
            for (c, f) in coeffs[1..].iter().zip(&features[..len]) {
                resid += c * f;
            }
            m.mean + level.n() as f64 * m.std + resid * m.std
        })
    }

    /// The fitted coefficient vector for one level (intercept first) —
    /// the `A_ni`/`B_nj` values reported by the Table I reproduction binary.
    pub fn coefficients(&self, level: SigmaLevel) -> &[f64] {
        &self.coefficients[level.index()]
    }

    /// Rebuilds a model from stored coefficient vectors (intercept first,
    /// level order −3σ…+3σ) — the inverse of [`CellQuantileModel::coefficients`].
    ///
    /// # Panics
    ///
    /// Panics if a vector's length does not match the level's Table I term
    /// count.
    pub fn from_coefficients(coefficients: [Vec<f64>; 7]) -> Self {
        for (i, c) in coefficients.iter().enumerate() {
            let level = SigmaLevel::ALL[i];
            let expect = Self::term_count(level);
            assert_eq!(
                c.len(),
                expect,
                "coefficient count for {level} must be {expect}"
            );
        }
        Self { coefficients }
    }

    /// A model with all correction terms zeroed: the pure Gaussian
    /// `μ + n·σ` rule. The ablation baseline.
    pub fn gaussian() -> Self {
        let mut coefficients: [Vec<f64>; 7] = Default::default();
        for level in SigmaLevel::ALL {
            coefficients[level.index()] = vec![0.0; Self::term_count(level)];
        }
        Self { coefficients }
    }

    /// The Table I term count of a sigma level: the intercept plus its
    /// features (4 at ±2σ, 3 at every other level).
    pub(crate) fn term_count(level: SigmaLevel) -> usize {
        let unit = Moments {
            mean: 0.0,
            std: 1.0,
            skewness: 0.0,
            kurtosis: 0.0,
            n: 0,
        };
        1 + features_for(level, &unit).1
    }
}

/// Relative error (%) of a predicted quantile against a golden quantile —
/// the error measure of Table II.
pub fn quantile_error_pct(predicted: f64, golden: f64) -> f64 {
    ((predicted - golden) / golden * 100.0).abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsigma_stats::distributions::{Distribution, LogNormal};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Builds skewed training/test data from lognormal families.
    fn lognormal_dataset(seed: u64, count: usize) -> Vec<(Moments, QuantileSet)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..count)
            .map(|i| {
                let mean = 10.0 + (i % 17) as f64;
                let cv = 0.08 + 0.02 * (i % 9) as f64;
                let d = LogNormal::from_mean_std(mean, cv * mean);
                let xs: Vec<f64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
                (Moments::from_samples(&xs), QuantileSet::from_samples(&xs))
            })
            .collect()
    }

    #[test]
    fn beats_gaussian_rule_on_skewed_data() {
        let training = lognormal_dataset(1, 40);
        let test = lognormal_dataset(2, 10);
        let model = CellQuantileModel::fit(&training).unwrap();
        let gaussian = CellQuantileModel::gaussian();

        let mut err_model = 0.0;
        let mut err_gauss = 0.0;
        for (m, q) in &test {
            let pm = model.predict(m);
            let pg = gaussian.predict(m);
            for lvl in [SigmaLevel::MinusThree, SigmaLevel::PlusThree] {
                err_model += quantile_error_pct(pm[lvl], q[lvl]);
                err_gauss += quantile_error_pct(pg[lvl], q[lvl]);
            }
        }
        assert!(
            err_model < err_gauss * 0.6,
            "N-sigma {err_model:.2} should clearly beat Gaussian {err_gauss:.2}"
        );
        // And the headline accuracy: ±3σ average error in the paper's 2–3%
        // band for in-family data.
        let avg = err_model / (test.len() * 2) as f64;
        assert!(avg < 3.0, "avg ±3σ error {avg:.2}%");
    }

    #[test]
    fn prediction_is_scale_invariant() {
        // Doubling all delays must double the predicted quantiles: the
        // σ-normalized regression guarantees it.
        let training = lognormal_dataset(3, 30);
        let model = CellQuantileModel::fit(&training).unwrap();
        let m = &training[0].0;
        let scaled = Moments {
            mean: m.mean * 2.0,
            std: m.std * 2.0,
            ..*m
        };
        let q1 = model.predict(m);
        let q2 = model.predict(&scaled);
        for lvl in SigmaLevel::ALL {
            assert!((q2[lvl] - 2.0 * q1[lvl]).abs() < 1e-9 * q1[lvl].abs());
        }
    }

    #[test]
    fn predicted_quantiles_are_monotone_for_realistic_moments() {
        let training = lognormal_dataset(4, 40);
        let model = CellQuantileModel::fit(&training).unwrap();
        for (m, _) in &training {
            assert!(model.predict(m).is_monotone(), "moments {m:?}");
        }
    }

    #[test]
    fn coefficient_shapes_follow_table_i() {
        let training = lognormal_dataset(5, 30);
        let model = CellQuantileModel::fit(&training).unwrap();
        // intercept + 2 terms at ±3σ and 0/±σ; intercept + 3 terms at ±2σ.
        assert_eq!(model.coefficients(SigmaLevel::PlusThree).len(), 3);
        assert_eq!(model.coefficients(SigmaLevel::PlusTwo).len(), 4);
        assert_eq!(model.coefficients(SigmaLevel::Zero).len(), 3);
    }

    #[test]
    fn underdetermined_fit_errors() {
        let training = lognormal_dataset(6, 2);
        assert!(CellQuantileModel::fit(&training).is_err());
    }
}
