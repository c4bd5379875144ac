//! Sigma levels and empirical quantiles.
//!
//! The paper denotes the {0.14 %, 2.28 %, 15.87 %, 50 %, 84.13 %, 97.72 %,
//! 99.86 %} quantiles of a delay distribution as the sigma levels
//! −3σ … +3σ. [`SigmaLevel`] encodes those seven levels; [`QuantileSet`]
//! carries one delay value per level and is the universal "distribution
//! summary" exchanged between the model crates.

use crate::special::norm_cdf;

/// One of the seven sigma levels of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SigmaLevel {
    /// −3σ, the 0.14 % quantile.
    MinusThree,
    /// −2σ, the 2.28 % quantile.
    MinusTwo,
    /// −σ, the 15.87 % quantile.
    MinusOne,
    /// 0σ, the median.
    Zero,
    /// +σ, the 84.13 % quantile.
    PlusOne,
    /// +2σ, the 97.72 % quantile.
    PlusTwo,
    /// +3σ, the 99.86 % quantile — the sign-off worst case.
    PlusThree,
}

impl SigmaLevel {
    /// All seven levels, in ascending order.
    pub const ALL: [SigmaLevel; 7] = [
        SigmaLevel::MinusThree,
        SigmaLevel::MinusTwo,
        SigmaLevel::MinusOne,
        SigmaLevel::Zero,
        SigmaLevel::PlusOne,
        SigmaLevel::PlusTwo,
        SigmaLevel::PlusThree,
    ];

    /// The integer multiplier n in "nσ" (−3 … +3).
    pub fn n(self) -> i32 {
        match self {
            SigmaLevel::MinusThree => -3,
            SigmaLevel::MinusTwo => -2,
            SigmaLevel::MinusOne => -1,
            SigmaLevel::Zero => 0,
            SigmaLevel::PlusOne => 1,
            SigmaLevel::PlusTwo => 2,
            SigmaLevel::PlusThree => 3,
        }
    }

    /// The cumulative probability of this level under the Gaussian
    /// convention (e.g. +3σ → 0.99865…).
    pub fn probability(self) -> f64 {
        norm_cdf(self.n() as f64)
    }

    /// Builds a level from its integer multiplier.
    ///
    /// Returns `None` for |n| > 3.
    pub fn from_n(n: i32) -> Option<SigmaLevel> {
        Some(match n {
            -3 => SigmaLevel::MinusThree,
            -2 => SigmaLevel::MinusTwo,
            -1 => SigmaLevel::MinusOne,
            0 => SigmaLevel::Zero,
            1 => SigmaLevel::PlusOne,
            2 => SigmaLevel::PlusTwo,
            3 => SigmaLevel::PlusThree,
            _ => return None,
        })
    }

    /// Index into [`SigmaLevel::ALL`] / [`QuantileSet`] storage (0..7).
    pub fn index(self) -> usize {
        (self.n() + 3) as usize
    }
}

impl std::fmt::Display for SigmaLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.n();
        if n >= 0 {
            write!(f, "+{n}σ")
        } else {
            write!(f, "{n}σ")
        }
    }
}

/// One value per sigma level: the paper's N-sigma summary of a distribution.
///
/// # Examples
///
/// ```
/// use nsigma_stats::quantile::{QuantileSet, SigmaLevel};
///
/// let q = QuantileSet::from_fn(|lvl| lvl.n() as f64);
/// assert_eq!(q[SigmaLevel::PlusThree], 3.0);
/// assert!(q.is_monotone());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QuantileSet {
    values: [f64; 7],
}

impl QuantileSet {
    /// Builds from a closure evaluated at each level.
    pub fn from_fn(mut f: impl FnMut(SigmaLevel) -> f64) -> Self {
        let mut values = [0.0; 7];
        for lvl in SigmaLevel::ALL {
            values[lvl.index()] = f(lvl);
        }
        Self { values }
    }

    /// Builds from the seven values in ascending sigma order (−3σ first).
    pub fn from_values(values: [f64; 7]) -> Self {
        Self { values }
    }

    /// Estimates the set from empirical samples (sorts a copy).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
        Self::from_sorted(&sorted)
    }

    /// Estimates the set from already-sorted samples.
    ///
    /// # Panics
    ///
    /// Panics if `sorted` is empty.
    fn from_sorted(sorted: &[f64]) -> Self {
        Self::from_fn(|lvl| quantile_sorted(sorted, lvl.probability()))
    }

    /// The underlying values, −3σ first.
    pub fn as_array(&self) -> [f64; 7] {
        self.values
    }

    /// True if the quantiles are non-decreasing (any valid distribution).
    pub fn is_monotone(&self) -> bool {
        self.values.windows(2).all(|w| w[0] <= w[1])
    }

    /// Applies `f` elementwise (e.g. unit scaling).
    pub fn map(&self, f: impl Fn(f64) -> f64) -> QuantileSet {
        QuantileSet::from_fn(|lvl| f(self[lvl]))
    }

    /// Elementwise sum with another set.
    ///
    /// Statistically this is the paper's eq. (10): summing the nσ quantiles of
    /// the stage delays along a path. It is exact for fully correlated stages
    /// and a (slightly pessimistic for +nσ) upper bound otherwise — the
    /// convention the paper adopts.
    pub fn add(&self, other: &QuantileSet) -> QuantileSet {
        QuantileSet::from_fn(|lvl| self[lvl] + other[lvl])
    }
}

impl std::ops::Index<SigmaLevel> for QuantileSet {
    type Output = f64;
    fn index(&self, lvl: SigmaLevel) -> &f64 {
        &self.values[lvl.index()]
    }
}

impl std::ops::IndexMut<SigmaLevel> for QuantileSet {
    fn index_mut(&mut self, lvl: SigmaLevel) -> &mut f64 {
        &mut self.values[lvl.index()]
    }
}

/// Linear-interpolation empirical quantile (R type-7) of sorted data.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use nsigma_stats::quantile::quantile_sorted;
///
/// let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
/// assert_eq!(quantile_sorted(&xs, 0.5), 3.0);
/// assert_eq!(quantile_sorted(&xs, 0.0), 1.0);
/// assert_eq!(quantile_sorted(&xs, 1.0), 5.0);
/// ```
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = p * (n - 1) as f64;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    let frac = h - lo as f64;
    sorted[lo] + frac * (sorted[hi] - sorted[lo])
}

/// Convenience: empirical quantile of unsorted data (sorts a copy).
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
    quantile_sorted(&sorted, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigma_level_probabilities_match_table_i() {
        // Percent-defective column of Table I.
        let expect = [0.0014, 0.0228, 0.1587, 0.5, 0.8413, 0.9772, 0.9986];
        for (lvl, &e) in SigmaLevel::ALL.iter().zip(&expect) {
            assert!(
                (lvl.probability() - e).abs() < 1e-4,
                "{lvl}: {} vs {e}",
                lvl.probability()
            );
        }
    }

    #[test]
    fn sigma_level_roundtrip() {
        for lvl in SigmaLevel::ALL {
            assert_eq!(SigmaLevel::from_n(lvl.n()), Some(lvl));
        }
        assert_eq!(SigmaLevel::from_n(4), None);
        assert_eq!(SigmaLevel::from_n(-4), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SigmaLevel::PlusThree.to_string(), "+3σ");
        assert_eq!(SigmaLevel::MinusTwo.to_string(), "-2σ");
        assert_eq!(SigmaLevel::Zero.to_string(), "+0σ");
    }

    #[test]
    fn gaussian_samples_recover_sigma_levels() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(99);
        let xs: Vec<f64> = (0..400_000)
            .map(|_| crate::rng::standard_normal(&mut rng))
            .collect();
        let q = QuantileSet::from_samples(&xs);
        for lvl in SigmaLevel::ALL {
            let expected = lvl.n() as f64;
            // ±3σ tails of 400k samples carry real sampling noise.
            let tol = if lvl.n().abs() == 3 { 0.12 } else { 0.03 };
            assert!(
                (q[lvl] - expected).abs() < tol,
                "{lvl}: {} vs {expected}",
                q[lvl]
            );
        }
        assert!(q.is_monotone());
    }

    #[test]
    fn quantile_sorted_endpoints_and_interp() {
        let xs = [10.0, 20.0];
        assert_eq!(quantile_sorted(&xs, 0.0), 10.0);
        assert_eq!(quantile_sorted(&xs, 1.0), 20.0);
        assert_eq!(quantile_sorted(&xs, 0.5), 15.0);
        assert_eq!(quantile_sorted(&[7.0], 0.3), 7.0);
    }

    #[test]
    fn add_is_elementwise() {
        let a = QuantileSet::from_fn(|l| l.n() as f64);
        let b = QuantileSet::from_fn(|_| 1.0);
        let c = a.add(&b);
        assert_eq!(c[SigmaLevel::Zero], 1.0);
        assert_eq!(c[SigmaLevel::PlusThree], 4.0);
    }

    #[test]
    fn map_scales() {
        let a = QuantileSet::from_fn(|l| l.n() as f64);
        let b = a.map(|x| x * 2.0);
        assert_eq!(b[SigmaLevel::PlusTwo], 4.0);
    }

    #[test]
    #[should_panic(expected = "p must be in [0,1]")]
    fn quantile_rejects_bad_p() {
        quantile_sorted(&[1.0, 2.0], 1.5);
    }
}
