//! Process-variation sampling: global (die-to-die) corners and local
//! (within-die, Pelgrom) mismatch.
//!
//! One [`GlobalSample`] is drawn per Monte-Carlo iteration and shared by
//! every device and wire segment on the die; local mismatch is drawn
//! per-device on top of it. This split is what couples cell and wire delay
//! in the golden simulator — the "interaction" the paper's title refers to.

use crate::technology::Technology;
use nsigma_stats::rng::standard_normal;
use rand::Rng;

/// One sampled global (die-to-die) process corner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalSample {
    /// Global threshold-voltage shift (V), shared by all devices.
    pub dvth: f64,
    /// Global mobility / current-factor multiplier (≈1.0).
    pub mobility: f64,
    /// Global wire-resistance multiplier (≈1.0).
    pub wire_res_scale: f64,
    /// Global wire-capacitance multiplier (≈1.0).
    pub wire_cap_scale: f64,
}

impl GlobalSample {
    /// The nominal corner (no variation).
    pub fn nominal() -> Self {
        Self {
            dvth: 0.0,
            mobility: 1.0,
            wire_res_scale: 1.0,
            wire_cap_scale: 1.0,
        }
    }
}

impl Default for GlobalSample {
    fn default() -> Self {
        Self::nominal()
    }
}

/// Draws global and local variation deviates for a [`Technology`].
///
/// # Examples
///
/// ```
/// use nsigma_process::{Technology, VariationModel};
/// use rand::SeedableRng;
///
/// let tech = Technology::synthetic_28nm();
/// let model = VariationModel::new(&tech);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
/// let g = model.sample_global(&mut rng);
/// assert!(g.mobility > 0.5 && g.mobility < 1.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VariationModel {
    global_vth_sigma: f64,
    global_mobility_sigma: f64,
    wire_res_global_sigma: f64,
    wire_cap_global_sigma: f64,
    wire_local_sigma: f64,
    /// Multiplier on local (per-device) mismatch; 0 disables it.
    local_scale: f64,
}

impl VariationModel {
    /// Builds the model from a technology's variation parameters.
    pub fn new(tech: &Technology) -> Self {
        Self {
            global_vth_sigma: tech.global_vth_sigma,
            global_mobility_sigma: tech.global_mobility_sigma,
            wire_res_global_sigma: tech.wire_res_global_sigma,
            wire_cap_global_sigma: tech.wire_cap_global_sigma,
            wire_local_sigma: tech.wire_local_sigma,
            local_scale: 1.0,
        }
    }

    /// A model with all sigmas zeroed — useful to sanity-check that the
    /// golden simulator collapses to its nominal value.
    pub fn disabled() -> Self {
        Self {
            global_vth_sigma: 0.0,
            global_mobility_sigma: 0.0,
            wire_res_global_sigma: 0.0,
            wire_cap_global_sigma: 0.0,
            wire_local_sigma: 0.0,
            local_scale: 0.0,
        }
    }

    /// Draws one global (die) corner.
    ///
    /// Mobility and wire R/C multipliers are log-normal (always positive);
    /// the threshold shift is Gaussian.
    pub fn sample_global<R: Rng + ?Sized>(&self, rng: &mut R) -> GlobalSample {
        self.sample_global_shifted(rng, 0.0).0
    }

    /// Draws one global corner with the threshold-voltage deviate
    /// mean-shifted by `shift` standard deviations, returning the corner
    /// and the shifted-measure deviate `z` (so `dvth = sigma_vth · z`).
    ///
    /// This is the proposal distribution of ISLE-style importance
    /// sampling: the caller reweights each trial by the Gaussian
    /// likelihood ratio `exp(-shift·z + shift²/2)`. With `shift = 0` the
    /// draw is identical to [`VariationModel::sample_global`].
    pub fn sample_global_shifted<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        shift: f64,
    ) -> (GlobalSample, f64) {
        let z = standard_normal(rng) + shift;
        let dvth = self.global_vth_sigma * z;
        let mobility = lognormal_factor(rng, self.global_mobility_sigma);
        let wire_res_scale = lognormal_factor(rng, self.wire_res_global_sigma);
        let wire_cap_scale = lognormal_factor(rng, self.wire_cap_global_sigma);
        (
            GlobalSample {
                dvth,
                mobility,
                wire_res_scale,
                wire_cap_scale,
            },
            z,
        )
    }

    /// Draws a local V_th mismatch deviate with the given sigma (V).
    pub fn sample_local_vth<R: Rng + ?Sized>(&self, rng: &mut R, sigma: f64) -> f64 {
        self.local_scale * sigma * standard_normal(rng)
    }

    /// Draws a local multiplicative wire R or C factor (log-normal, mean 1).
    pub fn sample_wire_local<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        lognormal_factor(rng, self.wire_local_sigma)
    }
}

/// A mean-1 log-normal multiplier with relative sigma `s`.
fn lognormal_factor<R: Rng + ?Sized>(rng: &mut R, s: f64) -> f64 {
    if s == 0.0 {
        return 1.0;
    }
    let sigma2 = (1.0 + s * s).ln();
    let sigma = sigma2.sqrt();
    (sigma * standard_normal(rng) - 0.5 * sigma2).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsigma_stats::moments::Moments;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn disabled_model_is_deterministic() {
        let m = VariationModel::disabled();
        let mut rng = SmallRng::seed_from_u64(1);
        let g = m.sample_global(&mut rng);
        assert_eq!(g, GlobalSample::nominal());
        assert_eq!(m.sample_local_vth(&mut rng, 0.0), 0.0);
        assert_eq!(m.sample_wire_local(&mut rng), 1.0);
    }

    #[test]
    fn global_sample_statistics() {
        let tech = Technology::synthetic_28nm();
        let m = VariationModel::new(&tech);
        let mut rng = SmallRng::seed_from_u64(5);
        let samples: Vec<GlobalSample> = (0..100_000).map(|_| m.sample_global(&mut rng)).collect();

        let dvth: Vec<f64> = samples.iter().map(|s| s.dvth).collect();
        let mv = Moments::from_samples(&dvth);
        assert!(mv.mean.abs() < 2e-4);
        assert!((mv.std - tech.global_vth_sigma).abs() / tech.global_vth_sigma < 0.02);

        let mob: Vec<f64> = samples.iter().map(|s| s.mobility).collect();
        let mm = Moments::from_samples(&mob);
        assert!(
            (mm.mean - 1.0).abs() < 0.002,
            "lognormal mean 1, got {}",
            mm.mean
        );
        assert!((mm.std - tech.global_mobility_sigma).abs() / tech.global_mobility_sigma < 0.05);
        assert!(mob.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn shifted_global_matches_plain_at_zero_shift() {
        let tech = Technology::synthetic_28nm();
        let m = VariationModel::new(&tech);
        let mut a = SmallRng::seed_from_u64(21);
        let mut b = SmallRng::seed_from_u64(21);
        for _ in 0..50 {
            let plain = m.sample_global(&mut a);
            let (shifted, z) = m.sample_global_shifted(&mut b, 0.0);
            assert_eq!(plain, shifted);
            assert_eq!(plain.dvth, tech.global_vth_sigma * z);
        }
    }

    #[test]
    fn shifted_global_moves_the_vth_mean() {
        let tech = Technology::synthetic_28nm();
        let m = VariationModel::new(&tech);
        let mut rng = SmallRng::seed_from_u64(33);
        let shift = 3.0;
        let n = 50_000;
        let mut sum_z = 0.0;
        for _ in 0..n {
            let (g, z) = m.sample_global_shifted(&mut rng, shift);
            assert_eq!(g.dvth, tech.global_vth_sigma * z);
            sum_z += z;
        }
        let mean_z = sum_z / n as f64;
        assert!((mean_z - shift).abs() < 0.02, "mean z = {mean_z}");
    }

    #[test]
    fn wire_factors_positive_mean_one() {
        let tech = Technology::synthetic_28nm();
        let m = VariationModel::new(&tech);
        let mut rng = SmallRng::seed_from_u64(9);
        let xs: Vec<f64> = (0..50_000).map(|_| m.sample_wire_local(&mut rng)).collect();
        let mm = Moments::from_samples(&xs);
        assert!((mm.mean - 1.0).abs() < 0.002);
        assert!(xs.iter().all(|&x| x > 0.0));
    }
}
