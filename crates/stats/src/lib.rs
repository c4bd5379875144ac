//! # nsigma-stats
//!
//! Statistics substrate for the `nsigma` workspace — the from-scratch
//! reproduction of *“A Novel Delay Calibration Method Considering Interaction
//! between Cells and Wires”* (Jin et al., DATE 2023).
//!
//! Everything the delay models need from numerical statistics lives here:
//!
//! * [`special`] — erf/Φ/Φ⁻¹, ln Γ, Owen's T;
//! * [`linalg`] — small dense matrices and a Cholesky solver;
//! * [`regression`] — OLS/ridge fits and the polynomial feature rows used by
//!   the paper's eqs. (2)–(3);
//! * [`moments`] — the `[μ, σ, γ, κ]` moment vector, batch and streaming;
//! * [`quantile`] — the seven sigma levels of Table I and empirical quantiles;
//! * [`distributions`] / [`fit`] — Normal, LogNormal, SkewNormal,
//!   LogSkewNormal and Burr XII with moment-based fitting (the LSN \[12\] and
//!   Burr \[13\] baselines);
//! * [`histogram`] — binning for the figure reproductions;
//! * [`rng`] — seeded, reproducible sampling utilities;
//! * [`par`] — the one deterministic fan-out over indexed rows.
//!
//! # Examples
//!
//! Estimating the moments and sigma-level quantiles of a skewed sample:
//!
//! ```
//! use nsigma_stats::distributions::{Distribution, LogNormal};
//! use nsigma_stats::moments::Moments;
//! use nsigma_stats::quantile::{QuantileSet, SigmaLevel};
//! use rand::SeedableRng;
//!
//! let d = LogNormal::from_mean_std(25.0e-12, 4.0e-12); // a delay-like sample
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let xs: Vec<f64> = (0..10_000).map(|_| d.sample(&mut rng)).collect();
//!
//! let m = Moments::from_samples(&xs);
//! assert!(m.skewness > 0.0); // right-skewed, like near-threshold delay
//!
//! let q = QuantileSet::from_samples(&xs);
//! assert!(q[SigmaLevel::PlusThree] > q[SigmaLevel::Zero]);
//! ```

#![warn(missing_docs)]

pub mod distributions;
pub mod fit;
pub mod histogram;
pub mod linalg;
pub mod moments;
pub mod par;
pub mod quantile;
pub mod regression;
pub mod rng;
pub mod special;

pub use moments::Moments;
pub use quantile::{QuantileSet, SigmaLevel};
