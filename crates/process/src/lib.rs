//! # nsigma-process
//!
//! Synthetic 28 nm-class technology and process-variation substrate for the
//! `nsigma` workspace (reproduction of Jin et al., DATE 2023).
//!
//! The paper's models are characterized against a proprietary TSMC 28 nm PDK
//! at 0.6 V. This crate supplies the substitution documented in `DESIGN.md`:
//!
//! * [`Technology`] — a synthetic technology with near-threshold device
//!   parameters, Pelgrom mismatch and BEOL wire constants;
//! * [`Stack`] — a transistor stack on an EKV-style current model whose
//!   exponential sensitivity to a Gaussian V_th yields the right-skewed,
//!   heavy-tailed delay distributions the paper's Fig. 2 shows;
//! * [`VariationModel`] / [`GlobalSample`] — global-corner plus local
//!   mismatch sampling shared by the golden Monte-Carlo simulator.
//!
//! # Examples
//!
//! ```
//! use nsigma_process::{Stack, Technology, VariationModel};
//! use rand::SeedableRng;
//!
//! let tech = Technology::synthetic_28nm();
//! let model = VariationModel::new(&tech);
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//!
//! // A NAND2-style 2-deep stack drives half the current of an inverter...
//! let inv = Stack::new(1, 1.0);
//! let nand = Stack::new(2, 1.0);
//! assert!(nand.drive_current(&tech, 0.0, 1.0) < inv.drive_current(&tech, 0.0, 1.0));
//!
//! // ...and its effective mismatch is averaged by √2 (Pelgrom), the fact
//! // the paper's eq. (5) builds on.
//! let g = model.sample_global(&mut rng);
//! assert!(g.mobility > 0.0);
//! ```

#![warn(missing_docs)]

pub mod technology;
mod transistor;
pub mod variation;

pub use technology::Technology;
pub use transistor::Stack;
pub use variation::{GlobalSample, VariationModel};
