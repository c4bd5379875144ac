//! # nsigma-cells
//!
//! Synthetic standard-cell library and Monte-Carlo characterization for the
//! `nsigma` workspace (reproduction of Jin et al., DATE 2023).
//!
//! * [`cell`] — cell kinds (INV/BUF/NAND2/NOR2/AOI2/OAI2/XOR2), strengths and
//!   transistor topology (stack depth = the paper's "number of stacked
//!   transistors");
//! * [`library`] — the full kinds × {x1, x2, x4, x8} library with name lookup;
//! * [`timing`] — the per-sample analytic arc evaluation shared by the golden
//!   Monte-Carlo simulator;
//! * [`characterize`] — the Fig. 5 characterization flow producing the
//!   `[μ, σ, γ, κ]` moment LUTs over a (slew × load) grid;
//! * [`liberty`] — Liberty-subset (`.lib` + LVF moment tables) export and
//!   re-import of the characterized library.
//!
//! # Examples
//!
//! ```
//! use nsigma_cells::{CellLibrary};
//! use nsigma_cells::timing::nominal_arc;
//! use nsigma_process::Technology;
//!
//! let tech = Technology::synthetic_28nm();
//! let lib = CellLibrary::standard();
//! let id = lib.find("NOR2x4").expect("standard cell");
//! let arc = nominal_arc(&tech, lib.cell(id), 10e-12, 0.4e-15);
//! assert!(arc.delay > 0.0);
//! ```

#![warn(missing_docs)]

pub mod cell;
pub mod characterize;
pub mod liberty;
pub mod library;
pub mod timing;

pub use cell::{Cell, CellKind};
pub use characterize::{characterize_cell, characterize_cells, CharacterizeConfig, MomentGrid};
pub use library::{CellId, CellLibrary};
pub use timing::{nominal_arc, sample_arc, ArcSample};

// The other workspace crates re-create their lib.rs files as they are
// implemented; keep stub modules out of the public API.
