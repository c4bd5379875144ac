//! # nsigma-mc
//!
//! The golden Monte-Carlo timing simulator — this workspace's substitute for
//! the paper's HSPICE 10 k-sample runs (see `DESIGN.md` §2 for the
//! substitution rationale).
//!
//! * [`design`] — netlist + library + technology + generated parasitics;
//! * [`wire_sim`] — per-trial wire evaluation (transient or two-pole) with
//!   the driver's sampled current folded in;
//! * [`trial`] — the golden per-trial walks over a whole circuit or one
//!   path, built once per run on [`wire_sim::WirePlan`]'s flattened nets;
//! * [`path_sim`] — critical-path and whole-circuit MC with shared global
//!   corners, per-gate local mismatch and slew propagation;
//! * [`result`] — sample container with moment/quantile summaries.
//!
//! # Examples
//!
//! ```
//! use nsigma_cells::CellLibrary;
//! use nsigma_mc::design::Design;
//! use nsigma_mc::path_sim::{find_critical_path, simulate_path_mc, PathMcConfig};
//! use nsigma_netlist::generators::arith::ripple_adder;
//! use nsigma_netlist::mapping::map_to_cells;
//! use nsigma_process::Technology;
//!
//! let tech = Technology::synthetic_28nm();
//! let lib = CellLibrary::standard();
//! let netlist = map_to_cells(&ripple_adder(4), &lib).expect("maps");
//! let design = Design::with_generated_parasitics(tech, lib, netlist, 1);
//! let path = find_critical_path(&design).expect("non-empty design");
//! let cfg = PathMcConfig { samples: 200, seed: 7, input_slew: 10e-12 };
//! let golden = simulate_path_mc(&design, &path, &cfg);
//! assert!(golden.moments.mean > 0.0);
//! ```

#![warn(missing_docs)]

pub mod design;
pub mod path_sim;
pub mod result;
pub mod trial;
pub mod wire_sim;

pub use design::Design;
pub use path_sim::{find_critical_path, simulate_circuit_mc, simulate_path_mc, PathMcConfig};
pub use result::McResult;
pub use trial::{CircuitPlan, TrialScratch};
pub use wire_sim::{
    sample_wire, simulate_wire_mc, WireGoldenMode, WireMcConfig, WirePlan, WireSample, WireScratch,
};
