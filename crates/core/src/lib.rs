//! # nsigma-core
//!
//! The primary contribution of *“A Novel Delay Calibration Method
//! Considering Interaction between Cells and Wires”* (Jin et al., DATE
//! 2023), implemented from scratch:
//!
//! * [`cell_model`] — the Table I N-sigma quantile model: sigma-level
//!   quantiles from the first four moments with `σγ`/`σκ`/`γκ` cross terms,
//!   coefficients fitted by regression over the characterized library;
//! * [`calibration`] — the §III-B operating-condition calibration (eqs.
//!   1–3): bilinear correction of μ/σ and cubic correction of γ/κ in
//!   (Δslew, Δload), with the cross term;
//! * [`wire_model`] — the §IV wire model (eqs. 4–9): Elmore mean with a
//!   variability `X_w` composed of driver/load cell-specific coefficients
//!   following Pelgrom's √(stack·strength) law, normalized to the FO4
//!   inverter;
//! * [`sta`] — the N-sigma timer build: characterization-driven
//!   calibration, the interned cell-id table, and the allocation-free
//!   per-stage evaluation (eqs. 1–3 then Table I) every engine calls;
//! * [`session`] — **the** query engine: [`TimingSession`] owns a compiled
//!   design plus the per-net arrival state that answers whole-design
//!   analysis, and exposes path/ranked-path analysis, cone-limited ECO
//!   resizes that keep that state exact, and SDF export with typed
//!   [`QueryError`] results;
//! * [`reference`] — the legacy string-keyed implementation, kept only as
//!   the oracle of the differential-equivalence test suite;
//! * [`extended`] — the ±6σ extension the paper mentions (Cornish–Fisher)
//!   and timing-yield curves built from the sigma levels;
//! * [`sdf`] — SDF export of a session's state, with the sigma levels as
//!   (min:typ:max) triplets;
//! * [`stat_max`] — pessimistic and Clark statistical MAX merges for
//!   block-based analysis;
//! * [`compiled`] — the compiled timing graph: designs lowered once into
//!   interned-id/CSR arrays with precomputed wire data, and the one
//!   per-gate block-based propagation kernel every analysis runs (see
//!   DESIGN.md, "Performance architecture");
//! * [`report`] — sign-off-style text timing reports (k-worst paths);
//! * [`coeff_store`] — the Fig. 5 coefficients file (text LUT), so analysis
//!   can skip recharacterization.
//!
//! # Examples
//!
//! End-to-end: build the timer, open a session, analyze the critical
//! path, read the +3σ arrival.
//!
//! ```no_run
//! use nsigma_cells::CellLibrary;
//! use nsigma_core::session::TimingSession;
//! use nsigma_core::sta::{NsigmaTimer, TimerConfig};
//! use nsigma_core::stat_max::MergeRule;
//! use nsigma_mc::design::Design;
//! use nsigma_netlist::generators::arith::ripple_adder;
//! use nsigma_netlist::mapping::map_to_cells;
//! use nsigma_process::Technology;
//! use nsigma_stats::quantile::SigmaLevel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tech = Technology::synthetic_28nm();
//! let lib = CellLibrary::standard();
//! let netlist = map_to_cells(&ripple_adder(16), &lib)?;
//! let design = Design::with_generated_parasitics(tech.clone(), lib.clone(), netlist, 1);
//!
//! let timer = NsigmaTimer::build(&tech, &lib, &TimerConfig::standard(42))?;
//! let session = TimingSession::new(&timer, design, MergeRule::Pessimistic)?;
//! let (path, timing) = session.critical_path().expect("non-empty");
//! println!("{} stages, +3σ = {:.1} ps", path.len(),
//!          timing.quantiles[SigmaLevel::PlusThree] * 1e12);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod calibration;
pub mod cell_model;
pub mod coeff_store;
pub mod compiled;
pub mod extended;
pub mod reference;
pub mod report;
pub mod sdf;
pub mod session;
pub mod sta;
pub mod stat_max;
pub mod wire_model;

pub use calibration::{MomentCalibration, C_REF, S_REF};
pub use cell_model::CellQuantileModel;
pub use coeff_store::{read_coefficients, write_coefficients};
pub use compiled::CompiledDesign;
pub use extended::{cornish_fisher_quantile, extended_quantiles, YieldCurve};
pub use session::{QueryError, TimingSession};
pub use sta::{NsigmaTimer, PathTiming, StageTiming, TimerConfig};
pub use stat_max::{clark_max, MergeRule};
pub use wire_model::{cell_coefficient, WireCalibConfig, WireVariabilityModel};
