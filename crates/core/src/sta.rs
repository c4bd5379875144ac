//! The N-sigma statistical timer: the paper's characterization flow
//! (Fig. 1 / Fig. 5) and the calibrated per-stage model every query
//! engine reads.
//!
//! Building a [`NsigmaTimer`] runs the characterization flow once per
//! library cell (moments over the slew×load grid → [`MomentCalibration`]),
//! fits the Table I quantile coefficients across the whole library, and
//! calibrates the wire variability model. Analysis then needs *no* Monte
//! Carlo: each stage is two table lookups and a handful of multiplies,
//! which is where the paper's ~100× speedup over SPICE MC comes from.
//!
//! The timer itself exposes no design queries: analysis goes through
//! [`crate::session::TimingSession`] (production) or [`crate::reference`]
//! (the differential-test oracle). This module owns the calibrated model
//! and the interned cell-id table. A stage is evaluated directly on every
//! call — [`NsigmaTimer::stage_cell_quantiles_id`] allocates nothing and
//! holds no lock — so the timer is plain shared data.

use crate::calibration::{MomentCalibration, C_REF, S_REF};
use crate::cell_model::CellQuantileModel;
use crate::wire_model::{WireCalibConfig, WireVariabilityModel};
use nsigma_cells::characterize::{characterize_cells, CharacterizeConfig};
use nsigma_cells::liberty::LibertyCell;
use nsigma_cells::{Cell, CellKind, CellLibrary};
use nsigma_mc::design::Design;
use nsigma_process::Technology;
use nsigma_stats::quantile::QuantileSet;
use nsigma_stats::regression::FitError;
use nsigma_stats::rng::SeedStream;
use std::collections::HashMap;

/// Configuration for building a timer.
#[derive(Debug, Clone, PartialEq)]
pub struct TimerConfig {
    /// MC samples per characterization grid point (paper: 10 000).
    pub char_samples: usize,
    /// Wire-model calibration settings.
    pub wire: WireCalibConfig,
    /// Transition time assumed at primary inputs (s).
    pub input_slew: f64,
    /// Master seed.
    pub seed: u64,
}

impl TimerConfig {
    /// A fast-but-faithful configuration (3 k samples/point) for tests and
    /// examples; the experiment binaries crank `char_samples` to 10 k.
    pub fn standard(seed: u64) -> Self {
        Self {
            char_samples: 3000,
            wire: WireCalibConfig::standard(seed ^ 0x5757),
            input_slew: 10e-12,
            seed,
        }
    }
}

/// Per-stage timing detail of a path analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Gate instance name.
    pub gate: String,
    /// Library cell name.
    pub cell: String,
    /// Input slew assumed for this stage (s).
    pub input_slew: f64,
    /// Output load used for moment calibration (F).
    pub load: f64,
    /// The stage's N-sigma cell delay quantiles.
    pub cell_quantiles: QuantileSet,
    /// The stage's N-sigma wire delay quantiles (zero set if unloaded).
    pub wire_quantiles: QuantileSet,
}

/// The result of analyzing one path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathTiming {
    /// Path arrival quantiles — the paper's `T_path(nσ)` of eq. (10).
    pub quantiles: QuantileSet,
    /// Per-stage breakdown, source first.
    pub stages: Vec<StageTiming>,
}

/// Error building a timer.
#[derive(Debug)]
pub enum BuildTimerError {
    /// A regression failed (degenerate characterization data).
    Fit(FitError),
    /// The library has no cells.
    EmptyLibrary,
}

impl std::fmt::Display for BuildTimerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildTimerError::Fit(e) => write!(f, "coefficient fit failed: {e}"),
            BuildTimerError::EmptyLibrary => write!(f, "cannot build a timer for an empty library"),
        }
    }
}

impl std::error::Error for BuildTimerError {}

impl From<FitError> for BuildTimerError {
    fn from(e: FitError) -> Self {
        BuildTimerError::Fit(e)
    }
}

/// The N-sigma statistical timer.
pub struct NsigmaTimer {
    tech: Technology,
    quantile_model: CellQuantileModel,
    calibrations: HashMap<String, MomentCalibration>,
    /// Cell name → dense id (sorted-name order, stable across runs).
    cell_ids: HashMap<String, u32>,
    /// Calibrations indexed by interned id; the hot path reads this `Vec`
    /// instead of hashing a `String` key.
    cal_table: Vec<MomentCalibration>,
    wire_model: WireVariabilityModel,
    input_slew: f64,
}

impl NsigmaTimer {
    /// Builds the timer: characterizes every library cell
    /// ([`characterize_library`]) and fits the result ([`Self::from_grids`]).
    ///
    /// # Errors
    ///
    /// Returns [`BuildTimerError`] on an empty library or degenerate fits.
    pub fn build(
        tech: &Technology,
        lib: &CellLibrary,
        cfg: &TimerConfig,
    ) -> Result<Self, BuildTimerError> {
        Self::from_grids(tech, &characterize_library(tech, lib, cfg), cfg)
    }

    /// Fits a timer on characterized cells: one moment calibration per
    /// cell, the Table I coefficients across all of them, and the wire
    /// model over the same cells.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTimerError`] on an empty cell list or degenerate fits.
    pub fn from_grids(
        tech: &Technology,
        cells: &[LibertyCell],
        cfg: &TimerConfig,
    ) -> Result<Self, BuildTimerError> {
        if cells.is_empty() {
            return Err(BuildTimerError::EmptyLibrary);
        }
        // Fit in the given order: the training set (and thus the global
        // Table I fit) is the grids' concatenation.
        let mut calibrations = HashMap::new();
        let mut training = Vec::new();
        for LibertyCell { cell, grid } in cells {
            for p in grid.iter() {
                training.push((p.moments, p.quantiles));
            }
            calibrations.insert(
                cell.name().to_string(),
                MomentCalibration::fit(grid, S_REF, C_REF)?,
            );
        }
        let quantile_model = CellQuantileModel::fit(&training)?;
        let all_cells: Vec<Cell> = cells.iter().map(|c| c.cell.clone()).collect();
        let wire_model = WireVariabilityModel::calibrate_with_cells(tech, &cfg.wire, &all_cells)?;
        Ok(Self::from_parts(
            tech.clone(),
            quantile_model,
            calibrations,
            wire_model,
            cfg.input_slew,
        ))
    }

    /// Constructs a timer from already-fitted components (used by the
    /// coefficient store and by ablation experiments).
    pub fn from_parts(
        tech: Technology,
        quantile_model: CellQuantileModel,
        calibrations: HashMap<String, MomentCalibration>,
        wire_model: WireVariabilityModel,
        input_slew: f64,
    ) -> Self {
        // Intern cell names in sorted order: ids are then a function of
        // the calibration *set*, not of hash-map iteration order.
        let mut names: Vec<&String> = calibrations.keys().collect();
        names.sort();
        let cell_ids: HashMap<String, u32> = names
            .iter()
            .enumerate()
            .map(|(i, n)| ((*n).clone(), i as u32))
            .collect();
        let cal_table: Vec<MomentCalibration> =
            names.iter().map(|n| calibrations[*n].clone()).collect();
        Self {
            tech,
            quantile_model,
            calibrations,
            cell_ids,
            cal_table,
            wire_model,
            input_slew,
        }
    }

    /// The interned id of a calibrated cell, or `None` if the timer has no
    /// calibration for it. Ids are dense (`0..num_calibrations`) and
    /// assigned in sorted-name order, so they are stable across runs.
    pub fn cell_id(&self, cell_name: &str) -> Option<u32> {
        self.cell_ids.get(cell_name).copied()
    }

    /// The calibration behind an interned id (see [`NsigmaTimer::cell_id`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this timer's `cell_id`.
    pub fn calibration_by_id(&self, id: u32) -> &MomentCalibration {
        &self.cal_table[id as usize]
    }

    /// The stage-quantile cell evaluation: the cell delay quantiles and the
    /// *raw* output slew (before wire-mean adjustment) for
    /// `(cell, input slew, load)`.
    ///
    /// # Panics
    ///
    /// Panics if the timer has no calibration for `cell_name`.
    pub fn stage_cell_quantiles(
        &self,
        cell_name: &str,
        slew: f64,
        load: f64,
    ) -> (QuantileSet, f64) {
        let id = self
            .cell_id(cell_name)
            .unwrap_or_else(|| panic!("timer has no calibration for {cell_name}"));
        self.stage_cell_quantiles_id(id, slew, load)
    }

    /// Hot-path variant of [`NsigmaTimer::stage_cell_quantiles`] keyed on an
    /// interned cell id: eqs. (1)–(3) calibrate the moments at the
    /// operating point, Table I turns them into quantiles. A pure function
    /// of its arguments: no allocation, no lock, no string hashing.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this timer's `cell_id`.
    pub fn stage_cell_quantiles_id(&self, id: u32, slew: f64, load: f64) -> (QuantileSet, f64) {
        let cal = &self.cal_table[id as usize];
        let moments = cal.moments_at(slew, load);
        (
            self.quantile_model.predict(&moments),
            cal.output_slew_at(slew, load),
        )
    }

    /// The process technology the timer was characterized for.
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// The fitted Table I model.
    pub fn quantile_model(&self) -> &CellQuantileModel {
        &self.quantile_model
    }

    /// The calibrated wire model.
    pub fn wire_model(&self) -> &WireVariabilityModel {
        &self.wire_model
    }

    /// Per-cell moment calibrations, keyed by cell name.
    pub fn calibrations(&self) -> &HashMap<String, MomentCalibration> {
        &self.calibrations
    }

    /// The assumed primary-input slew (s).
    pub fn input_slew(&self) -> f64 {
        self.input_slew
    }
}

impl std::fmt::Debug for NsigmaTimer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NsigmaTimer")
            .field("cells", &self.calibrations.len())
            .field("input_slew", &self.input_slew)
            .finish()
    }
}

/// Characterizes every library cell on the standard slew×load grid, in
/// library order: the grids [`NsigmaTimer::from_grids`] fits, and the
/// tables a Liberty export of the same build writes. Each cell's seed is
/// tagged by its library index, so a grid is a function of (master seed,
/// cell position) alone; all cells' grid points run as one fan-out.
pub fn characterize_library(
    tech: &Technology,
    lib: &CellLibrary,
    cfg: &TimerConfig,
) -> Vec<LibertyCell> {
    let seeds = SeedStream::new(cfg.seed);
    let jobs: Vec<(&Cell, CharacterizeConfig)> = lib
        .iter()
        .enumerate()
        .map(|(idx, (_, cell))| {
            let seed = seeds.tagged_seed(idx as u64);
            (cell, CharacterizeConfig::standard(cfg.char_samples, seed))
        })
        .collect();
    characterize_cells(tech, &jobs)
        .into_iter()
        .zip(&jobs)
        .map(|(grid, (cell, _))| LibertyCell {
            cell: (*cell).clone(),
            grid,
        })
        .collect()
}

/// Builds a library containing only the cell kinds/strengths a netlist
/// actually uses — trimming characterization time for small experiments.
pub fn used_cells(design: &Design) -> Vec<Cell> {
    let mut names: Vec<&str> = design
        .netlist
        .gates()
        .iter()
        .map(|g| design.lib.cell(g.cell).name())
        .collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .filter_map(|n| design.lib.find(n).map(|id| design.lib.cell(id).clone()))
        .collect()
}

/// Convenience: an INVx4 (FO4) cell, the wire-model baseline.
pub fn fo4_cell() -> Cell {
    Cell::new(CellKind::Inv, 4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsigma_netlist::generators::arith::ripple_adder;
    use nsigma_netlist::mapping::map_to_cells;
    use nsigma_stats::moments::Moments;

    /// A small library restricted to what the test designs use keeps the
    /// build under a second.
    fn small_lib() -> CellLibrary {
        let mut lib = CellLibrary::new();
        for kind in [
            CellKind::Inv,
            CellKind::Nand2,
            CellKind::Xor2,
            CellKind::Buf,
        ] {
            for s in [1, 2, 4, 8] {
                lib.add(Cell::new(kind, s));
            }
        }
        lib
    }

    fn adder_design(lib: &CellLibrary) -> Design {
        let tech = Technology::synthetic_28nm();
        let nl = map_to_cells(&ripple_adder(6), lib).unwrap();
        Design::with_generated_parasitics(tech, lib.clone(), nl, 21)
    }

    fn quick_timer(lib: &CellLibrary) -> NsigmaTimer {
        let tech = Technology::synthetic_28nm();
        let mut cfg = TimerConfig::standard(77);
        cfg.char_samples = 1500;
        cfg.wire.nets = 2;
        cfg.wire.samples = 800;
        NsigmaTimer::build(&tech, lib, &cfg).unwrap()
    }

    #[test]
    fn used_cells_trims_library() {
        let lib = small_lib();
        let design = adder_design(&lib);
        let used = used_cells(&design);
        assert!(!used.is_empty());
        assert!(used.len() <= lib.len());
    }

    #[test]
    fn timer_debug_is_nonempty() {
        let lib = small_lib();
        let timer = quick_timer(&lib);
        let s = format!("{timer:?}");
        assert!(s.contains("NsigmaTimer"));
    }

    /// A timer over literal coefficients: one made-up cell whose
    /// calibration and Table I model are fixed numbers, not a fit.
    fn literal_timer() -> NsigmaTimer {
        let reference = Moments {
            mean: 12.5e-12,
            std: 1.1e-12,
            skewness: 0.35,
            kurtosis: 3.4,
            n: 4000,
        };
        let cal = MomentCalibration::from_raw(
            S_REF,
            C_REF,
            reference,
            vec![9.5e-12, 4.2e-12, 1.3e-12],
            vec![0.8e-12, 0.35e-12, 0.11e-12],
            vec![0.12, -0.05, 0.031, 0.007, -0.0042, 0.0009, 0.017],
            vec![0.21, -0.08, 0.044, 0.012, -0.0061, 0.0013, 0.025],
            vec![35e-12, 18e-12, 6e-12],
            14e-12,
        );
        let model = CellQuantileModel::from_coefficients([
            vec![-0.21, 0.052, -0.031],
            vec![-0.11, 0.043, 0.018, -0.027],
            vec![0.06, -0.14, 0.009],
            vec![0.01, -0.055, 0.004],
            vec![-0.05, 0.12, -0.011],
            vec![0.09, 0.31, -0.024, 0.038],
            vec![0.27, 0.061, 0.072],
        ]);
        let calibrations = HashMap::from([("INVx1".to_string(), cal)]);
        NsigmaTimer::from_parts(
            Technology::synthetic_28nm(),
            model,
            calibrations,
            WireVariabilityModel::elmore_only(),
            10e-12,
        )
    }

    /// `(slew, load)` probes: the reference condition, an off-grid
    /// interior point, a point below the reference on both axes, and an
    /// extrapolation past the characterized grid.
    const PINNED_POINTS: [(f64, f64); 4] = [
        (10e-12, 0.4e-15),
        (75e-12, 1.5e-15),
        (3.3e-12, 0.07e-15),
        (420e-12, 9.1e-15),
    ];

    /// Bits of `moments_at` (μ, σ, γ, κ), `output_slew_at` and the seven
    /// `predict` quantiles (−3σ…+3σ) at each of [`PINNED_POINTS`].
    const PINNED_BITS: [[u64; 12]; 4] = [
        [
            0x3dab7cdfd9d7bdbb,
            0x3d7359f5a7b28179,
            0x3fd6666666666666,
            0x400b333333333333,
            0x3daec94ca210599e,
            0x3da40fbc97e9e03e,
            0x3da67d96b29e8db3,
            0x3da91f12c24561fb,
            0x3dab7a1810e79f94,
            0x3daddb0f3ac5fb6f,
            0x3db05be0cea5ce91,
            0x3db20da598486e9b,
        ],
        [
            0x3dbaa2972fd04695,
            0x3d8253f67250402d,
            0x3fda087859adf13f,
            0x400bff0edf96d3ec,
            0x3dd0b93c015c7282,
            0x3db398c99d99562d,
            0x3db5e5bf1cbc995e,
            0x3db8616642e90320,
            0x3dba9eac81027ced,
            0x3dbce3349f2c1eb6,
            0x3dbfa4c9a4d84bda,
            0x3dc16cdeec52d20e,
        ],
        [
            0x3da71a7d2f982aec,
            0x3d706b5aa626d24a,
            0x3fd7056d5bcd92ed,
            0x400b5092a25b6450,
            0x3d99b7e13dccdebc,
            0x3da0cd2cc54b1e73,
            0x3da2dcd9752fdeac,
            0x3da517f16cffe4ca,
            0x3da717edf9326e3c,
            0x3da91d37f6b56cf7,
            0x3dab8caba6338897,
            0x3dae6c80ced0654d,
        ],
        [
            0x3de277684c8f9b26,
            0x3da8f4c008f04915,
            0x4002f0ab71327243,
            0x401a2945ec735b40,
            0x3e0225648481a8ef,
            0x3dda7b97ab1035b2,
            0x3dddbb3950a35fee,
            0x3de0b35db00e0cec,
            0x3de260234db25019,
            0x3de4202b5c15db1f,
            0x3de78b43a6f3924d,
            0x3de9ed93010cabd8,
        ],
    ];

    #[test]
    fn stage_model_bits_are_pinned() {
        let timer = literal_timer();
        let id = timer.cell_id("INVx1").unwrap();
        let cal = timer.calibration_by_id(id);
        for (&(slew, load), pinned) in PINNED_POINTS.iter().zip(&PINNED_BITS) {
            let m = cal.moments_at(slew, load);
            let out_slew = cal.output_slew_at(slew, load);
            let q = timer.quantile_model().predict(&m);
            let mut bits = vec![
                m.mean.to_bits(),
                m.std.to_bits(),
                m.skewness.to_bits(),
                m.kurtosis.to_bits(),
                out_slew.to_bits(),
            ];
            bits.extend(q.as_array().map(f64::to_bits));
            assert_eq!(bits, pinned, "stage model at ({slew:e}, {load:e})");
            assert_eq!(timer.stage_cell_quantiles_id(id, slew, load), (q, out_slew));
        }
    }
}
