//! Monte-Carlo library characterization: the paper's Fig. 5 flow.
//!
//! For each cell, input slew and output load, 10 k (configurable) process
//! samples are drawn and reduced to the first four delay moments
//! `[μ, σ, γ, κ]`, the seven sigma-level quantiles, and the mean output slew.
//! The result is the moment LUT the N-sigma model calibrates against — the
//! synthetic equivalent of an LVF-annotated Liberty table.
//!
//! [`characterize_cells`] runs every (cell, grid point) of a library as one
//! [`nsigma_stats::par::fill`] fan-out. A point's seed is tagged by its grid
//! index under its cell's seed, so every grid depends on its row index
//! alone, never on the thread count or the schedule.

use crate::cell::Cell;
use crate::timing::sample_arc;
use nsigma_process::{Technology, VariationModel};
use nsigma_stats::moments::Moments;
use nsigma_stats::par;
use nsigma_stats::quantile::QuantileSet;
use nsigma_stats::rng::SeedStream;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Characterization data for one (slew, load) grid point.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GridPoint {
    /// Input slew of this point (s).
    pub slew: f64,
    /// Output load of this point (F).
    pub load: f64,
    /// First four delay moments.
    pub moments: Moments,
    /// Empirical sigma-level quantiles of delay.
    pub quantiles: QuantileSet,
    /// Mean output transition time (s) — used for slew propagation.
    pub mean_output_slew: f64,
}

/// A characterized cell: grid points laid out row-major as
/// `slews.len() × loads.len()`.
#[derive(Debug, Clone, PartialEq)]
pub struct MomentGrid {
    /// Input-slew axis (s), strictly increasing.
    pub slews: Vec<f64>,
    /// Output-load axis (F), strictly increasing.
    pub loads: Vec<f64>,
    /// Row-major grid points.
    pub points: Vec<GridPoint>,
}

impl MomentGrid {
    /// The grid point at slew index `i`, load index `j`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn at(&self, i: usize, j: usize) -> &GridPoint {
        &self.points[i * self.loads.len() + j]
    }

    /// The grid point nearest to the requested operating condition.
    pub fn nearest(&self, slew: f64, load: f64) -> &GridPoint {
        let i = nearest_index(&self.slews, slew);
        let j = nearest_index(&self.loads, load);
        self.at(i, j)
    }

    /// Iterates over all grid points.
    pub fn iter(&self) -> impl Iterator<Item = &GridPoint> {
        self.points.iter()
    }
}

fn nearest_index(axis: &[f64], x: f64) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, &a) in axis.iter().enumerate() {
        let d = (a - x).abs();
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// Characterization configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizeConfig {
    /// Input-slew axis (s).
    pub slews: Vec<f64>,
    /// Output-load axis (F).
    pub loads: Vec<f64>,
    /// Monte-Carlo samples per grid point (paper: 10 000).
    pub samples: usize,
    /// Master seed; every (cell, grid point) gets a stable derived seed.
    pub seed: u64,
}

impl CharacterizeConfig {
    /// The grid used throughout the evaluation: slews 10–300 ps, loads
    /// 0.1–6 fF (the sweep ranges of the paper's Fig. 4), with the reference
    /// condition (10 ps, 0.4 fF) on-grid.
    pub fn standard(samples: usize, seed: u64) -> Self {
        Self {
            slews: vec![10e-12, 25e-12, 50e-12, 100e-12, 200e-12, 300e-12],
            loads: vec![0.1e-15, 0.4e-15, 1.0e-15, 2.0e-15, 4.0e-15, 6.0e-15],
            samples,
            seed,
        }
    }
}

/// Characterizes one cell over the configured grid: the one-cell case of
/// [`characterize_cells`].
///
/// Every grid point draws fresh global + local variation per trial (the
/// single-cell characterization setting of §III-B).
///
/// # Panics
///
/// Panics if the configuration axes are empty or `samples == 0`.
///
/// # Examples
///
/// ```
/// use nsigma_cells::cell::{Cell, CellKind};
/// use nsigma_cells::characterize::{characterize_cell, CharacterizeConfig};
/// use nsigma_process::Technology;
///
/// let tech = Technology::synthetic_28nm();
/// let cfg = CharacterizeConfig {
///     slews: vec![10e-12, 50e-12],
///     loads: vec![0.4e-15, 2.0e-15],
///     samples: 500,
///     seed: 1,
/// };
/// let grid = characterize_cell(&tech, &Cell::new(CellKind::Inv, 1), &cfg);
/// assert_eq!(grid.points.len(), 4);
/// assert!(grid.at(0, 0).moments.mean > 0.0);
/// ```
pub fn characterize_cell(tech: &Technology, cell: &Cell, cfg: &CharacterizeConfig) -> MomentGrid {
    characterize_cells(tech, &[(cell, cfg.clone())]).remove(0)
}

/// Characterizes each `(cell, config)` pair over its grid, as one flat
/// fan-out over every (cell, grid point) on the host's threads.
///
/// Grid point `k` (row-major) of a cell is seeded by
/// `SeedStream::new(config.seed).tagged_seed(k)`, so each grid is a
/// function of its own pair alone: independent of the other pairs, the
/// thread count and the schedule.
///
/// # Panics
///
/// Panics if any configuration has an empty axis or `samples == 0`.
pub fn characterize_cells(
    tech: &Technology,
    cells: &[(&Cell, CharacterizeConfig)],
) -> Vec<MomentGrid> {
    let mut starts = Vec::with_capacity(cells.len());
    let mut total = 0;
    for (_, cfg) in cells {
        assert!(
            !cfg.slews.is_empty() && !cfg.loads.is_empty(),
            "characterization axes must be non-empty"
        );
        assert!(cfg.samples > 0, "characterization needs samples");
        starts.push(total);
        total += cfg.slews.len() * cfg.loads.len();
    }

    let variation = VariationModel::new(tech);
    let mut points = vec![GridPoint::default(); total];
    let mut workers = vec![(); par::host_threads()];
    // Row r is point r - starts[c] of the cell c whose range holds r.
    par::fill(&mut points, 1, &mut workers, |row, _, out| {
        let c = starts.partition_point(|&s| s <= row) - 1;
        let (cell, cfg) = &cells[c];
        let k = row - starts[c];
        let (slew, load) = (
            cfg.slews[k / cfg.loads.len()],
            cfg.loads[k % cfg.loads.len()],
        );
        let seed = SeedStream::new(cfg.seed).tagged_seed(k as u64);
        out[0] = characterize_point(tech, &variation, cell, slew, load, cfg.samples, seed);
    })
    .expect("characterization worker panicked");

    let mut points = points.into_iter();
    cells
        .iter()
        .map(|(_, cfg)| MomentGrid {
            slews: cfg.slews.clone(),
            loads: cfg.loads.clone(),
            points: points
                .by_ref()
                .take(cfg.slews.len() * cfg.loads.len())
                .collect(),
        })
        .collect()
}

/// Characterizes a single operating point (sequential inner loop).
pub fn characterize_point(
    tech: &Technology,
    variation: &VariationModel,
    cell: &Cell,
    slew: f64,
    load: f64,
    samples: usize,
    seed: u64,
) -> GridPoint {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut delays = Vec::with_capacity(samples);
    let mut slew_sum = 0.0;
    for _ in 0..samples {
        let g = variation.sample_global(&mut rng);
        let arc = sample_arc(tech, variation, cell, slew, load, &g, &mut rng);
        delays.push(arc.delay);
        slew_sum += arc.output_slew;
    }
    GridPoint {
        slew,
        load,
        moments: Moments::from_samples(&delays),
        quantiles: QuantileSet::from_samples(&delays),
        mean_output_slew: slew_sum / samples as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;

    fn quick_cfg() -> CharacterizeConfig {
        CharacterizeConfig {
            slews: vec![10e-12, 100e-12, 300e-12],
            loads: vec![0.4e-15, 2.0e-15, 6.0e-15],
            samples: 2000,
            seed: 7,
        }
    }

    #[test]
    fn characterization_is_deterministic() {
        let tech = Technology::synthetic_28nm();
        let cell = Cell::new(CellKind::Inv, 1);
        let a = characterize_cell(&tech, &cell, &quick_cfg());
        let b = characterize_cell(&tech, &cell, &quick_cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn mean_and_std_grow_with_slew_and_load() {
        // The monotone trends of the paper's Fig. 4 (μ, σ panels).
        let tech = Technology::synthetic_28nm();
        let cell = Cell::new(CellKind::Inv, 1);
        let grid = characterize_cell(&tech, &cell, &quick_cfg());
        // Along load axis at fixed slew.
        for i in 0..grid.slews.len() {
            for j in 1..grid.loads.len() {
                assert!(grid.at(i, j).moments.mean > grid.at(i, j - 1).moments.mean);
                assert!(grid.at(i, j).moments.std > grid.at(i, j - 1).moments.std);
            }
        }
        // Along slew axis at fixed load.
        for j in 0..grid.loads.len() {
            for i in 1..grid.slews.len() {
                assert!(grid.at(i, j).moments.mean > grid.at(i - 1, j).moments.mean);
            }
        }
    }

    #[test]
    fn quantiles_are_monotone_and_skewed_right() {
        let tech = Technology::synthetic_28nm();
        let cell = Cell::new(CellKind::Nand2, 2);
        let grid = characterize_cell(&tech, &cell, &quick_cfg());
        for p in grid.iter() {
            assert!(p.quantiles.is_monotone());
            assert!(p.moments.skewness > 0.0, "near-threshold delay skews right");
        }
    }

    #[test]
    fn nearest_lookup_picks_closest_point() {
        let tech = Technology::synthetic_28nm();
        let cell = Cell::new(CellKind::Inv, 1);
        let grid = characterize_cell(&tech, &cell, &quick_cfg());
        let p = grid.nearest(11e-12, 0.5e-15);
        assert_eq!(p.slew, 10e-12);
        assert_eq!(p.load, 0.4e-15);
    }

    #[test]
    #[should_panic(expected = "characterization needs samples")]
    fn zero_samples_rejected() {
        let tech = Technology::synthetic_28nm();
        let cell = Cell::new(CellKind::Inv, 1);
        let mut cfg = quick_cfg();
        cfg.samples = 0;
        characterize_cell(&tech, &cell, &cfg);
    }
}
