//! Monte-Carlo library characterization: the paper's Fig. 5 flow.
//!
//! For each cell, input slew and output load, 10 k (configurable) process
//! samples are drawn and reduced to the first four delay moments
//! `[μ, σ, γ, κ]`, the seven sigma-level quantiles, and the mean output slew.
//! The result is the moment LUT the N-sigma model calibrates against — the
//! synthetic equivalent of an LVF-annotated Liberty table.

use crate::cell::Cell;
use crate::timing::sample_arc;
use nsigma_process::{Technology, VariationModel};
use nsigma_stats::moments::Moments;
use nsigma_stats::quantile::QuantileSet;
use nsigma_stats::rng::SeedStream;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Characterization data for one (slew, load) grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// Characterizes one cell over the configured grid.
///
/// Every grid point draws fresh global + local variation per trial (the
/// single-cell characterization setting of §III-B). Points are processed in
/// parallel; seeding is per-point, so the result is independent of thread
/// scheduling.
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
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    characterize_cell_threads(tech, cell, cfg, threads)
}

/// [`characterize_cell`] with an explicit worker-thread cap.
///
/// Callers that already fan out across cells (e.g. the timer build) pass
/// `threads = 1` to keep the machine from oversubscribing; the numbers are
/// identical for any thread count because seeding is per grid point.
///
/// # Panics
///
/// Panics if the configuration axes are empty or `samples == 0`.
pub fn characterize_cell_threads(
    tech: &Technology,
    cell: &Cell,
    cfg: &CharacterizeConfig,
    threads: usize,
) -> MomentGrid {
    assert!(
        !cfg.slews.is_empty() && !cfg.loads.is_empty(),
        "characterization axes must be non-empty"
    );
    assert!(cfg.samples > 0, "characterization needs samples");

    let variation = VariationModel::new(tech);
    let seeds = SeedStream::new(cfg.seed);

    let n_points = cfg.slews.len() * cfg.loads.len();
    let mut points: Vec<Option<GridPoint>> = vec![None; n_points];

    // Parallelize across grid points; each point is seeded by its index so
    // the output is deterministic regardless of scheduling.
    let chunks: Vec<(usize, f64, f64)> = cfg
        .slews
        .iter()
        .enumerate()
        .flat_map(|(i, &s)| {
            cfg.loads
                .iter()
                .enumerate()
                .map(move |(j, &c)| (i * cfg.loads.len() + j, s, c))
                .collect::<Vec<_>>()
        })
        .collect();

    let results: Vec<(usize, GridPoint)> = std::thread::scope(|scope| {
        let n_threads = threads.max(1).min(chunks.len().max(1));
        let mut handles = Vec::new();
        for t in 0..n_threads {
            let my: Vec<(usize, f64, f64)> =
                chunks.iter().copied().skip(t).step_by(n_threads).collect();
            let variation = &variation;
            let seeds = &seeds;
            handles.push(scope.spawn(move || {
                my.into_iter()
                    .map(|(idx, slew, load)| {
                        let point_seed = seeds.tagged_seed(idx as u64);
                        (
                            idx,
                            characterize_point(
                                tech,
                                variation,
                                cell,
                                slew,
                                load,
                                cfg.samples,
                                point_seed,
                            ),
                        )
                    })
                    .collect::<Vec<_>>()
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("characterization worker panicked"))
            .collect()
    });

    for (idx, p) in results {
        points[idx] = Some(p);
    }

    MomentGrid {
        slews: cfg.slews.clone(),
        loads: cfg.loads.clone(),
        points: points
            .into_iter()
            .map(|p| p.expect("every grid point characterized"))
            .collect(),
    }
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
