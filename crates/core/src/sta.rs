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
//! (the differential-test oracle). This module owns the calibrated model,
//! the interned cell-id table, and the sharded stage-quantile cache.

use crate::calibration::{MomentCalibration, C_REF, S_REF};
use crate::cell_model::CellQuantileModel;
use crate::wire_model::{WireCalibConfig, WireVariabilityModel};
use nsigma_cells::characterize::{characterize_cell_threads, CharacterizeConfig, MomentGrid};
use nsigma_cells::{Cell, CellKind, CellLibrary};
use nsigma_mc::design::Design;
use nsigma_process::Technology;
use nsigma_stats::quantile::QuantileSet;
use nsigma_stats::regression::FitError;
use nsigma_stats::rng::SeedStream;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

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

/// Snapshot of the timer's stage-quantile cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to evaluate the model.
    pub misses: u64,
    /// Distinct `(cell, slew, load)` entries currently cached.
    pub entries: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; zero when no lookups happened yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Cache key: interned cell id plus the exact bit patterns of the operating
/// point, so a hit returns the identical `f64`s a fresh evaluation would.
type StageKey = (u32, u64, u64);

/// Number of stage-cache shards. A power of two so shard selection is a
/// mask; 64 shards keep eight concurrent workers from colliding on one
/// lock while staying small enough that `cache_stats` stays cheap.
const CACHE_SHARDS: usize = 64;

/// One shard of the stage-quantile cache. Hit/miss counters live per
/// shard so lookups never contend on a global atomic pair.
struct CacheShard {
    map: RwLock<HashMap<StageKey, (QuantileSet, f64)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CacheShard {
    fn new() -> Self {
        Self {
            map: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

/// FNV-1a over the key's raw words, folded so the power-of-two mask sees
/// avalanche bits rather than the low bits of a float payload.
fn shard_index(key: &StageKey) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in [u64::from(key.0), key.1, key.2] {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    ((h ^ (h >> 32)) as usize) & (CACHE_SHARDS - 1)
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
    /// Memoized per-stage `(cell quantiles, raw output slew)` keyed on the
    /// exact operating point. The model is a pure function of the key, so
    /// cached answers are bit-identical to recomputed ones. Sharded so
    /// concurrent queries don't serialize on one lock.
    stage_cache: Box<[CacheShard]>,
}

impl NsigmaTimer {
    /// Builds the timer: characterizes every library cell, fits the Table I
    /// coefficients and calibrates the wire model.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTimerError`] on an empty library or degenerate fits.
    pub fn build(
        tech: &Technology,
        lib: &CellLibrary,
        cfg: &TimerConfig,
    ) -> Result<Self, BuildTimerError> {
        if lib.is_empty() {
            return Err(BuildTimerError::EmptyLibrary);
        }
        // Cells are characterized independently, so fan out across them.
        // Each cell gets a seed tagged by its library index, making the
        // numbers a function of (master seed, cell position) alone —
        // identical for any thread count or scheduling. The inner per-cell
        // grid parallelism is pinned to one thread here; the outer fan-out
        // already saturates the machine.
        let cells: Vec<&Cell> = lib.iter().map(|(_, c)| c).collect();
        let seeds = SeedStream::new(cfg.seed);
        let n_threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(cells.len());
        let indexed: Vec<(usize, MomentGrid)> = crossbeam::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..n_threads {
                let my: Vec<(usize, &Cell)> = cells
                    .iter()
                    .copied()
                    .enumerate()
                    .skip(t)
                    .step_by(n_threads)
                    .collect();
                let seeds = &seeds;
                handles.push(scope.spawn(move |_| {
                    my.into_iter()
                        .map(|(idx, cell)| {
                            let char_cfg = CharacterizeConfig::standard(
                                cfg.char_samples,
                                seeds.tagged_seed(idx as u64),
                            );
                            (idx, characterize_cell_threads(tech, cell, &char_cfg, 1))
                        })
                        .collect::<Vec<_>>()
                }));
            }
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("cell characterization worker panicked"))
                .collect()
        })
        .expect("characterization scope failed");

        let mut grids: Vec<Option<MomentGrid>> = vec![None; cells.len()];
        for (idx, grid) in indexed {
            grids[idx] = Some(grid);
        }

        // Fit in library order so the training set (and thus the global
        // Table I fit) is independent of which worker finished first.
        let mut calibrations = HashMap::new();
        let mut training = Vec::new();
        for (cell, grid) in cells.iter().zip(&grids) {
            let grid = grid.as_ref().expect("every cell characterized");
            for p in grid.iter() {
                training.push((p.moments, p.quantiles));
            }
            calibrations.insert(
                cell.name().to_string(),
                MomentCalibration::fit(grid, S_REF, C_REF)?,
            );
        }
        let quantile_model = CellQuantileModel::fit(&training)?;
        let all_cells: Vec<Cell> = lib.iter().map(|(_, c)| c.clone()).collect();
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
            stage_cache: (0..CACHE_SHARDS).map(|_| CacheShard::new()).collect(),
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

    /// The stage-quantile cell evaluation, memoized on the exact operating
    /// point. Returns the cell delay quantiles and the *raw* output slew
    /// (before wire-mean adjustment) for `(cell, input slew, load)`.
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
    /// interned cell id — no string allocation or hashing per lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this timer's `cell_id`.
    pub fn stage_cell_quantiles_id(&self, id: u32, slew: f64, load: f64) -> (QuantileSet, f64) {
        let (q, s, _) = self.stage_cell_quantiles_probe(id, slew, load);
        (q, s)
    }

    /// [`NsigmaTimer::stage_cell_quantiles_id`] plus a hit flag: `true`
    /// when the lookup was answered from the shared stage cache, `false`
    /// when the model had to be evaluated. Sessions use the flag to
    /// attribute cache traffic per design.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this timer's `cell_id`.
    pub fn stage_cell_quantiles_probe(
        &self,
        id: u32,
        slew: f64,
        load: f64,
    ) -> (QuantileSet, f64, bool) {
        let key: StageKey = (id, slew.to_bits(), load.to_bits());
        let shard = &self.stage_cache[shard_index(&key)];
        if let Some(&cached) = shard
            .map
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
        {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return (cached.0, cached.1, true);
        }
        shard.misses.fetch_add(1, Ordering::Relaxed);
        let cal = &self.cal_table[id as usize];
        let moments = cal.moments_at(slew, load);
        let value = (
            self.quantile_model.predict(&moments),
            cal.output_slew_at(slew, load),
        );
        shard
            .map
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key, value);
        (value.0, value.1, false)
    }

    /// Cache counters since construction (the cache survives for the
    /// timer's lifetime; long-lived daemons report these via `stats`),
    /// summed over all shards.
    pub fn cache_stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for shard in self.stage_cache.iter() {
            stats.hits += shard.hits.load(Ordering::Relaxed);
            stats.misses += shard.misses.load(Ordering::Relaxed);
            stats.entries += shard
                .map
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .len() as u64;
        }
        stats
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

    /// Replaces the wire model (ablation hook).
    pub fn set_wire_model(&mut self, model: WireVariabilityModel) {
        self.wire_model = model;
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

    #[test]
    fn cache_stats_survive_a_poisoned_shard() {
        let lib = small_lib();
        let timer = quick_timer(&lib);
        let (slew, load) = (20e-12, 2e-15);
        let first = timer.stage_cell_quantiles_id(0, slew, load);
        let shard = &timer.stage_cache[shard_index(&(0, slew.to_bits(), load.to_bits()))];
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _guard = shard.map.write().unwrap();
                panic!("poison the shard");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(shard.map.is_poisoned());
        let stats = timer.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));
        // Lookups keep answering from the poisoned shard.
        assert_eq!(timer.stage_cell_quantiles_id(0, slew, load), first);
        assert_eq!(timer.cache_stats().hits, 1);
    }
}
