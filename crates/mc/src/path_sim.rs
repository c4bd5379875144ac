//! Golden path-level Monte Carlo: the SPICE-MC substitute of Table III.
//!
//! Each trial draws one global (die) corner shared by the whole path, then a
//! local mismatch deviate per gate. The *same* threshold sample drives a
//! gate's cell delay and its driver resistance into the downstream wire —
//! this shared sample is exactly the cell/wire interaction the paper's
//! calibration targets. Slew propagates stage to stage. The per-trial walks
//! themselves live in [`crate::trial`].

use crate::design::Design;
use crate::result::McResult;
use crate::trial::PathPlan;
use nsigma_cells::timing::nominal_arc;
use nsigma_interconnect::elmore::elmore_all;
use nsigma_netlist::topo::{longest_path_by, Path};
use nsigma_process::VariationModel;
use nsigma_stats::par;
use nsigma_stats::rng::SeedStream;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Configuration of a path Monte-Carlo run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathMcConfig {
    /// Number of trials (paper: 5 000 for Table III).
    pub samples: usize,
    /// Master seed; each trial gets a tagged child seed, so results are
    /// independent of threading.
    pub seed: u64,
    /// Transition time at the path's primary input (s).
    pub input_slew: f64,
}

impl PathMcConfig {
    /// The Table III setting: 5 000 samples, 10 ps primary-input slew.
    pub fn paper(seed: u64) -> Self {
        Self {
            samples: 5000,
            seed,
            input_slew: 10e-12,
        }
    }
}

/// Finds the nominal critical path: the PI→PO path maximizing the summed
/// nominal stage delay (cell + Elmore wire estimate).
///
/// Returns `None` for an empty netlist.
pub fn find_critical_path(design: &Design) -> Option<Path> {
    let weights: Vec<f64> = design
        .netlist
        .gate_ids()
        .map(|g| nominal_stage_weight(design, g))
        .collect();
    longest_path_by(&design.netlist, |g| weights[g.index()])
}

/// The nominal critical-path weight of one stage: the gate's nominal arc
/// delay (20 ps input slew into the lumped [`Design::stage_load_cap`]) plus
/// the Elmore delay to its output net's first sink. The single definition
/// behind [`find_critical_path`] and the compiled design's cached critical
/// weights.
pub fn nominal_stage_weight(design: &Design, g: nsigma_netlist::ir::GateId) -> f64 {
    let gate = design.netlist.gate(g);
    let cell = design.lib.cell(gate.cell);
    let load = design.stage_load_cap(gate.output);
    let arc = nominal_arc(&design.tech, cell, 20e-12, load);
    let wire = design
        .parasitic(gate.output)
        .map(|t| {
            let m1 = elmore_all(t);
            t.sinks().first().map(|s| m1[s.index()]).unwrap_or(0.0)
        })
        .unwrap_or(0.0);
    arc.delay + wire
}

/// One sampled path delay (s). Exposed for the experiment binaries that need
/// per-stage breakdowns; it builds the path's `PathPlan` on every call,
/// so loops should use [`simulate_path_mc`], which builds it once.
pub fn sample_path<R: Rng + ?Sized>(
    design: &Design,
    variation: &VariationModel,
    path: &Path,
    input_slew: f64,
    global: &nsigma_process::GlobalSample,
    rng: &mut R,
) -> f64 {
    let plan = PathPlan::new(design, path);
    let mut scratch = plan.scratch();
    plan.trial(variation, input_slew, global, rng, &mut scratch)
}

/// Runs the path Monte Carlo in parallel, deterministically in `cfg.seed`.
///
/// # Panics
///
/// Panics if `cfg.samples == 0` or the path is empty.
pub fn simulate_path_mc(design: &Design, path: &Path, cfg: &PathMcConfig) -> McResult {
    assert!(cfg.samples > 0, "path MC needs samples");
    assert!(!path.is_empty(), "path MC needs a non-empty path");
    let variation = VariationModel::new(&design.tech);
    let seeds = SeedStream::new(cfg.seed);
    let start = Instant::now();
    let plan = PathPlan::new(design, path);

    let mut samples = vec![0.0; cfg.samples];
    let mut scratches: Vec<_> = (0..par::host_threads()).map(|_| plan.scratch()).collect();
    par::fill(&mut samples, 1, &mut scratches, |trial, scratch, out| {
        let mut rng = SmallRng::seed_from_u64(seeds.tagged_seed(trial as u64));
        let global = variation.sample_global(&mut rng);
        out[0] = plan.trial(&variation, cfg.input_slew, &global, &mut rng, scratch);
    })
    .expect("path MC worker panicked");
    McResult::from_samples(samples, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::CircuitPlan;
    use nsigma_cells::CellLibrary;
    use nsigma_netlist::generators::arith::ripple_adder;
    use nsigma_netlist::generators::random_dag::Iscas85;
    use nsigma_netlist::mapping::map_to_cells;
    use nsigma_netlist::topo::NetlistCsr;
    use nsigma_process::Technology;

    fn adder_design() -> Design {
        let tech = Technology::synthetic_28nm();
        let lib = CellLibrary::standard();
        let nl = map_to_cells(&ripple_adder(8), &lib).unwrap();
        Design::with_generated_parasitics(tech, lib, nl, 3)
    }

    #[test]
    fn critical_path_ends_at_an_output() {
        let d = adder_design();
        let p = find_critical_path(&d).unwrap();
        assert!(p.len() >= 8, "carry chain spans the adder: {}", p.len());
        let last_net = *p.nets.last().unwrap();
        assert!(d.netlist.outputs().contains(&last_net));
    }

    #[test]
    fn path_mc_is_deterministic_and_skewed() {
        let d = adder_design();
        let p = find_critical_path(&d).unwrap();
        let cfg = PathMcConfig {
            samples: 1500,
            seed: 9,
            input_slew: 10e-12,
        };
        let a = simulate_path_mc(&d, &p, &cfg);
        let b = simulate_path_mc(&d, &p, &cfg);
        assert_eq!(a.samples(), b.samples());
        // Near-threshold path delay keeps positive skew (less than a single
        // cell, since summing stages averages local mismatch).
        assert!(a.moments.skewness > 0.0);
        assert!(a.moments.mean > 0.0);
    }

    #[test]
    fn longer_paths_are_slower() {
        let d = adder_design();
        let p = find_critical_path(&d).unwrap();
        let cfg = PathMcConfig {
            samples: 400,
            seed: 1,
            input_slew: 10e-12,
        };
        let full = simulate_path_mc(&d, &p, &cfg);
        let half = Path {
            gates: p.gates[..p.len() / 2].to_vec(),
            nets: p.nets[..p.len() / 2 + 1].to_vec(),
        };
        let part = simulate_path_mc(&d, &half, &cfg);
        assert!(full.moments.mean > part.moments.mean);
    }

    #[test]
    fn circuit_mc_upper_bounds_path_mc_mean() {
        let d = adder_design();
        let p = find_critical_path(&d).unwrap();
        let cfg = PathMcConfig {
            samples: 300,
            seed: 4,
            input_slew: 10e-12,
        };
        let path = simulate_path_mc(&d, &p, &cfg);
        // Whole-circuit trials: the same CircuitPlan walk the yield engine
        // runs, under the same tagged per-trial seeds as path MC.
        let csr = NetlistCsr::build(&d.netlist);
        let plan = CircuitPlan::new(&d, &csr, cfg.input_slew);
        let seeds = SeedStream::new(cfg.seed);
        let mut scratch = plan.scratch();
        let circuit_mean = (0..cfg.samples)
            .map(|t| {
                let mut rng = SmallRng::seed_from_u64(seeds.tagged_seed(t as u64));
                let global = plan.variation().sample_global(&mut rng);
                plan.trial(&global, &mut scratch, &mut rng)
            })
            .sum::<f64>()
            / cfg.samples as f64;
        // The circuit max-over-POs can only be at or above a single path.
        assert!(
            circuit_mean >= path.moments.mean * 0.95,
            "circuit {} vs path {}",
            circuit_mean,
            path.moments.mean
        );
    }

    #[test]
    fn global_variation_correlates_the_path() {
        // With a shared die corner, path sigma is dominated by the global
        // component: σ/μ of the path should stay within a factor of the
        // single-stage σ/μ rather than shrinking by √stages.
        let tech = Technology::synthetic_28nm();
        let lib = CellLibrary::standard();
        let nl = map_to_cells(&Iscas85::C432.generate(), &lib).unwrap();
        let d = Design::with_generated_parasitics(tech, lib, nl, 8);
        let p = find_critical_path(&d).unwrap();
        let cfg = PathMcConfig {
            samples: 1200,
            seed: 2,
            input_slew: 10e-12,
        };
        let r = simulate_path_mc(&d, &p, &cfg);
        let stages = p.len() as f64;
        let fully_local_cv = 0.18 / stages.sqrt(); // x1-cell CV / √stages
        assert!(
            r.moments.variability() > 2.0 * fully_local_cv,
            "path CV {} should exceed the uncorrelated bound {}",
            r.moments.variability(),
            fully_local_cv
        );
    }
}
