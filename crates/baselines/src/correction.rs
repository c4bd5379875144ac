//! The correction-factor baseline of Sharma et al. \[8\] (Table III's
//! "Correction" column): scale a cheap nominal analysis by factors fitted
//! once against a reference golden run.
//!
//! The method's weakness — which the paper calls out — is that the factors
//! are circuit-specific: calibrated on one design and applied to another
//! they drift by ~10 %, and they carry no insight into *where* the
//! variability comes from (driver/load interaction), so they cannot adapt
//! to different path compositions.

use nsigma_cells::CellLibrary;
use nsigma_mc::design::Design;
use nsigma_mc::path_sim::{simulate_path_mc, PathMcConfig};
use nsigma_netlist::ir::Netlist;
use nsigma_netlist::topo::Path;
use nsigma_process::Technology;
use nsigma_stats::quantile::{QuantileSet, SigmaLevel};

use crate::corner::CornerSta;

/// The calibrated correction-factor timer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrectionTimer {
    /// Multiplier taking the nominal path delay to the golden mean.
    mean_factor: f64,
    /// Relative spread: `(q₊₃σ − mean)/(3·mean)` of the reference golden.
    cv_factor: f64,
    /// Input slew for the nominal analysis (s).
    input_slew: f64,
}

impl CorrectionTimer {
    /// Calibrates the factors on a reference design's critical path against
    /// a golden (SPICE-class) simulation — the workflow of \[8\]'s "simple
    /// timing calibrations".
    ///
    /// # Panics
    ///
    /// Panics if the reference design has no path.
    pub fn calibrate(reference: &Design, mc_samples: usize, seed: u64) -> Self {
        let path = nsigma_mc::path_sim::find_critical_path(reference)
            .expect("reference design must have a critical path");
        let golden = simulate_path_mc(
            reference,
            &path,
            &PathMcConfig {
                samples: mc_samples,
                seed,
                input_slew: 10e-12,
            },
        );
        let nominal_sta = CornerSta {
            n_sigma: 0.0,
            input_slew: 10e-12,
            ocv_derate: 1.0,
        };
        let nominal = nominal_sta.analyze_path(reference, &path).nominal;
        Self {
            mean_factor: golden.moments.mean / nominal,
            cv_factor: (golden.quantiles[SigmaLevel::PlusThree] - golden.moments.mean)
                / (3.0 * golden.moments.mean),
            input_slew: 10e-12,
        }
    }

    /// Calibrates on the *simple calibration circuit* of Sharma et al. \[8\]:
    /// an inverter chain. This is the method's intended workflow — and its
    /// weakness: factors from a homogeneous chain (single cell kind, no
    /// stacked devices, no fanout structure) transfer to real paths with
    /// several-percent drift, which is the Correction column's error source
    /// in Table III.
    ///
    /// # Panics
    ///
    /// Panics if the library lacks INVx2 or `stages == 0`.
    pub fn calibrate_on_inverter_chain(
        tech: &Technology,
        lib: &CellLibrary,
        stages: usize,
        mc_samples: usize,
        seed: u64,
    ) -> Self {
        assert!(stages > 0, "chain needs stages");
        let inv = lib
            .find("INVx2")
            .expect("library must provide INVx2 for the calibration chain");
        let mut netlist = Netlist::new("calib_chain");
        let mut cur = netlist.add_input("a");
        for i in 0..stages {
            let (_, out) = netlist.add_gate(format!("u{i}"), inv, &[cur]);
            cur = out;
        }
        netlist.mark_output(cur);
        let design = Design::with_generated_parasitics(tech.clone(), lib.clone(), netlist, seed);
        Self::calibrate(&design, mc_samples, seed ^ 0xC1)
    }

    /// Analyzes a path: nominal sum (cells + Elmore wires) scaled by the
    /// calibrated factors, symmetric in ±nσ.
    ///
    /// # Panics
    ///
    /// Panics if the path is empty.
    pub fn analyze_path(&self, design: &Design, path: &Path) -> QuantileSet {
        let corner = CornerSta {
            n_sigma: 0.0,
            input_slew: self.input_slew,
            ocv_derate: 1.0,
        };
        let nominal = corner.analyze_path(design, path).nominal;
        let mean = nominal * self.mean_factor;
        QuantileSet::from_fn(|lvl| mean * (1.0 + lvl.n() as f64 * self.cv_factor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsigma_cells::cell::{Cell, CellKind};
    use nsigma_cells::CellLibrary;
    use nsigma_mc::path_sim::find_critical_path;
    use nsigma_netlist::generators::arith::{ripple_adder, ripple_subtractor};
    use nsigma_netlist::mapping::map_to_cells;
    use nsigma_process::Technology;

    fn lib() -> CellLibrary {
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

    fn design_of(logic: &nsigma_netlist::LogicCircuit, seed: u64) -> Design {
        let tech = Technology::synthetic_28nm();
        let lib = lib();
        let nl = map_to_cells(logic, &lib).unwrap();
        Design::with_generated_parasitics(tech, lib, nl, seed)
    }

    #[test]
    fn calibrated_on_itself_is_accurate() {
        let d = design_of(&ripple_adder(6), 1);
        let timer = CorrectionTimer::calibrate(&d, 1500, 7);
        let path = find_critical_path(&d).unwrap();
        let q = timer.analyze_path(&d, &path);
        let golden = simulate_path_mc(
            &d,
            &path,
            &PathMcConfig {
                samples: 1500,
                seed: 7,
                input_slew: 10e-12,
            },
        );
        let rel = ((q[SigmaLevel::PlusThree] - golden.quantiles[SigmaLevel::PlusThree])
            / golden.quantiles[SigmaLevel::PlusThree])
            .abs();
        assert!(rel < 0.05, "self-calibrated error {rel:.3}");
    }

    #[test]
    fn transfers_with_degraded_accuracy() {
        // Calibrate on the simple chain ([8]'s workflow), apply to a real
        // datapath: the error grows — the paper's core criticism.
        let tech = Technology::synthetic_28nm();
        let target = design_of(&ripple_subtractor(8), 2);
        let timer = CorrectionTimer::calibrate_on_inverter_chain(&tech, &lib(), 24, 1500, 7);

        let path = find_critical_path(&target).unwrap();
        let q = timer.analyze_path(&target, &path);
        let golden = simulate_path_mc(
            &target,
            &path,
            &PathMcConfig {
                samples: 1500,
                seed: 11,
                input_slew: 10e-12,
            },
        );
        let rel = ((q[SigmaLevel::PlusThree] - golden.quantiles[SigmaLevel::PlusThree])
            / golden.quantiles[SigmaLevel::PlusThree])
            .abs();
        // Transfer from the homogeneous chain works well in this synthetic
        // substrate (see EXPERIMENTS.md for why the paper's 11.7 % does not
        // reproduce in magnitude) but is measurably worse than
        // self-calibration.
        assert!(rel < 0.15, "transfer error {rel:.3}");
        let (mf, cv) = (timer.mean_factor, timer.cv_factor);
        assert!(mf > 0.5 && mf < 2.0);
        assert!(cv > 0.0 && cv < 0.5);
    }

    #[test]
    fn quantiles_are_symmetric_by_construction() {
        let d = design_of(&ripple_adder(4), 3);
        let timer = CorrectionTimer::calibrate(&d, 400, 3);
        let path = find_critical_path(&d).unwrap();
        let q = timer.analyze_path(&d, &path);
        let up = q[SigmaLevel::PlusThree] - q[SigmaLevel::Zero];
        let down = q[SigmaLevel::Zero] - q[SigmaLevel::MinusThree];
        assert!((up - down).abs() < 1e-18);
    }
}
