//! Ablation study of the design choices DESIGN.md §5 calls out:
//!
//! 1. Table I cross terms: full model vs Gaussian μ+nσ (no γ/κ terms);
//! 2. eq. (3) cubic vs eq. (2)-style bilinear calibration of γ/κ;
//! 3. wire variability: driver+load coefficients (eq. 7) vs Elmore-only.

use nsigma_bench::Table;
use nsigma_cells::cell::{Cell, CellKind};
use nsigma_cells::characterize::{characterize_cell, CharacterizeConfig};
use nsigma_cells::CellLibrary;
use nsigma_core::calibration::{MomentCalibration, C_REF, S_REF};
use nsigma_core::cell_model::CellQuantileModel;
use nsigma_core::wire_model::{WireCalibConfig, WireVariabilityModel};
use nsigma_interconnect::generator::random_net;
use nsigma_mc::wire_sim::{WireGoldenMode, WireMcConfig};
use nsigma_process::Technology;
use nsigma_stats::quantile::SigmaLevel;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let tech = Technology::synthetic_28nm();
    let lib = CellLibrary::standard();
    let cfg = CharacterizeConfig::standard(6000, 0xAB1);

    // Shared characterization data.
    eprintln!("characterizing library...");
    let mut training = Vec::new();
    let mut grids = Vec::new();
    for (_, cell) in lib.iter() {
        let grid = characterize_cell(&tech, cell, &cfg);
        for p in grid.iter() {
            training.push((p.moments, p.quantiles));
        }
        grids.push((cell.name().to_string(), grid));
    }

    // --- Ablation 1: Table I cross terms. ---
    println!("== Ablation 1: Table I moment terms vs Gaussian mu+n*sigma ==\n");
    let full = CellQuantileModel::fit(&training).expect("fit");
    let gaussian = CellQuantileModel::gaussian();
    let mut t = Table::new(&["model", "avg -3s err %", "avg +3s err %"]);
    for (name, model) in [("N-sigma (full)", &full), ("Gaussian (ablated)", &gaussian)] {
        let (mut lo, mut hi) = (0.0, 0.0);
        for (m, q) in &training {
            let p = model.predict(m);
            lo += ((p[SigmaLevel::MinusThree] - q[SigmaLevel::MinusThree])
                / q[SigmaLevel::MinusThree]
                * 100.0)
                .abs();
            hi += ((p[SigmaLevel::PlusThree] - q[SigmaLevel::PlusThree])
                / q[SigmaLevel::PlusThree]
                * 100.0)
                .abs();
        }
        let n = training.len() as f64;
        t.row(&[
            name.into(),
            format!("{:.2}", lo / n),
            format!("{:.2}", hi / n),
        ]);
    }
    println!("{}", t.render());

    // --- Ablation 2: cubic vs bilinear gamma/kappa calibration. ---
    println!("== Ablation 2: eq. (3) cubic vs bilinear calibration of gamma/kappa ==\n");
    let mut t = Table::new(&["variant", "avg |d gamma|", "avg |d kappa|"]);
    let (mut g3, mut k3, mut g2, mut k2, mut n) = (0.0, 0.0, 0.0, 0.0, 0);
    for (_, grid) in &grids {
        let cubic = MomentCalibration::fit(grid, S_REF, C_REF).expect("cubic fit");
        let bilinear =
            MomentCalibration::fit_bilinear_only(grid, S_REF, C_REF).expect("bilinear fit");
        for p in grid.iter() {
            let mc = cubic.moments_at(p.slew, p.load);
            let mb = bilinear.moments_at(p.slew, p.load);
            g3 += (mc.skewness - p.moments.skewness).abs();
            k3 += (mc.kurtosis - p.moments.kurtosis).abs();
            g2 += (mb.skewness - p.moments.skewness).abs();
            k2 += (mb.kurtosis - p.moments.kurtosis).abs();
            n += 1;
        }
    }
    let nf = n as f64;
    t.row(&[
        "cubic (eq. 3)".into(),
        format!("{:.4}", g3 / nf),
        format!("{:.4}", k3 / nf),
    ]);
    t.row(&[
        "bilinear (ablated)".into(),
        format!("{:.4}", g2 / nf),
        format!("{:.4}", k2 / nf),
    ]);
    println!("{}", t.render());

    // --- Ablation 3: wire variability composition. ---
    println!("== Ablation 3: wire X_w composition ==\n");
    let model = WireVariabilityModel::calibrate(&tech, &WireCalibConfig::standard(0xAB3))
        .expect("wire calib");
    let elmore_only = WireVariabilityModel::elmore_only();

    let mut t = Table::new(&["variant", "avg -3s err %", "avg +3s err %"]);
    let mut sums = [[0.0f64; 2]; 2];
    let mut count = 0;
    for net_idx in 0..4u64 {
        let mut rng = SmallRng::seed_from_u64(0xAB30 + net_idx);
        let tree = random_net(&mut rng, 1);
        for &(fi, fo) in &[(1u32, 4u32), (4, 1), (2, 2), (8, 8)] {
            let driver = Cell::new(CellKind::Inv, fi);
            let load = Cell::new(CellKind::Inv, fo);
            let cfg = WireMcConfig {
                samples: 3000,
                seed: 0xAB31 + net_idx * 10 + fi as u64,
                input_slew: 10e-12,
                mode: WireGoldenMode::Transient,
            };
            for (i, m) in [&model, &elmore_only].into_iter().enumerate() {
                let check = m.check_against_golden(&tech, &tree, &driver, &load, &cfg);
                sums[i][0] += check.minus3_err_pct;
                sums[i][1] += check.plus3_err_pct;
            }
            count += 1;
        }
    }
    let cf = count as f64;
    t.row(&[
        "driver+load (eq. 7)".into(),
        format!("{:.2}", sums[0][0] / cf),
        format!("{:.2}", sums[0][1] / cf),
    ]);
    t.row(&[
        "Elmore only (ablated)".into(),
        format!("{:.2}", sums[1][0] / cf),
        format!("{:.2}", sums[1][1] / cf),
    ]);
    println!("{}", t.render());
    println!("Every ablation should degrade accuracy, confirming each mechanism earns its place.");
}
