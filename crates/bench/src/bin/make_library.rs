//! Artifact generator: characterizes the full standard library and writes
//! the deliverables a downstream flow would consume —
//!
//! * `target/nsigma28.lib` — Liberty subset with LVF moment tables;
//! * `target/nsigma-coeff.txt` — the N-sigma coefficient file (Fig. 5's
//!   LUT), reloadable with `nsigma_core::read_coefficients`.

use nsigma_cells::liberty::write_liberty;
use nsigma_cells::CellLibrary;
use nsigma_core::sta::{characterize_library, NsigmaTimer, TimerConfig};
use nsigma_core::write_coefficients;
use nsigma_process::Technology;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const SAMPLES: usize = 10_000;
    let tech = Technology::synthetic_28nm();
    let lib = CellLibrary::standard();
    std::fs::create_dir_all("target")?;
    let mut cfg = TimerConfig::standard(0x11B);
    cfg.char_samples = SAMPLES;
    cfg.wire.samples = 4000;

    // One characterization feeds both files: the Liberty tables are the
    // grids the coefficients are fitted on.
    println!(
        "characterizing {} cells x 36 grid points x {SAMPLES} samples...",
        lib.len()
    );
    let t0 = Instant::now();
    let cells = characterize_library(&tech, &lib, &cfg);
    let lib_text = write_liberty("nsigma28", &tech, &cells);
    std::fs::write("target/nsigma28.lib", &lib_text)?;
    println!(
        "  wrote target/nsigma28.lib ({} KiB) in {:.1?}",
        lib_text.len() / 1024,
        t0.elapsed()
    );

    // Fit on the same grids → coefficient file.
    println!("fitting the N-sigma timer (quantile model + wire calibration)...");
    let t1 = Instant::now();
    let timer = NsigmaTimer::from_grids(&tech, &cells, &cfg)?;
    let coeff_text = write_coefficients(&timer);
    std::fs::write("target/nsigma-coeff.txt", &coeff_text)?;
    println!(
        "  wrote target/nsigma-coeff.txt ({} KiB, {} cells) in {:.1?}",
        coeff_text.len() / 1024,
        timer.calibrations().len(),
        t1.elapsed()
    );
    println!("reload with nsigma_core::read_coefficients(&tech, &text).");
    Ok(())
}
