//! Set-up shared by every workload: the timer (built once per set-up and
//! saved as coefficients text, which every later timer is reloaded from)
//! and the benchmark designs.

use nsigma::cells::CellLibrary;
use nsigma::core::sta::{NsigmaTimer, TimerConfig};
use nsigma::core::{read_coefficients, write_coefficients};
use nsigma::mc::Design;
use nsigma::netlist::generators::random_dag::Iscas85;
use nsigma::netlist::mapping::map_to_cells;
use nsigma::netlist::optimize::extract_complex_gates;
use nsigma::process::Technology;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Parasitic seed of the golden c432 (the `yield_load` recipe).
pub const GOLDEN_PARASITIC_SEED: u64 = 5;
/// Parasitic seed of the analyze/ECO designs (the `sta_hot_path` recipe).
pub const ECO_PARASITIC_SEED: u64 = 7;
/// Parasitic seed the daemon registers its designs with.
pub const DAEMON_PARASITIC_SEED: u64 = 5;

/// The characterization sizes the repository's load bins use.
pub fn timer_config() -> TimerConfig {
    let mut cfg = TimerConfig::standard(21);
    cfg.char_samples = 500;
    cfg.wire.nets = 1;
    cfg.wire.samples = 300;
    cfg
}

/// Characterizes the standard library and returns the coefficients text.
pub fn build_timer_text(tech: &Technology, lib: &CellLibrary) -> String {
    let timer = NsigmaTimer::build(tech, lib, &timer_config()).expect("timer characterization");
    write_coefficients(&timer)
}

/// A fresh timer (empty stage cache) from coefficients text.
pub fn reload(tech: &Technology, text: &str) -> Arc<NsigmaTimer> {
    Arc::new(read_coefficients(tech, text).expect("coefficients text round-trips"))
}

/// c432 as the yield engine's golden runs use it: mapped, complex gates
/// extracted (875 gates).
pub fn golden_design(tech: &Technology, lib: &CellLibrary) -> Design {
    let mapped = map_to_cells(&Iscas85::C432.generate(), lib).expect("c432 maps");
    let netlist = extract_complex_gates(&mapped, lib)
        .expect("standard library has AOI/OAI cells")
        .netlist;
    Design::with_generated_parasitics(tech.clone(), lib.clone(), netlist, GOLDEN_PARASITIC_SEED)
}

/// An ISCAS85 circuit mapped exactly as the daemon's `register_design`
/// maps it.
pub fn mapped_design(tech: &Technology, lib: &CellLibrary, bench: Iscas85, seed: u64) -> Design {
    let netlist = map_to_cells(&bench.generate(), lib).expect("ISCAS85 circuits map");
    Design::with_generated_parasitics(tech.clone(), lib.clone(), netlist, seed)
}

/// Runs `once` [`SETUP_REPS`] times, timing each, and returns the median
/// duration in seconds together with the last set-up's result. Earlier
/// results are dropped before the next repetition starts, and the memory
/// peaks are reset afterwards, so `heap_peak_mb` does not read the repeated
/// set-ups.
pub fn repeat<T>(mut once: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(once());
        times.push(t.elapsed());
    }
    let secs: Vec<f64> = times.iter().map(Duration::as_secs_f64).collect();
    crate::report::reset_peaks();
    (
        crate::report::median(&secs),
        last.expect("SETUP_REPS is positive"),
    )
}
