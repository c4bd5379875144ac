//! Microbenchmarks of the substrate layers: per-sample cell evaluation,
//! RC-tree moment computation, the two-pole crossing, transient solving
//! and one characterization point — the costs that set the golden
//! simulator's throughput.
//!
//! Each measurement prints the median ns per call over repeated timed
//! batches of at least 2 ms each.
//!
//! ```text
//! cargo run --release -p nsigma-bench --bin substrates
//! ```

use nsigma_cells::cell::{Cell, CellKind};
use nsigma_cells::characterize::characterize_point;
use nsigma_cells::timing::sample_arc;
use nsigma_interconnect::elmore::moments_all;
use nsigma_interconnect::generator::{generate_net, NetGenConfig};
use nsigma_interconnect::metrics::two_pole_delay;
use nsigma_interconnect::transient::{simulate_ramp, TransientConfig};
use nsigma_process::{GlobalSample, Technology, VariationModel};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per measurement; the median of their per-call times is
/// reported.
const BATCHES: usize = 21;
/// Target wall time of one batch (ns).
const BATCH_NS: f64 = 2e6;

/// Wall time (ns) of `calls` back-to-back calls of `f`.
fn batch_ns<O>(calls: usize, f: &mut impl FnMut() -> O) -> f64 {
    let t = Instant::now();
    for _ in 0..calls {
        black_box(f());
    }
    t.elapsed().as_nanos() as f64
}

/// Prints the median ns per call of `f` over [`BATCHES`] batches, each
/// batch doubled in size from one call until it takes [`BATCH_NS`].
fn measure<O>(name: &str, mut f: impl FnMut() -> O) {
    let mut calls = 1;
    while batch_ns(calls, &mut f) < BATCH_NS {
        calls *= 2;
    }
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| batch_ns(calls, &mut f) / calls as f64)
        .collect();
    per_call.sort_by(f64::total_cmp);
    let median = per_call[BATCHES / 2];
    println!("bench {name:<46} median {median:>12.1} ns/call  ({BATCHES} batches × {calls})");
}

fn main() {
    let tech = Technology::synthetic_28nm();
    let variation = VariationModel::new(&tech);

    let nand = Cell::new(CellKind::Nand2, 2);
    let g = GlobalSample::nominal();
    let mut rng = SmallRng::seed_from_u64(1);
    measure("cell_sample_arc", || {
        sample_arc(
            &tech,
            &variation,
            &nand,
            black_box(10e-12),
            black_box(1e-15),
            &g,
            &mut rng,
        )
    });

    let mut rng = SmallRng::seed_from_u64(2);
    let tree = generate_net(&mut rng, &NetGenConfig::default_28nm().with_fanout(3));
    measure("rc_moments_m1_m2", || moments_all(black_box(&tree)));

    let (m1, m2) = moments_all(&tree);
    let sink = tree.sinks()[0].index();
    measure("two_pole_50pct", || {
        two_pole_delay(black_box(m1[sink]), black_box(m2[sink]))
    });

    let cfg = TransientConfig::auto(&tree, 0.6, 10e-12, 2000.0);
    measure("transient/backward_euler_ramp", || {
        simulate_ramp(black_box(&tree), &cfg)
    });

    let inv = Cell::new(CellKind::Inv, 1);
    measure("characterization/one_grid_point_1000_samples", || {
        characterize_point(&tech, &variation, &inv, 10e-12, 0.4e-15, 1000, 7)
    });
}
