//! `analyze_eco`: the CLI analyze/ECO loop, single threaded. Every pass
//! reloads the timer from the coefficients text (so the stage cache starts
//! empty), compiles one design, analyzes it, ranks and analyzes its worst
//! paths, then resizes gates along the critical path and back.
//!
//! The first analysis after a load, and ECO-shifted cache keys, are the
//! stage cache's worst case. No Monte Carlo, no sockets.

use crate::probe::{self, SessionLayers};
use crate::report::{self, grouped_p50, median, Run};
use crate::setup;
use crate::trace::Tracer;
use nsigma::cells::CellLibrary;
use nsigma::core::{MergeRule, TimingSession};
use nsigma::mc::Design;
use nsigma::netlist::generators::random_dag::Iscas85;
use nsigma::process::Technology;
use std::time::{Duration, Instant};

const DESIGNS: [Iscas85; 3] = [Iscas85::C432, Iscas85::C1908, Iscas85::C6288];
/// Worst paths ranked and analyzed per pass.
const K_PATHS: usize = 4;
/// Critical-path gates resized per pass (each is restored afterwards).
const ECO_GATES: usize = 12;
/// Drive strengths of the standard library.
const STRENGTHS: [u32; 4] = [1, 2, 4, 8];

struct Eco {
    tech: Technology,
    text: String,
    designs: Vec<Design>,
}

fn set_up() -> Eco {
    let tech = Technology::synthetic_28nm();
    let lib = CellLibrary::standard();
    let text = setup::build_timer_text(&tech, &lib);
    let designs: Vec<Design> = DESIGNS
        .iter()
        .map(|&b| setup::mapped_design(&tech, &lib, b, setup::ECO_PARASITIC_SEED))
        .collect();
    for d in &designs {
        TimingSession::new(
            setup::reload(&tech, &text),
            d.clone(),
            MergeRule::Pessimistic,
        )
        .expect("benchmark designs are fully calibrated");
    }
    Eco {
        tech,
        text,
        designs,
    }
}

fn q_bits(q: &nsigma::stats::quantile::QuantileSet) -> Vec<u64> {
    q.as_array().iter().map(|x| x.to_bits()).collect()
}

pub fn run(seed: u64, seconds: f64, run: &mut Run) {
    if run.traced() {
        return traced(run);
    }
    let (setup_s, eco) = setup::repeat(set_up);
    // The seed picks the design the rotation starts with. The ECOs are the
    // same in every pass of a design whatever the seed: which strength a
    // gate moves to changes how far the change ripples, and so the cost.
    let first = (seed % DESIGNS.len() as u64) as usize;

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    // Samples per design, in `DESIGNS` order.
    let mut analyze_us = vec![Vec::new(); DESIGNS.len()];
    let mut eco_us = vec![Vec::new(); DESIGNS.len()];
    // When each pass ended, in seconds since the start.
    let mut done_at = Vec::new();
    let mut passes = 0usize;
    // Whole rotations only, so every design runs as many passes.
    while !passes.is_multiple_of(DESIGNS.len()) || passes == 0 || Instant::now() < deadline {
        let di = (first + passes) % DESIGNS.len();
        passes += 1;
        let t = Instant::now();
        let session = TimingSession::new(
            setup::reload(&eco.tech, &eco.text),
            eco.designs[di].clone(),
            MergeRule::Pessimistic,
        );
        let Ok(mut session) = session else {
            run.ops(1, 1);
            continue;
        };
        let cold = session.analyze_design();
        let paths = session.worst_paths(K_PATHS);
        let analyzed = paths
            .iter()
            .filter(|p| session.analyze_path(p).is_ok())
            .count();
        analyze_us[di].push(t.elapsed().as_secs_f64() * 1e6);
        run.ops(1 + paths.len() as u64, (paths.len() - analyzed) as u64);

        let warm = session.analyze_design();
        run.check(
            "cold and warm analyze_design agree",
            q_bits(&cold) == q_bits(&warm),
        );

        let gates: Vec<_> = paths[0].gates.iter().copied().take(ECO_GATES).collect();
        let original: Vec<u32> = gates
            .iter()
            .map(|&g| {
                let d = session.design();
                d.lib.cell(d.netlist.gate(g).cell).strength()
            })
            .collect();
        let targets = gates
            .iter()
            .zip(&original)
            .enumerate()
            .map(|(i, (&g, &o))| {
                let mut s = STRENGTHS[i % STRENGTHS.len()];
                if s == o {
                    s = STRENGTHS[(i + 1) % STRENGTHS.len()];
                }
                (g, s)
            });
        let restores = gates.iter().copied().zip(original.iter().copied());
        for (g, s) in targets.chain(restores) {
            let t = Instant::now();
            let ok = session.resize_gate(g, s).is_ok();
            eco_us[di].push(t.elapsed().as_secs_f64() * 1e6);
            run.ops(1, u64::from(!ok));
        }
        let restored = session.analyze_design();
        run.check(
            "resizing back restores analyze_design",
            q_bits(&cold) == q_bits(&restored),
        );
        done_at.push(start.elapsed().as_secs_f64());
    }
    let elapsed = start.elapsed().as_secs_f64();

    let analyze_p50 = grouped_p50(&analyze_us);
    let eco_p50 = grouped_p50(&eco_us);
    let (tail_pct, tail_us) = report::tail(&analyze_us.concat());
    let (eco_tail_pct, eco_tail_us) = report::tail(&eco_us.concat());
    run.metric("setup_s", setup_s);
    run.metric("main_p50_us", analyze_p50);
    run.metric("main_tail_us", tail_us);
    run.metric("main_per_s", report::best_rate(&done_at, elapsed));
    run.metric("side_p50_us", eco_p50);
    run.metric("heap_peak_mb", report::heap_peak_mb());
    run.detail("rss_peak_mb", report::rss_peak_mb());
    run.detail("main_tail_pct", tail_pct);
    run.detail("passes", passes);
    run.detail("analyze_p50_ms", analyze_p50 / 1e3);
    for (b, us) in DESIGNS.iter().zip(&analyze_us) {
        run.detail(&format!("analyze_p50_ms.{}", b.name()), median(us) / 1e3);
    }
    run.detail("eco_p50_us", eco_p50);
    run.detail("eco_tail_us", eco_tail_us);
    run.detail("eco_tail_pct", eco_tail_pct);
}

/// The traced run: the session probe on each of the three designs.
fn traced(run: &mut Run) {
    let eco = set_up();
    let mut tracer = Tracer::new(Instant::now());
    let per_design: Vec<SessionLayers> = eco
        .designs
        .iter()
        .map(|d| probe::session_layers(&eco.tech, &eco.text, d, &mut tracer))
        .collect();
    SessionLayers::mean(&per_design).record(run);
    run.ops(per_design.len() as u64, 0);
    tracer.save("analyze_eco", run);
}
