//! Load benchmark of the `nsigma-yield` engine on c432: tail-sampling
//! efficiency (plain Monte Carlo vs mean-shifted importance sampling at
//! the 99.86 % sign-off quantile) and thread scaling at a fixed sample
//! count.
//!
//! Emits `BENCH_yield.json`. The thread-scaling numbers are measured on
//! whatever the host offers — `host_cpus` records it, so a single-core
//! container showing no speedup is legible as a host limit rather than an
//! engine regression.
//!
//! Run with: `cargo run --release -p nsigma-bench --bin yield_load`

use nsigma_bench::build_design;
use nsigma_core::sta::{NsigmaTimer, TimerConfig};
use nsigma_core::{MergeRule, TimingSession};
use nsigma_netlist::generators::random_dag::Iscas85;
use nsigma_process::Technology;
use nsigma_yield::{YieldAnalysis, YieldConfig, YieldReport, DEFAULT_IS_SHIFT};
use std::fmt::Write as _;

const SEED: u64 = 0x11E1D;
const TAIL_CI: f64 = 0.005;
const TAIL_CHUNK: usize = 32;
const TAIL_CAP: usize = 65_536;
const SCALING_SAMPLES: usize = 4096;
const SCALING_THREADS: [usize; 2] = [1, 8];

fn tail_json(r: &YieldReport) -> String {
    format!(
        "{{\"samples\": {}, \"yield\": {:.6}, \"ci_lo\": {:.6}, \"ci_hi\": {:.6}, \"ess\": {:.1}, \"shift\": {:.1}, \"converged\": {}}}",
        r.samples, r.estimate.value, r.estimate.ci_lo, r.estimate.ci_hi, r.ess,
        r.importance_shift, r.converged
    )
}

fn main() {
    let bench = build_design("c432", &Iscas85::C432.generate(), 5);
    let tech = Technology::synthetic_28nm();
    let mut cfg = TimerConfig::standard(21);
    cfg.char_samples = 500;
    cfg.wire.nets = 1;
    cfg.wire.samples = 300;
    eprintln!("building timer...");
    let timer = NsigmaTimer::build(&tech, &bench.design.lib, &cfg).expect("timer");
    let session =
        TimingSession::new(&timer, bench.design, MergeRule::Pessimistic).expect("session");

    // Experiment A — tail efficiency. Both runs chase the same ±0.5 %
    // interval on the yield at the analytic +3σ quantile (the paper's
    // 99.86 % sign-off point); the small chunk makes the stopping sample
    // counts comparable at fine granularity.
    let tail_cfg = YieldConfig {
        ci_half_width: TAIL_CI,
        chunk: TAIL_CHUNK,
        max_samples: TAIL_CAP,
        seed: SEED,
        ..YieldConfig::default()
    };
    eprintln!("tail experiment: plain Monte Carlo...");
    let plain = session.yield_analysis(&tail_cfg).expect("plain yield run");
    eprintln!("tail experiment: importance sampling (shift {DEFAULT_IS_SHIFT}σ)...");
    let is = session
        .yield_analysis(&YieldConfig {
            importance: Some(DEFAULT_IS_SHIFT),
            ..tail_cfg.clone()
        })
        .expect("importance yield run");
    let reduction = plain.samples as f64 / is.samples as f64;
    println!(
        "tail @ T = {:.1} ps (±{TAIL_CI} CI): plain {} samples, IS {} samples — {reduction:.1}x fewer",
        plain.target_period * 1e12,
        plain.samples,
        is.samples
    );
    println!(
        "  plain yield {:.5} [{:.5}, {:.5}]  |  IS yield {:.5} [{:.5}, {:.5}], ESS {:.1}",
        plain.estimate.value,
        plain.estimate.ci_lo,
        plain.estimate.ci_hi,
        is.estimate.value,
        is.estimate.ci_lo,
        is.estimate.ci_hi,
        is.ess
    );

    // Experiment B — thread scaling at a fixed trial count. The
    // vanishingly small half-width keeps the stopping rule from firing,
    // so every run draws exactly SCALING_SAMPLES trials and the only
    // variable is the worker count.
    let mut scaling: Vec<(usize, f64)> = Vec::new();
    for threads in SCALING_THREADS {
        let r = session
            .yield_analysis(&YieldConfig {
                ci_half_width: 1e-12,
                max_samples: SCALING_SAMPLES,
                chunk: SCALING_SAMPLES,
                threads,
                seed: SEED,
                ..YieldConfig::default()
            })
            .expect("scaling yield run");
        assert_eq!(r.samples, SCALING_SAMPLES, "stopping rule must not fire");
        let ms = r.elapsed.as_secs_f64() * 1e3;
        println!("scaling: {threads} thread(s), {SCALING_SAMPLES} samples in {ms:.1} ms");
        scaling.push((threads, ms));
    }
    let speedup = scaling[0].1 / scaling[1].1;
    let host_cpus = nsigma_stats::par::host_threads();
    println!(
        "speedup {}t over 1t: {speedup:.2}x on {host_cpus} host cpu(s)",
        scaling[1].0
    );

    let mut json = String::from("{\n  \"bench\": \"yield_load\",\n");
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(json, "  \"design\": \"c432\",");
    let _ = writeln!(
        json,
        "  \"target_period_ps\": {:.1},",
        plain.target_period * 1e12
    );
    let _ = writeln!(
        json,
        "  \"tail\": {{\n    \"ci_half_width\": {TAIL_CI},\n    \"chunk\": {TAIL_CHUNK},\n    \"plain\": {},\n    \"importance\": {},\n    \"sample_reduction\": {reduction:.2}\n  }},",
        tail_json(&plain),
        tail_json(&is)
    );
    let _ = writeln!(json, "  \"scaling\": {{");
    let _ = writeln!(json, "    \"samples\": {SCALING_SAMPLES},");
    let points: Vec<String> = scaling
        .iter()
        .map(|(t, ms)| format!("      {{\"threads\": {t}, \"ms\": {ms:.2}}}"))
        .collect();
    let _ = writeln!(json, "    \"points\": [\n{}\n    ],", points.join(",\n"));
    let _ = writeln!(
        json,
        "    \"speedup_{}_over_1\": {speedup:.3}\n  }}\n}}",
        scaling[1].0
    );
    std::fs::write("BENCH_yield.json", &json).expect("write BENCH_yield.json");
    println!("wrote BENCH_yield.json");
}
