//! Per-layer probe of the session and stage-model layers on one design,
//! used by every traced run on the workload's own designs. Calls that take
//! microseconds get a span each; the sub-microsecond stage lookups and
//! model predictions are timed as one span per batch, since a span per
//! call would cost as much as the call.

use crate::report::median;
use crate::setup;
use crate::trace::Tracer;
use nsigma::core::{MergeRule, TimingSession};
use nsigma::mc::Design;
use nsigma::process::Technology;
use nsigma::stats::moments::Moments;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each warm query.
const WARM_REPS: usize = 20;
/// Gates of the critical path resized (and restored) by the probe.
const RESIZE_GATES: usize = 12;
/// Strengths the probe alternates between.
const RESIZE_STRENGTHS: [u32; 2] = [2, 4];

/// Session- and stage-layer figures for one design.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionLayers {
    pub compile_ms: f64,
    pub analyze_cold_us: f64,
    pub analyze_warm_us: f64,
    pub worst_paths_us: f64,
    pub resize_us: f64,
    pub recompute_gates: f64,
    pub stage_miss_ns: f64,
    pub stage_hit_ns: f64,
    pub predict_ns: f64,
    pub allocs_per_predict: f64,
}

impl SessionLayers {
    /// Field-wise mean over several designs.
    pub fn mean(all: &[SessionLayers]) -> SessionLayers {
        let n = all.len() as f64;
        let avg = |f: fn(&SessionLayers) -> f64| all.iter().map(f).sum::<f64>() / n;
        SessionLayers {
            compile_ms: avg(|l| l.compile_ms),
            analyze_cold_us: avg(|l| l.analyze_cold_us),
            analyze_warm_us: avg(|l| l.analyze_warm_us),
            worst_paths_us: avg(|l| l.worst_paths_us),
            resize_us: avg(|l| l.resize_us),
            recompute_gates: avg(|l| l.recompute_gates),
            stage_miss_ns: avg(|l| l.stage_miss_ns),
            stage_hit_ns: avg(|l| l.stage_hit_ns),
            predict_ns: avg(|l| l.predict_ns),
            allocs_per_predict: avg(|l| l.allocs_per_predict),
        }
    }

    /// Records every field under its per-layer metric name.
    pub fn record(&self, run: &mut crate::report::Run) {
        run.metric("session.compile_ms", self.compile_ms);
        run.metric("session.analyze_cold_us", self.analyze_cold_us);
        run.metric("session.analyze_warm_us", self.analyze_warm_us);
        run.metric("session.worst_paths_us", self.worst_paths_us);
        run.metric("session.resize_us", self.resize_us);
        run.metric("session.recompute_gates", self.recompute_gates);
        run.metric("sta.stage_miss_ns", self.stage_miss_ns);
        run.metric("sta.stage_hit_ns", self.stage_hit_ns);
        run.metric("cell_model.predict_ns", self.predict_ns);
        run.metric("cell_model.allocs_per_predict", self.allocs_per_predict);
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Probes the session layer on `design` over a freshly reloaded timer, so
/// the stage cache starts empty, then the stage lookup and the Table-I
/// model over a second fresh timer.
pub fn session_layers(
    tech: &Technology,
    text: &str,
    design: &Design,
    tracer: &mut Tracer,
) -> SessionLayers {
    let timer = setup::reload(tech, text);
    let (session, compile_ns) = tracer.leaf("session.new", 0, || {
        TimingSession::new(timer, design.clone(), MergeRule::Pessimistic)
    });
    let mut session = session.expect("benchmark designs are fully calibrated");
    let (_, cold_ns) = tracer.leaf("session.analyze_design", 0, || session.analyze_design());
    let warm: Vec<f64> = (0..WARM_REPS)
        .map(|i| {
            us(tracer
                .leaf("session.analyze_design", i as u64 + 1, || {
                    black_box(session.analyze_design())
                })
                .1)
        })
        .collect();
    let paths: Vec<f64> = (0..WARM_REPS)
        .map(|i| {
            us(tracer
                .leaf("session.worst_paths", i as u64, || {
                    black_box(session.worst_paths(3))
                })
                .1)
        })
        .collect();

    let critical = session.worst_paths(1).swap_remove(0);
    let gates: Vec<_> = critical.gates.iter().copied().take(RESIZE_GATES).collect();
    let original: Vec<u32> = gates
        .iter()
        .map(|&g| {
            let d = session.design();
            d.lib.cell(d.netlist.gate(g).cell).strength()
        })
        .collect();
    let mut resize = Vec::new();
    let mut recomputed = 0usize;
    let targets = gates
        .iter()
        .enumerate()
        .map(|(i, &g)| (g, RESIZE_STRENGTHS[i % 2]));
    let restores = gates.iter().copied().zip(original.iter().copied());
    for (i, (g, s)) in targets.chain(restores).enumerate() {
        let (r, ns) = tracer.leaf("session.resize_gate", i as u64, || {
            session.resize_gate(g, s)
        });
        r.expect("library has every standard strength");
        recomputed += session.last_recompute_count();
        resize.push(us(ns));
    }

    // Stage evaluations on a second fresh timer: distinct slews make every
    // key of the first pass a miss and every key of the second a hit. Only
    // the timing is read; the cache's own counters come from the daemon's
    // `stats`, so the probe keeps building if the cache goes away.
    let fresh = setup::reload(tech, text);
    let keys: Vec<(u32, f64, f64)> = design
        .netlist
        .gate_ids()
        .enumerate()
        .map(|(i, g)| {
            let gate = design.netlist.gate(g);
            let cell = design.lib.cell(gate.cell);
            let id = fresh.cell_id(cell.name()).expect("cell is calibrated");
            let slew = fresh.input_slew() * (1.0 + 1e-3 * i as f64);
            (id, slew, design.stage_load_cap(gate.output))
        })
        .collect();
    let n = keys.len() as f64;
    let lookup = |tracer: &mut Tracer, name| {
        tracer.enter(name, 0);
        let t = Instant::now();
        for &(id, slew, load) in &keys {
            black_box(fresh.stage_cell_quantiles_id(id, slew, load));
        }
        let ns = t.elapsed().as_nanos() as f64;
        tracer.exit();
        ns / n
    };
    let stage_miss_ns = lookup(tracer, "sta.stage_lookup_miss_batch");
    let stage_hit_ns = lookup(tracer, "sta.stage_lookup_hit_batch");

    let moments: Vec<Moments> = keys
        .iter()
        .map(|&(id, slew, load)| fresh.calibration_by_id(id).moments_at(slew, load))
        .collect();
    let model = fresh.quantile_model();
    tracer.enter("cell_model.predict_batch", 0);
    let a0 = crate::alloc::count();
    let t = Instant::now();
    for m in &moments {
        black_box(model.predict(black_box(m)));
    }
    let predict_ns = t.elapsed().as_nanos() as f64 / n;
    let allocs = crate::alloc::count() - a0;
    tracer.exit();

    SessionLayers {
        compile_ms: compile_ns as f64 / 1e6,
        analyze_cold_us: us(cold_ns),
        analyze_warm_us: median(&warm),
        worst_paths_us: median(&paths),
        resize_us: median(&resize),
        recompute_gates: recomputed as f64 / resize.len() as f64,
        stage_miss_ns,
        stage_hit_ns,
        predict_ns,
        allocs_per_predict: allocs as f64 / n,
    }
}
