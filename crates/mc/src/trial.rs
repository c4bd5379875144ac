//! The golden per-trial walks: one Monte-Carlo sample of a whole circuit
//! ([`CircuitPlan::trial`]) or of one path ([`PathPlan::trial`]).
//!
//! Both plans are built once per run; everything a trial needs is hoisted
//! into dense per-gate arrays plus a [`WirePlan`] of the gates' flattened
//! output nets, so a trial makes no heap allocation once its scratch has
//! warmed up. Each gate draws an independent pull-down and pull-up
//! threshold deviate, exactly as characterization does; the pull-down
//! deviate also sets the driver resistance its output wire sees. That
//! shared sample is the cell/wire interaction the paper's calibration
//! targets.

use crate::design::Design;
use crate::wire_sim::{WirePlan, WireScratch};
use nsigma_cells::timing::evaluate_arc_pair;
use nsigma_cells::Cell;
use nsigma_netlist::ir::GateId;
use nsigma_netlist::topo::{NetlistCsr, Path};
use nsigma_netlist::NetDriver;
use nsigma_process::{GlobalSample, Technology, VariationModel};
use rand::Rng;

/// Per-gate model data a trial reads.
#[derive(Debug, Clone, Copy)]
struct Stage<'a> {
    cell: &'a Cell,
    /// Pull-down / pull-up effective local threshold sigmas (V).
    sigma_pd: f64,
    sigma_pu: f64,
    /// Output load when the gate's net has no wired sink.
    fallback_cap: f64,
}

impl<'a> Stage<'a> {
    fn new(design: &'a Design, gate: GateId) -> Self {
        let tech = &design.tech;
        let cell = design.lib.cell(design.netlist.gate(gate).cell);
        let (pd, pu) = cell.arc_stacks();
        Self {
            cell,
            sigma_pd: pd.effective_local_sigma(tech),
            sigma_pu: pu.effective_local_sigma(tech),
            fallback_cap: cell.output_parasitic(tech),
        }
    }
}

/// Appends `gate`'s output net to `wires`: wired if it has a parasitic tree
/// with sinks, unwired otherwise.
fn push_output_net(wires: &mut WirePlan, design: &Design, gate: GateId, driver: &Cell) {
    let net = design.netlist.gate(gate).output;
    match design.parasitic(net).filter(|t| !t.sinks().is_empty()) {
        Some(tree) => {
            let loads = design.load_cells(net);
            let scales = design.wire_golden_scale(net);
            wires.push_net(&design.tech, tree, driver, &loads, scales);
        }
        None => {
            wires.push_unwired();
        }
    }
}

/// Whole-circuit trial data, built once per run.
#[derive(Debug)]
pub struct CircuitPlan<'a> {
    tech: &'a Technology,
    csr: &'a NetlistCsr,
    variation: VariationModel,
    input_slew: f64,
    /// Per gate, by gate index.
    stages: Vec<Stage<'a>>,
    /// Each gate's output net; slot = gate index.
    wires: WirePlan,
    /// Gate-driven primary-output nets (PI-fed POs contribute 0).
    po_nets: Vec<u32>,
}

/// Per-worker buffers of [`CircuitPlan::trial`], reused across trials.
#[derive(Debug, Clone, Default)]
pub struct TrialScratch {
    arrival: Vec<f64>,
    slew: Vec<f64>,
    dloc: Vec<f64>,
    dloc_rise: Vec<f64>,
    wire: WireScratch,
}

impl<'a> CircuitPlan<'a> {
    /// Hoists the per-gate and per-net data of `design` over its CSR
    /// adjacency `csr` (which must be built from `design.netlist`).
    /// `input_slew` is the transition at every primary input (s).
    pub fn new(design: &'a Design, csr: &'a NetlistCsr, input_slew: f64) -> Self {
        let mut stages = Vec::with_capacity(design.netlist.num_gates());
        let mut wires = WirePlan::new();
        for gate in design.netlist.gate_ids() {
            let stage = Stage::new(design, gate);
            push_output_net(&mut wires, design, gate, stage.cell);
            stages.push(stage);
        }
        let po_nets = design
            .netlist
            .outputs()
            .iter()
            .filter(|&&o| matches!(design.netlist.net(o).driver, NetDriver::Gate(_)))
            .map(|o| o.index() as u32)
            .collect();
        Self {
            tech: &design.tech,
            csr,
            variation: VariationModel::new(&design.tech),
            input_slew,
            stages,
            wires,
            po_nets,
        }
    }

    /// The variation model trials draw from (for the caller's die corner).
    pub fn variation(&self) -> &VariationModel {
        &self.variation
    }

    /// A scratch sized for this plan; trials using it do not allocate.
    pub fn scratch(&self) -> TrialScratch {
        let gates = self.stages.len();
        let nets = self.csr.fanout_start.len() - 1;
        TrialScratch {
            arrival: vec![0.0; nets],
            slew: vec![0.0; nets],
            dloc: vec![0.0; gates],
            dloc_rise: vec![0.0; gates],
            wire: self.wires.scratch(),
        }
    }

    /// One trial under the die corner `global`: draws every gate's local
    /// mismatch (pull-down then pull-up, in gate order), propagates
    /// arrival and slew in topological order — sampling each gate's output
    /// wire as it goes — and returns the worst primary-output arrival (s).
    pub fn trial<R: Rng + ?Sized>(
        &self,
        global: &GlobalSample,
        scratch: &mut TrialScratch,
        rng: &mut R,
    ) -> f64 {
        for (gi, stage) in self.stages.iter().enumerate() {
            scratch.dloc[gi] = self.variation.sample_local_vth(rng, stage.sigma_pd);
            scratch.dloc_rise[gi] = self.variation.sample_local_vth(rng, stage.sigma_pu);
        }
        scratch.arrival.fill(0.0);
        scratch.slew.fill(self.input_slew);

        for &g in &self.csr.order {
            let gi = g.index();
            let net = self.csr.gate_output[gi] as usize;
            let stage = &self.stages[gi];

            // Worst input arrival, and the slew that came with it.
            let mut in_arrival = 0.0f64;
            let mut in_slew = self.input_slew;
            for &i in self.csr.fanins(gi) {
                let a = scratch.arrival[i as usize];
                if a > in_arrival {
                    in_arrival = a;
                    in_slew = scratch.slew[i as usize];
                }
            }

            let (sink_lag, load_cap) = if self.wires.is_wired(gi) {
                let net_sample = self.wires.sample(
                    gi,
                    self.tech,
                    &self.variation,
                    stage.cell,
                    global,
                    scratch.dloc[gi],
                    rng,
                    &mut scratch.wire,
                );
                // The net's arrival carries its slowest scaled sink lag:
                // conservative, and one number per net.
                let lag = scratch
                    .wire
                    .delays()
                    .iter()
                    .zip(self.wires.scales(gi))
                    .map(|(d, s)| d * s)
                    .fold(0.0f64, f64::max);
                (lag, net_sample.c_eff)
            } else {
                (0.0, stage.fallback_cap)
            };

            let arc = evaluate_arc_pair(
                self.tech,
                stage.cell,
                in_slew,
                load_cap,
                global.dvth + scratch.dloc[gi],
                global.dvth + scratch.dloc_rise[gi],
                global.mobility,
            );
            scratch.arrival[net] = in_arrival + arc.delay + sink_lag;
            // Wire RC also degrades the edge arriving at the next stage (the
            // decomposition residual can be slightly negative; slew stays ≥ 0).
            scratch.slew[net] = (arc.output_slew + 2.0 * sink_lag).max(0.0);
        }

        self.po_nets
            .iter()
            .map(|&o| scratch.arrival[o as usize])
            .fold(0.0f64, f64::max)
    }
}

/// One path's trial data, built once per path Monte-Carlo run.
#[derive(Debug)]
pub(crate) struct PathPlan<'a> {
    tech: &'a Technology,
    /// Per path stage.
    stages: Vec<Stage<'a>>,
    /// Each stage's output net; slot = stage index.
    wires: WirePlan,
    /// Sink of each stage's net that feeds the next path gate (the first
    /// sink at the endpoint).
    sink_pos: Vec<usize>,
}

impl<'a> PathPlan<'a> {
    pub(crate) fn new(design: &'a Design, path: &Path) -> Self {
        let mut stages = Vec::with_capacity(path.len());
        let mut wires = WirePlan::new();
        let mut sink_pos = Vec::with_capacity(path.len());
        for (k, &g) in path.gates.iter().enumerate() {
            let stage = Stage::new(design, g);
            push_output_net(&mut wires, design, g, stage.cell);
            let net = design.netlist.gate(g).output;
            let pos = path
                .gates
                .get(k + 1)
                .and_then(|&next| {
                    design
                        .netlist
                        .net(net)
                        .loads
                        .iter()
                        .position(|&(lg, _)| lg == next)
                })
                .unwrap_or(0);
            sink_pos.push(pos);
            stages.push(stage);
        }
        Self {
            tech: &design.tech,
            stages,
            wires,
            sink_pos,
        }
    }

    pub(crate) fn scratch(&self) -> WireScratch {
        self.wires.scratch()
    }

    /// One sampled path delay (s): per stage, the pull-down and pull-up
    /// deviates, then the output wire, then the cell arc at the wire's
    /// effective load; slew propagates stage to stage.
    pub(crate) fn trial<R: Rng + ?Sized>(
        &self,
        variation: &VariationModel,
        input_slew: f64,
        global: &GlobalSample,
        rng: &mut R,
        scratch: &mut WireScratch,
    ) -> f64 {
        let mut slew = input_slew;
        let mut total = 0.0;
        for (k, stage) in self.stages.iter().enumerate() {
            let dloc = variation.sample_local_vth(rng, stage.sigma_pd);
            let dloc_rise = variation.sample_local_vth(rng, stage.sigma_pu);
            let (wire_delay, load_cap) = if self.wires.is_wired(k) {
                let pos = self.sink_pos[k];
                let (net_sample, delay) = self.wires.sample_sink(
                    k, pos, self.tech, variation, stage.cell, global, dloc, rng, scratch,
                );
                // The cell arc is evaluated at the effective capacitance so
                // cell + wire decompose the true source→sink delay exactly.
                (delay * self.wires.scales(k)[pos], net_sample.c_eff)
            } else {
                (0.0, stage.fallback_cap)
            };
            let arc = evaluate_arc_pair(
                self.tech,
                stage.cell,
                slew,
                load_cap,
                global.dvth + dloc,
                global.dvth + dloc_rise,
                global.mobility,
            );
            total += arc.delay + wire_delay;
            slew = (arc.output_slew + 2.0 * wire_delay).max(0.0);
        }
        total
    }
}

/// Fills `out`, `width` values per trial in trial order, on scoped workers:
/// one contiguous run of trials per worker, each worker with its own
/// `init()` state. `trial(t, state, row)` writes trial `t`'s row and must
/// depend only on `t`, so the result is independent of the worker count.
pub(crate) fn run_trials<S>(
    out: &mut [f64],
    width: usize,
    init: impl Fn() -> S + Sync,
    trial: impl Fn(usize, &mut S, &mut [f64]) + Sync,
) {
    let trials = out.len() / width;
    let n_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(trials);
    let per = trials.div_ceil(n_threads);
    let (init, trial) = (&init, &trial);
    std::thread::scope(|scope| {
        for (w, chunk) in out.chunks_mut(per * width).enumerate() {
            scope.spawn(move || {
                let mut state = init();
                for (i, row) in chunk.chunks_mut(width).enumerate() {
                    trial(w * per + i, &mut state, row);
                }
            });
        }
    });
}
