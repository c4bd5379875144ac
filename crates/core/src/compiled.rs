//! The compiled timing graph: a [`Design`] lowered once into flat arrays
//! so every query runs over dense `u32`/`f64` data instead of re-deriving
//! it per call.
//!
//! Registration-time work (`CompiledDesign::compile`):
//!
//! * cell names interned to the timer's dense calibration ids (one `u32`
//!   per gate — the hot path never hashes a `String` again);
//! * topo order and fanin/fanout structure lowered to CSR arrays
//!   ([`NetlistCsr`]);
//! * per-net effective loads and per-sink wire quantiles/means — pure
//!   functions of the design's parasitics and the calibrated wire model —
//!   evaluated once and stored, with the worst sink's index cached;
//! * nominal per-gate path weights: the arc-only weight of the k-worst
//!   ranking and the arc+Elmore weight of the nominal critical path.
//!
//! The one production per-gate block-based update lives here:
//! `CompiledDesign::propagate_gate` merges a gate's fanin arrivals under
//! a `Bound`, picks the input slew, evaluates the Table I cell quantiles
//! and adds the worst-sink wire. The session's incremental state, early
//! analysis and SDF export all go through it; only
//! [`CompiledDesign::analyze_path`] keeps its own path convention. Both are
//! bit-identical to the string-keyed oracle in [`crate::reference`] — the
//! compiled arrays hold exactly the values the reference code recomputes
//! per call. Production callers do not use this type directly: they go
//! through [`crate::session::TimingSession`], which owns a compiled design
//! plus the arrival state and converts failures into typed
//! [`QueryError`]s.

use crate::session::QueryError;
use crate::sta::{NsigmaTimer, PathTiming, StageTiming};
use crate::stat_max::MergeRule;
use nsigma_mc::design::Design;
use nsigma_netlist::ir::{GateId, NetDriver, NetId};
use nsigma_netlist::topo::{
    k_longest_paths_by_with_csr, longest_path_by_with_order, NetlistCsr, Path, PathScratch,
};
use nsigma_stats::quantile::{QuantileSet, SigmaLevel};

/// Sentinel in `net_worst_sink` for nets with no wire data (no parasitic
/// tree, no sinks, or no driving gate).
const NO_WIRE: u32 = u32::MAX;

/// Which arrival bound a block-based propagation computes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Bound {
    /// Latest arrival: fanins merged under the rule, input slew of the
    /// fanin with the largest +3σ.
    Late(MergeRule),
    /// Earliest (hold-side) arrival: elementwise minimum, input slew of
    /// the fanin with the smallest −3σ.
    Early,
}

impl Bound {
    fn merge(self, a: &QuantileSet, b: &QuantileSet) -> QuantileSet {
        match self {
            Bound::Late(rule) => rule.merge(a, b),
            Bound::Early => QuantileSet::from_fn(|l| a[l].min(b[l])),
        }
    }

    /// Whether `a` strictly beats `b` as the slew-defining fanin.
    fn beats(self, a: &QuantileSet, b: &QuantileSet) -> bool {
        match self {
            Bound::Late(_) => a[SigmaLevel::PlusThree] > b[SigmaLevel::PlusThree],
            Bound::Early => a[SigmaLevel::MinusThree] < b[SigmaLevel::MinusThree],
        }
    }
}

/// One gate's block-based update: the output net, the cell quantiles at
/// the resolved input slew, and the net's new arrival and slew.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GateUpdate {
    pub net: usize,
    pub cell: QuantileSet,
    pub arrival: QuantileSet,
    pub slew: f64,
}

/// A design compiled against one timer: flat per-gate/per-net model data
/// plus the CSR connectivity, ready for allocation-free queries.
///
/// The compiled arrays cache values derived from the timer's calibrations
/// and wire model; all queries must use the same timer the design was
/// compiled with (the server guarantees this by construction — one timer
/// per engine).
#[derive(Debug)]
pub struct CompiledDesign {
    design: Design,
    csr: NetlistCsr,
    /// Interned timer calibration id per gate.
    gate_cal: Vec<u32>,
    /// `stage_effective_load` per net, precomputed.
    net_load: Vec<f64>,
    /// Per-sink wire quantiles, indexed CSR-style by `csr.fanout_start`
    /// (sinks are constructed in load order, so the offsets coincide).
    sink_wire_q: Vec<QuantileSet>,
    /// Per-sink calibrated mean wire delay, same indexing.
    sink_wire_mean: Vec<f64>,
    /// Worst-sink position per net (block-based convention), or
    /// [`NO_WIRE`].
    net_worst_sink: Vec<u32>,
    /// Nominal per-gate arc delay — the additive weight of the k-worst
    /// path ranking.
    path_weight: Vec<f64>,
    /// Nominal per-gate arc + Elmore weight
    /// ([`nsigma_mc::path_sim::nominal_stage_weight`]) — the additive weight
    /// of the nominal critical path.
    crit_weight: Vec<f64>,
}

impl CompiledDesign {
    /// Lowers `design` into the compiled form against `timer`.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownCell`] if the design uses a cell the timer has
    /// no calibration for (what the pre-session code reported as a
    /// query-time panic).
    pub fn compile(timer: &NsigmaTimer, design: Design) -> Result<Self, QueryError> {
        let csr = NetlistCsr::build(&design.netlist);
        let n = design.netlist.num_gates();
        let nets = design.netlist.num_nets();

        let mut gate_cal = Vec::with_capacity(n);
        for gate in design.netlist.gates() {
            let name = design.lib.cell(gate.cell).name();
            gate_cal.push(timer.cell_id(name).ok_or_else(|| QueryError::UnknownCell {
                cell: name.to_string(),
            })?);
        }

        let mut this = Self {
            design,
            csr,
            gate_cal,
            net_load: vec![0.0; nets],
            sink_wire_q: Vec::new(),
            sink_wire_mean: Vec::new(),
            net_worst_sink: vec![NO_WIRE; nets],
            path_weight: vec![0.0; n],
            crit_weight: vec![0.0; n],
        };
        let total_sinks = this.csr.fanout_gates.len();
        this.sink_wire_q = vec![QuantileSet::default(); total_sinks];
        this.sink_wire_mean = vec![0.0; total_sinks];

        for idx in 0..nets {
            this.recompile_net(timer, NetId::from_index(idx));
        }
        for idx in 0..n {
            this.recompile_weights(GateId::from_index(idx));
        }
        Ok(this)
    }

    /// The underlying design (read-only).
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The precomputed topo order.
    pub fn order(&self) -> &[GateId] {
        &self.csr.order
    }

    /// The CSR connectivity arrays.
    pub fn csr(&self) -> &NetlistCsr {
        &self.csr
    }

    /// The precomputed `(wire quantiles, mean wire delay)` toward a net's
    /// worst sink — the block-based convention. Zero for wireless nets.
    fn worst_sink_wire(&self, net: usize) -> (QuantileSet, f64) {
        let pos = self.net_worst_sink[net];
        if pos == NO_WIRE {
            return (QuantileSet::default(), 0.0);
        }
        let s = self.csr.fanout_start[net] as usize + pos as usize;
        (self.sink_wire_q[s], self.sink_wire_mean[s])
    }

    /// The precomputed wire quantiles of every sink of a gate-driven net,
    /// in load order; empty for nets without wire data.
    pub(crate) fn sink_wires(&self, net: NetId) -> &[QuantileSet] {
        if self.net_worst_sink[net.index()] == NO_WIRE {
            return &[];
        }
        let r = self.csr.fanout_start[net.index()] as usize
            ..self.csr.fanout_start[net.index() + 1] as usize;
        &self.sink_wire_q[r]
    }

    /// The precomputed wire data toward the sink feeding `next_gate` (first
    /// matching load pin, as the path convention requires), falling back to
    /// the worst sink — mirrors the legacy `stage_wire_quantiles`.
    fn path_sink_wire(&self, net: NetId, next_gate: Option<GateId>) -> (QuantileSet, f64) {
        if self.net_worst_sink[net.index()] == NO_WIRE {
            return (QuantileSet::default(), 0.0);
        }
        let pos = next_gate
            .and_then(|next| {
                self.csr
                    .fanouts(net.index())
                    .iter()
                    .position(|&g| g as usize == next.index())
            })
            .unwrap_or(self.net_worst_sink[net.index()] as usize);
        let s = self.csr.fanout_start[net.index()] as usize + pos;
        (self.sink_wire_q[s], self.sink_wire_mean[s])
    }

    /// Recomputes one net's compiled data (effective load, per-sink wire
    /// quantiles/means, worst sink). Called per net at compile time and for
    /// the affected nets after a resize.
    fn recompile_net(&mut self, timer: &NsigmaTimer, net: NetId) {
        let design = &self.design;
        self.net_load[net.index()] = design.stage_effective_load(net);

        let tree = match design.parasitic(net) {
            Some(t) if !t.sinks().is_empty() => t,
            _ => {
                self.net_worst_sink[net.index()] = NO_WIRE;
                return;
            }
        };
        // Wire data is only queried for gate-driven nets (net == the
        // driving gate's output); PI nets keep the sentinel.
        let Some(driver) = design.driver_cell(net) else {
            self.net_worst_sink[net.index()] = NO_WIRE;
            return;
        };
        let loads = design.load_cells(net);
        let bases = crate::wire_model::nominal_wire_means(&design.tech, tree, &loads, driver);
        // Same argmax expression as the legacy path (ties resolve to the
        // *last* maximal sink under `max_by`).
        let pos = bases
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .unwrap_or(0);
        self.net_worst_sink[net.index()] = pos as u32;
        let wm = timer.wire_model();
        let s0 = self.csr.fanout_start[net.index()] as usize;
        for (k, &base) in bases.iter().enumerate() {
            self.sink_wire_q[s0 + k] = wm.wire_quantiles(base, driver, loads[k]);
            self.sink_wire_mean[s0 + k] = wm.predict_mean(base, driver, loads[k]);
        }
    }

    /// Refreshes one gate's nominal weights from its current cell and
    /// output load: the ranking weight from the precomputed effective load,
    /// the critical weight from [`nsigma_mc::path_sim::nominal_stage_weight`].
    fn recompile_weights(&mut self, g: GateId) {
        let gate = self.design.netlist.gate(g);
        let cell = self.design.lib.cell(gate.cell);
        self.path_weight[g.index()] = nsigma_cells::timing::nominal_arc(
            &self.design.tech,
            cell,
            20e-12,
            self.net_load[gate.output.index()],
        )
        .delay;
        self.crit_weight[g.index()] = nsigma_mc::path_sim::nominal_stage_weight(&self.design, g);
    }

    /// Replaces a gate's cell (an ECO resize) and recompiles the affected
    /// slices: the gate's interned id, the wire/load data of its fanin nets
    /// and output net, and the path weights of the gate and its fanin-net
    /// drivers. Connectivity (and thus the CSR) is unchanged.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownCell`] if the timer has no calibration for the
    /// new cell. The design is left unmodified on error.
    pub fn resize_gate_cell(
        &mut self,
        timer: &NsigmaTimer,
        gate: GateId,
        cell: nsigma_cells::CellId,
    ) -> Result<(), QueryError> {
        let name = self.design.lib.cell(cell).name();
        let cal = timer.cell_id(name).ok_or_else(|| QueryError::UnknownCell {
            cell: name.to_string(),
        })?;
        self.design.replace_gate_cell(gate, cell);
        self.gate_cal[gate.index()] = cal;

        let fanins: Vec<NetId> = self.design.netlist.gate(gate).inputs.clone();
        for &net in &fanins {
            self.recompile_net(timer, net);
        }
        let out = self.design.netlist.gate(gate).output;
        self.recompile_net(timer, out);

        self.recompile_weights(gate);
        for &net in &fanins {
            if let NetDriver::Gate(driver) = self.design.netlist.net(net).driver {
                self.recompile_weights(driver);
            }
        }
        Ok(())
    }

    /// One gate's block-based update over the per-net `arrival`/`slew`
    /// state — the single production copy of the eq. (10) node update.
    ///
    /// Merges the fanin arrivals under `bound` (the first fanin taken
    /// as-is, later ones merged in) and takes the input slew of the first
    /// fanin with the largest +3σ (late) or smallest −3σ (early) — the
    /// idioms of [`crate::reference`], so results stay bit-identical. Then
    /// adds the Table I cell quantiles and the worst-sink eq. (9) wire
    /// quantiles, and degrades the output slew by twice the mean wire delay.
    pub(crate) fn propagate_gate(
        &self,
        timer: &NsigmaTimer,
        bound: Bound,
        g: GateId,
        arrival: &[QuantileSet],
        slew: &[f64],
    ) -> GateUpdate {
        let gi = g.index();
        let net = self.csr.gate_output[gi] as usize;

        let mut merged: Option<QuantileSet> = None;
        let mut slew_key: Option<&QuantileSet> = None;
        let mut in_slew = timer.input_slew();
        for &i in self.csr.fanins(gi) {
            let a = &arrival[i as usize];
            merged = Some(match merged {
                Some(m) => bound.merge(&m, a),
                None => *a,
            });
            if slew_key.is_none_or(|k| bound.beats(a, k)) {
                slew_key = Some(a);
                in_slew = slew[i as usize];
            }
        }

        let (cell, out_slew) =
            timer.stage_cell_quantiles_id(self.gate_cal[gi], in_slew, self.net_load[net]);
        let (wire_q, wire_mean) = self.worst_sink_wire(net);
        GateUpdate {
            net,
            cell,
            arrival: merged.unwrap_or_default().add(&cell).add(&wire_q),
            slew: (out_slew + 2.0 * wire_mean).max(0.0),
        }
    }

    /// A full propagation under `bound` over fresh buffers, merged at the
    /// primary outputs — the session's early analysis.
    pub(crate) fn analyze_fresh(&self, timer: &NsigmaTimer, bound: Bound) -> QuantileSet {
        let nets = self.design.netlist.num_nets();
        let mut arrival = vec![QuantileSet::default(); nets];
        let mut slew = vec![timer.input_slew(); nets];
        for &g in &self.csr.order {
            let u = self.propagate_gate(timer, bound, g, &arrival, &slew);
            arrival[u.net] = u.arrival;
            slew[u.net] = u.slew;
        }
        self.merge_outputs(bound, &arrival)
    }

    /// Merges the gate-driven primary-output arrivals under `bound`: the
    /// design's worst (late) or earliest (early) output quantiles.
    pub(crate) fn merge_outputs(&self, bound: Bound, arrival: &[QuantileSet]) -> QuantileSet {
        let netlist = &self.design.netlist;
        netlist
            .outputs()
            .iter()
            .filter(|&&o| matches!(netlist.net(o).driver, NetDriver::Gate(_)))
            .map(|o| arrival[o.index()])
            .reduce(|w, a| bound.merge(&w, &a))
            .unwrap_or_default()
    }

    /// Compiled counterpart of [`crate::reference::analyze_path`] (eq. 10
    /// over one path), bit-identical. The session validates path gates
    /// before calling in.
    ///
    /// # Panics
    ///
    /// Panics if the path references a gate outside this design.
    pub fn analyze_path(&self, timer: &NsigmaTimer, path: &Path) -> PathTiming {
        let mut total = QuantileSet::default();
        let mut stages = Vec::with_capacity(path.len());
        let mut slew = timer.input_slew();

        for (k, &g) in path.gates.iter().enumerate() {
            let gi = g.index();
            let net = self.csr.gate_output[gi] as usize;
            let load = self.net_load[net];

            let (cell_q, out_slew) = timer.stage_cell_quantiles_id(self.gate_cal[gi], slew, load);
            let (wire_q, wire_mean) =
                self.path_sink_wire(NetId::from_index(net), path.gates.get(k + 1).copied());

            total = total.add(&cell_q).add(&wire_q);
            let gate = self.design.netlist.gate(g);
            stages.push(StageTiming {
                gate: gate.name.clone(),
                cell: self.design.lib.cell(gate.cell).name().to_string(),
                input_slew: slew,
                load,
                cell_quantiles: cell_q,
                wire_quantiles: wire_q,
            });
            slew = (out_slew + 2.0 * wire_mean).max(0.0);
        }
        PathTiming {
            quantiles: total,
            stages,
        }
    }

    /// The `k` worst paths under the precomputed nominal weights — the
    /// ranking `report_worst_paths` and the server's `worst_paths` endpoint
    /// share (through the session's held list), minus the per-query weight
    /// recomputation and Kahn pass.
    pub fn ranked_paths(&self, k: usize, scratch: &mut PathScratch) -> Vec<Path> {
        k_longest_paths_by_with_csr(
            &self.design.netlist,
            &self.csr,
            |g| self.path_weight[g.index()],
            k,
            scratch,
        )
    }

    /// The nominal critical path under the precomputed critical weights —
    /// the path [`nsigma_mc::path_sim::find_critical_path`] returns for this
    /// design, minus the per-query weight pass and Kahn sort. `None` for a
    /// design with no gates.
    pub fn critical_path(&self) -> Option<Path> {
        longest_path_by_with_order(&self.design.netlist, &self.csr.order, |g| {
            self.crit_weight[g.index()]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sta::TimerConfig;
    use nsigma_cells::cell::{Cell, CellKind};
    use nsigma_cells::CellLibrary;
    use nsigma_netlist::generators::arith::ripple_adder;
    use nsigma_netlist::mapping::map_to_cells;
    use nsigma_process::Technology;

    fn setup() -> (NsigmaTimer, Design) {
        let tech = Technology::synthetic_28nm();
        let mut lib = CellLibrary::new();
        for kind in [
            CellKind::Inv,
            CellKind::Buf,
            CellKind::Nand2,
            CellKind::Xor2,
        ] {
            for s in [1, 2, 4, 8] {
                lib.add(Cell::new(kind, s));
            }
        }
        let netlist = map_to_cells(&ripple_adder(8), &lib).unwrap();
        let design = Design::with_generated_parasitics(tech.clone(), lib.clone(), netlist, 9);
        let mut cfg = TimerConfig::standard(13);
        cfg.char_samples = 800;
        cfg.wire.nets = 1;
        cfg.wire.samples = 400;
        let timer = NsigmaTimer::build(&tech, &lib, &cfg).unwrap();
        (timer, design)
    }

    #[test]
    fn compiled_design_analysis_is_bit_identical() {
        let (timer, design) = setup();
        let compiled = CompiledDesign::compile(&timer, design.clone()).unwrap();
        for rule in [MergeRule::Pessimistic, MergeRule::Clark { rho: 0.3 }] {
            let legacy = crate::reference::analyze_design_with(&timer, &design, rule);
            let fast = compiled.analyze_fresh(&timer, Bound::Late(rule));
            assert_eq!(legacy.as_array(), fast.as_array(), "{rule:?}");
        }
    }

    #[test]
    fn compiled_early_analysis_is_bit_identical() {
        let (timer, design) = setup();
        let legacy = crate::reference::analyze_design_early(&timer, &design);
        let compiled = CompiledDesign::compile(&timer, design).unwrap();
        let fast = compiled.analyze_fresh(&timer, Bound::Early);
        assert_eq!(legacy.as_array(), fast.as_array());
    }

    #[test]
    fn compiled_path_analysis_is_bit_identical() {
        let (timer, design) = setup();
        let path = nsigma_mc::path_sim::find_critical_path(&design).unwrap();
        let legacy = crate::reference::analyze_path(&timer, &design, &path);
        let compiled = CompiledDesign::compile(&timer, design).unwrap();
        let fast = compiled.analyze_path(&timer, &path);
        assert_eq!(legacy, fast);
    }

    #[test]
    fn resize_refreshes_weights_like_a_fresh_compile() {
        let (timer, design) = setup();
        let mut compiled = CompiledDesign::compile(&timer, design).unwrap();
        let n = compiled.design().netlist.num_gates();
        for (step, gi) in (0..n).step_by(5).enumerate() {
            let g = GateId::from_index(gi);
            let kind = {
                let d = compiled.design();
                d.lib.cell(d.netlist.gate(g).cell).kind()
            };
            let strength = [8, 1, 4][step % 3];
            let cell = compiled.design().lib.find_kind(kind, strength).unwrap();
            compiled.resize_gate_cell(&timer, g, cell).unwrap();
        }
        let fresh = CompiledDesign::compile(&timer, compiled.design().clone()).unwrap();
        for i in 0..n {
            assert_eq!(
                compiled.path_weight[i].to_bits(),
                fresh.path_weight[i].to_bits(),
                "ranking weight of gate {i}"
            );
            assert_eq!(
                compiled.crit_weight[i].to_bits(),
                fresh.crit_weight[i].to_bits(),
                "critical weight of gate {i}"
            );
        }
        assert_eq!(compiled.critical_path(), fresh.critical_path());
    }

    #[test]
    fn scratch_reuse_does_not_change_results() {
        let (timer, design) = setup();
        let compiled = CompiledDesign::compile(&timer, design).unwrap();
        let mut scratch = PathScratch::default();
        let paths1 = compiled.ranked_paths(4, &mut scratch);
        let paths2 = compiled.ranked_paths(4, &mut scratch);
        assert_eq!(paths1, paths2);
    }
}
