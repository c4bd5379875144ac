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
//! Queries then allocate nothing: callers pass a [`QueryScratch`] whose
//! arrival/slew buffers are reused across calls. Every query is
//! bit-identical to the string-keyed oracle in [`crate::reference`] — the
//! compiled arrays hold exactly the values the reference code recomputes
//! per call. Production callers do not use this type directly: they go
//! through [`crate::session::TimingSession`], which owns a compiled design
//! plus the scratch pool and converts failures into typed
//! [`QueryError`]s.

use crate::session::QueryError;
use crate::sta::{NsigmaTimer, PathTiming, StageTiming};
use crate::stat_max::MergeRule;
use nsigma_mc::design::Design;
use nsigma_netlist::ir::{GateId, NetDriver, NetId};
use nsigma_netlist::topo::{
    k_longest_paths_by_with_order, longest_path_by_with_order, NetlistCsr, Path, PathScratch,
};
use nsigma_stats::quantile::{QuantileSet, SigmaLevel};

/// Sentinel in `net_worst_sink` for nets with no wire data (no parasitic
/// tree, no sinks, or no driving gate).
const NO_WIRE: u32 = u32::MAX;

/// Reusable per-worker buffers for compiled queries: arrival/slew staging
/// for block-based analysis and the k-worst path DP tables. One scratch
/// per worker thread serves any design; buffers grow to the largest design
/// seen and are then reused.
#[derive(Debug, Default)]
pub struct QueryScratch {
    arrival: Vec<QuantileSet>,
    slew: Vec<f64>,
    /// DP tables for ranked-path queries.
    pub paths: PathScratch,
}

impl QueryScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the staging buffers for a design with `nets` nets.
    fn reset(&mut self, nets: usize, input_slew: f64) {
        self.arrival.clear();
        self.arrival.resize(nets, QuantileSet::default());
        self.slew.clear();
        self.slew.resize(nets, input_slew);
    }
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

    /// The interned timer calibration id of a gate.
    pub fn gate_cal(&self, g: GateId) -> u32 {
        self.gate_cal[g.index()]
    }

    /// The precomputed effective load of a net.
    pub fn net_load(&self, net: NetId) -> f64 {
        self.net_load[net.index()]
    }

    /// The precomputed nominal path weight of a gate.
    pub fn path_weight(&self, g: GateId) -> f64 {
        self.path_weight[g.index()]
    }

    /// The precomputed `(wire quantiles, mean wire delay)` toward a net's
    /// worst sink — the block-based convention. Zero for wireless nets.
    pub fn worst_sink_wire(&self, net: NetId) -> (QuantileSet, f64) {
        let pos = self.net_worst_sink[net.index()];
        if pos == NO_WIRE {
            return (QuantileSet::default(), 0.0);
        }
        let s = self.csr.fanout_start[net.index()] as usize + pos as usize;
        (self.sink_wire_q[s], self.sink_wire_mean[s])
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

    /// Block-based whole-design analysis with the default pessimistic
    /// merge, allocating a fresh scratch. See
    /// [`CompiledDesign::analyze_design_with`].
    ///
    /// # Panics
    ///
    /// Panics if the design has no gates.
    pub fn analyze_design(&self, timer: &NsigmaTimer) -> QuantileSet {
        self.analyze_design_with(timer, MergeRule::Pessimistic, &mut QueryScratch::new())
    }

    /// Compiled counterpart of [`crate::reference::analyze_design_with`]:
    /// bit-identical arrivals, no per-query allocation or name hashing.
    ///
    /// # Panics
    ///
    /// Panics if the design has no gates.
    pub fn analyze_design_with(
        &self,
        timer: &NsigmaTimer,
        rule: MergeRule,
        scratch: &mut QueryScratch,
    ) -> QuantileSet {
        assert!(self.design.netlist.num_gates() > 0, "design has no gates");
        let input_slew = timer.input_slew();
        scratch.reset(self.design.netlist.num_nets(), input_slew);

        for &g in &self.csr.order {
            let gi = g.index();
            let net = self.csr.gate_output[gi] as usize;
            let load = self.net_load[net];

            // Merge fanin arrivals (elementwise max) and take the slew of
            // the worst fanin by +3σ — same idiom as the legacy loop.
            let mut in_arrival = QuantileSet::default();
            let mut in_slew = input_slew;
            let mut worst = f64::NEG_INFINITY;
            for &i in self.csr.fanins(gi) {
                let a = &scratch.arrival[i as usize];
                in_arrival = if worst == f64::NEG_INFINITY {
                    *a
                } else {
                    rule.merge(&in_arrival, a)
                };
                let key = a[SigmaLevel::PlusThree];
                if key > worst {
                    worst = key;
                    in_slew = scratch.slew[i as usize];
                }
            }

            let (cell_q, out_slew) =
                timer.stage_cell_quantiles_id(self.gate_cal[gi], in_slew, load);
            let (wire_q, wire_mean) = self.worst_sink_wire(NetId::from_index(net));

            scratch.arrival[net] = in_arrival.add(&cell_q).add(&wire_q);
            scratch.slew[net] = (out_slew + 2.0 * wire_mean).max(0.0);
        }

        let mut worst: Option<QuantileSet> = None;
        for &o in self.design.netlist.outputs() {
            if matches!(self.design.netlist.net(o).driver, NetDriver::Gate(_)) {
                let a = scratch.arrival[o.index()];
                worst = Some(match worst {
                    Some(w) => rule.merge(&w, &a),
                    None => a,
                });
            }
        }
        worst.unwrap_or_default()
    }

    /// Compiled counterpart of [`crate::reference::analyze_design_early`]
    /// (hold-side earliest arrival), bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if the design has no gates.
    pub fn analyze_design_early(
        &self,
        timer: &NsigmaTimer,
        scratch: &mut QueryScratch,
    ) -> QuantileSet {
        assert!(self.design.netlist.num_gates() > 0, "design has no gates");
        let input_slew = timer.input_slew();
        scratch.reset(self.design.netlist.num_nets(), input_slew);

        for &g in &self.csr.order {
            let gi = g.index();
            let net = self.csr.gate_output[gi] as usize;
            let load = self.net_load[net];

            let mut in_arrival: Option<QuantileSet> = None;
            let mut in_slew = input_slew;
            let mut best = f64::INFINITY;
            for &i in self.csr.fanins(gi) {
                let a = scratch.arrival[i as usize];
                in_arrival = Some(match in_arrival {
                    Some(w) => QuantileSet::from_fn(|l| w[l].min(a[l])),
                    None => a,
                });
                let key = a[SigmaLevel::MinusThree];
                if key < best {
                    best = key;
                    in_slew = scratch.slew[i as usize];
                }
            }
            let in_arrival = in_arrival.unwrap_or_default();

            let (cell_q, out_slew) =
                timer.stage_cell_quantiles_id(self.gate_cal[gi], in_slew, load);
            let (wire_q, wire_mean) = self.worst_sink_wire(NetId::from_index(net));

            scratch.arrival[net] = in_arrival.add(&cell_q).add(&wire_q);
            scratch.slew[net] = (out_slew + 2.0 * wire_mean).max(0.0);
        }

        let mut earliest: Option<QuantileSet> = None;
        for &o in self.design.netlist.outputs() {
            if matches!(self.design.netlist.net(o).driver, NetDriver::Gate(_)) {
                let a = scratch.arrival[o.index()];
                earliest = Some(match earliest {
                    Some(w) => QuantileSet::from_fn(|l| w[l].min(a[l])),
                    None => a,
                });
            }
        }
        earliest.unwrap_or_default()
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
    /// share, minus the per-query weight recomputation and Kahn pass.
    pub fn ranked_paths(&self, k: usize, scratch: &mut PathScratch) -> Vec<Path> {
        k_longest_paths_by_with_order(
            &self.design.netlist,
            &self.csr.order,
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
        let legacy = crate::reference::analyze_design(&timer, &design);
        let compiled = CompiledDesign::compile(&timer, design).unwrap();
        let fast = compiled.analyze_design(&timer);
        assert_eq!(legacy.as_array(), fast.as_array());
    }

    #[test]
    fn compiled_early_analysis_is_bit_identical() {
        let (timer, design) = setup();
        let legacy = crate::reference::analyze_design_early(&timer, &design);
        let compiled = CompiledDesign::compile(&timer, design).unwrap();
        let fast = compiled.analyze_design_early(&timer, &mut QueryScratch::new());
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
        let mut scratch = QueryScratch::new();
        let a = compiled.analyze_design_with(&timer, MergeRule::Pessimistic, &mut scratch);
        let b = compiled.analyze_design_with(&timer, MergeRule::Pessimistic, &mut scratch);
        assert_eq!(a.as_array(), b.as_array());
        let paths1 = compiled.ranked_paths(4, &mut scratch.paths);
        let paths2 = compiled.ranked_paths(4, &mut scratch.paths);
        assert_eq!(paths1, paths2);
    }
}
