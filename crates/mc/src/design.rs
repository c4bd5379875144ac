//! A design: netlist + library + technology + per-net parasitics.
//!
//! This bundles everything the golden simulator and the delay models need:
//! the mapped netlist, the RC tree of every net (generated from placement
//! statistics — the IC Compiler substitute), nominal load bookkeeping and
//! the per-sink golden scales, which [`golden_scales`] computes with the
//! nominal evaluation of the flat wire kernel.

use crate::wire_sim::golden_scales;
use nsigma_cells::{Cell, CellKind, CellLibrary};
use nsigma_interconnect::generator::{generate_net, NetGenConfig};
use nsigma_interconnect::rctree::RcTree;
use nsigma_netlist::ir::{NetDriver, NetId, Netlist};
use nsigma_process::Technology;
use nsigma_stats::rng::SeedStream;
use rand::SeedableRng;

/// A complete design ready for timing analysis.
#[derive(Debug, Clone)]
pub struct Design {
    /// The technology everything is evaluated in.
    pub tech: Technology,
    /// The cell library the netlist is mapped onto.
    pub lib: CellLibrary,
    /// The gate-level netlist.
    pub netlist: Netlist,
    /// Per-net parasitics, indexed by [`NetId`]; `None` for load-less nets.
    parasitics: Vec<Option<RcTree>>,
    /// Per-net, per-sink golden calibration from [`golden_scales`]: nominal
    /// transient lag divided by nominal two-pole lag. Multiplying the fast
    /// two-pole mode by this factor anchors it to the transient reference
    /// (a control variate), so circuit-scale Monte Carlo stays consistent
    /// with the wire-level transient experiments.
    golden_scale: Vec<Option<Vec<f64>>>,
}

impl Design {
    /// Builds a design, generating an RC tree for every net with loads.
    ///
    /// Each net's tree has one sink per load pin (in load order) and a
    /// length drawn from fanout-scaled placement statistics. Generation is
    /// deterministic in `seed`.
    pub fn with_generated_parasitics(
        tech: Technology,
        lib: CellLibrary,
        netlist: Netlist,
        seed: u64,
    ) -> Self {
        let seeds = SeedStream::new(seed);
        let base = NetGenConfig {
            res_per_m: tech.wire_res_per_m,
            cap_per_m: tech.wire_cap_per_m,
            ..NetGenConfig::default_28nm()
        };
        let mut parasitics = Vec::with_capacity(netlist.num_nets());
        for net in netlist.net_ids() {
            let loads = netlist.fanout(net);
            if loads == 0 {
                parasitics.push(None);
                continue;
            }
            let mut rng =
                rand::rngs::SmallRng::seed_from_u64(seeds.tagged_seed(net.index() as u64));
            // Higher-fanout nets are longer, as in routed designs.
            let cfg = base
                .clone()
                .with_fanout(loads)
                .with_mean_length(base.mean_length * (1.0 + 0.25 * (loads as f64 - 1.0)));
            parasitics.push(Some(generate_net(&mut rng, &cfg)));
        }
        let mut design = Self {
            tech,
            lib,
            netlist,
            parasitics,
            golden_scale: Vec::new(),
        };
        design.recompute_golden_scale();
        design
    }

    /// Recomputes the per-net transient/two-pole calibration factors.
    ///
    /// Called by the constructors and by [`Design::set_parasitic`]; one
    /// nominal transient per net, a few milliseconds per thousand nets.
    fn recompute_golden_scale(&mut self) {
        let mut scales = Vec::with_capacity(self.netlist.num_nets());
        for net in self.netlist.net_ids() {
            scales.push(self.compute_net_scale(net));
        }
        self.golden_scale = scales;
    }

    fn compute_net_scale(&self, net: NetId) -> Option<Vec<f64>> {
        let tree = self.parasitic(net).filter(|t| !t.sinks().is_empty())?;
        // Nominal driver: the actual driver cell, or an INVx4 port driver
        // for primary-input nets (the FO4 convention).
        let fo4 = Cell::new(CellKind::Inv, 4);
        let driver = self.driver_cell(net).unwrap_or(&fo4);
        let loads = self.load_cells(net);
        Some(golden_scales(&self.tech, tree, driver, &loads))
    }

    /// Per-sink golden calibration factors for a net (transient / two-pole
    /// at the nominal corner), `None` for load-less nets.
    pub fn wire_golden_scale(&self, net: NetId) -> Option<&[f64]> {
        self.golden_scale[net.index()].as_deref()
    }

    /// The RC tree of a net (`None` if the net has no loads).
    pub fn parasitic(&self, net: NetId) -> Option<&RcTree> {
        self.parasitics[net.index()].as_ref()
    }

    /// Replaces the RC tree of a net (used by tests and custom flows).
    ///
    /// # Panics
    ///
    /// Panics if the tree's sink count differs from the net's load count.
    pub fn set_parasitic(&mut self, net: NetId, tree: RcTree) {
        assert_eq!(
            tree.sinks().len(),
            self.netlist.fanout(net),
            "tree sinks must match net loads"
        );
        self.parasitics[net.index()] = Some(tree);
        self.golden_scale[net.index()] = self.compute_net_scale(net);
    }

    /// The library cells loading a net, in load-pin (= sink) order.
    pub fn load_cells(&self, net: NetId) -> Vec<&Cell> {
        self.netlist
            .net(net)
            .loads
            .iter()
            .map(|&(g, _)| self.lib.cell(self.netlist.gate(g).cell))
            .collect()
    }

    /// The cell driving a net, or `None` for a primary input.
    pub fn driver_cell(&self, net: NetId) -> Option<&Cell> {
        match self.netlist.net(net).driver {
            NetDriver::Gate(g) => Some(self.lib.cell(self.netlist.gate(g).cell)),
            NetDriver::PrimaryInput => None,
        }
    }

    /// Nominal total load a driver sees on this net: wire capacitance plus
    /// all load-pin input capacitances (the "effective capacitance" the
    /// paper adds to the cell's output load).
    pub fn stage_load_cap(&self, net: NetId) -> f64 {
        let wire = self.parasitic(net).map(|t| t.total_cap()).unwrap_or(0.0);
        let pins: f64 = self
            .load_cells(net)
            .iter()
            .map(|c| c.input_cap(&self.tech))
            .sum();
        wire + pins
    }

    /// Replaces a gate's library cell (e.g. an ECO resize) and refreshes the
    /// golden calibration of the nets whose loading changed (the gate's
    /// fanin nets see a different pin capacitance).
    ///
    /// The replacement must have the same pin count — same rule as
    /// [`nsigma_netlist::ir::Netlist::set_gate_cell`].
    pub fn replace_gate_cell(
        &mut self,
        gate: nsigma_netlist::ir::GateId,
        cell: nsigma_cells::CellId,
    ) {
        self.netlist.set_gate_cell(gate, cell);
        let fanins: Vec<NetId> = self.netlist.gate(gate).inputs.clone();
        for net in fanins {
            self.golden_scale[net.index()] = self.compute_net_scale(net);
        }
        // The gate's own output net calibration depends on its drive.
        let out = self.netlist.gate(gate).output;
        self.golden_scale[out.index()] = self.compute_net_scale(out);
    }

    /// The nominal effective load the delay calculator hands a driver of
    /// this net: the lumped [`Design::stage_load_cap`] reduced by resistive
    /// shielding at the (actual or FO4 port) driver's nominal resistance.
    pub fn stage_effective_load(&self, net: NetId) -> f64 {
        let total = self.stage_load_cap(net);
        let Some(tree) = self.parasitic(net) else {
            return total;
        };
        let fo4 = Cell::new(CellKind::Inv, 4);
        let driver = self.driver_cell(net).unwrap_or(&fo4);
        crate::wire_sim::effective_cap(&self.tech, driver, tree, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsigma_netlist::generators::random_dag::Iscas85;
    use nsigma_netlist::mapping::map_to_cells;

    fn small_design() -> Design {
        let tech = Technology::synthetic_28nm();
        let lib = CellLibrary::standard();
        let logic = nsigma_netlist::bench_format::parse(
            "t",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nw = NAND(a, b)\ny = NOT(w)\n",
        )
        .unwrap();
        let netlist = map_to_cells(&logic, &lib).unwrap();
        Design::with_generated_parasitics(tech, lib, netlist, 11)
    }

    #[test]
    fn every_loaded_net_gets_a_tree_with_matching_sinks() {
        let d = small_design();
        for net in d.netlist.net_ids() {
            let fanout = d.netlist.fanout(net);
            match d.parasitic(net) {
                Some(tree) => assert_eq!(tree.sinks().len(), fanout),
                None => assert_eq!(fanout, 0),
            }
        }
    }

    #[test]
    fn stage_load_includes_wire_and_pins() {
        let d = small_design();
        let w = d.netlist.find_net("a").unwrap();
        let wire = d.parasitic(w).unwrap().total_cap();
        let pin: f64 = d.load_cells(w).iter().map(|c| c.input_cap(&d.tech)).sum();
        assert!((d.stage_load_cap(w) - wire - pin).abs() < 1e-30);
        assert!(wire > 0.0 && pin > 0.0);
    }

    #[test]
    fn driver_cell_identification() {
        let d = small_design();
        let a = d.netlist.find_net("a").unwrap();
        assert!(d.driver_cell(a).is_none(), "PI net has no driver cell");
        let y = d.netlist.outputs()[0];
        assert!(d.driver_cell(y).is_some());
    }

    #[test]
    fn generation_is_deterministic() {
        let tech = Technology::synthetic_28nm();
        let lib = CellLibrary::standard();
        let nl = map_to_cells(&Iscas85::C432.generate(), &lib).unwrap();
        let d1 = Design::with_generated_parasitics(tech.clone(), lib.clone(), nl.clone(), 5);
        let d2 = Design::with_generated_parasitics(tech, lib, nl, 5);
        for net in d1.netlist.net_ids() {
            assert_eq!(d1.parasitic(net), d2.parasitic(net));
        }
    }

    #[test]
    #[should_panic(expected = "tree sinks must match net loads")]
    fn set_parasitic_validates_sinks() {
        let mut d = small_design();
        let a = d.netlist.find_net("a").unwrap();
        d.set_parasitic(a, RcTree::new(1e-15)); // no sinks
    }
}
