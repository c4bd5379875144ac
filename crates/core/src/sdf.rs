//! SDF (Standard Delay Format) export of the N-sigma analysis.
//!
//! Sign-off hands timing back to simulation/ECO tools as SDF triplets
//! `(min:typ:max)`. This module writes the N-sigma timer's view of a design
//! with the paper's sigma levels in those roles: `min = T(−3σ)`,
//! `typ = T(0σ)`, `max = T(+3σ)` — per cell arc (`IOPATH`) and per wire
//! (`INTERCONNECT`), which is exactly the consumption model the paper's
//! intro describes for sign-off quantiles.
//!
//! The export runs no propagation of its own: it reads a
//! [`TimingSession`]'s arrival state and compiled per-sink wire arrays.

use crate::session::TimingSession;
use crate::sta::NsigmaTimer;
use nsigma_stats::quantile::{QuantileSet, SigmaLevel};
use std::borrow::Borrow;
use std::fmt::Write as _;

/// Writes an SDF 3.0 file for the whole design at the session's analysis
/// operating point.
///
/// Each gate's `IOPATH` triplets are the cell quantiles the analysis adds
/// at that gate: Table I at the input slew the block-based propagation
/// resolved (the slew of the fanin with the largest +3σ arrival, wire
/// degradation included) and the stage's effective load. Gate-driven
/// `INTERCONNECT` triplets are the calibrated eq. (9) quantiles the
/// compiled design holds per sink; primary-input nets use the FO4
/// port-driver convention of the golden and the design calibration.
///
/// # Examples
///
/// ```no_run
/// # use nsigma_cells::CellLibrary;
/// # use nsigma_core::sdf::write_sdf;
/// # use nsigma_core::sta::{NsigmaTimer, TimerConfig};
/// # use nsigma_core::{MergeRule, TimingSession};
/// # use nsigma_mc::design::Design;
/// # use nsigma_netlist::generators::arith::ripple_adder;
/// # use nsigma_netlist::mapping::map_to_cells;
/// # use nsigma_process::Technology;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tech = Technology::synthetic_28nm();
/// let lib = CellLibrary::standard();
/// let netlist = map_to_cells(&ripple_adder(4), &lib)?;
/// let design = Design::with_generated_parasitics(tech.clone(), lib.clone(), netlist, 1);
/// let timer = NsigmaTimer::build(&tech, &lib, &TimerConfig::standard(1))?;
/// let session = TimingSession::new(&timer, design, MergeRule::Pessimistic)?;
/// let sdf = write_sdf(&session);
/// assert!(sdf.contains("(DELAYFILE"));
/// # Ok(())
/// # }
/// ```
pub fn write_sdf<B: Borrow<NsigmaTimer>>(session: &TimingSession<B>) -> String {
    let design = session.design();
    let compiled = session.compiled();
    let mut out = String::new();
    writeln!(
        out,
        "(DELAYFILE\n  (SDFVERSION \"3.0\")\n  (DESIGN \"{}\")\n  (VENDOR \"nsigma\")\n  (PROGRAM \"nsigma N-sigma timer\")\n  (TIMESCALE 1ps)\n  // triplets are the N-sigma levels: (T(-3s) : T(0s) : T(+3s))",
        design.netlist.name()
    )
    .expect("write");

    // Primary-input nets: interconnect triplets with the FO4 port-driver
    // convention (the same one the golden and the Design calibration use).
    let port_driver = crate::sta::fo4_cell();
    let wire_model = session.timer().wire_model();
    for &net in design.netlist.inputs() {
        let Some(tree) = design.parasitic(net).filter(|t| !t.sinks().is_empty()) else {
            continue;
        };
        let loads = design.load_cells(net);
        let bases = crate::wire_model::nominal_wire_means(&design.tech, tree, &loads, &port_driver);
        let name = sanitize(&design.netlist.net(net).name);
        for (pos, &(lg, lpin)) in design.netlist.net(net).loads.iter().enumerate() {
            let q = wire_model.wire_quantiles(bases[pos], &port_driver, loads[pos]);
            writeln!(
                out,
                "  (CELL (CELLTYPE \"interconnect\") (INSTANCE {name})\n    (DELAY (ABSOLUTE (INTERCONNECT {name} {}/A{} {}))))",
                sanitize(&design.netlist.gate(lg).name),
                lpin + 1,
                triplet(&q)
            )
            .expect("write");
        }
    }

    for &g in compiled.order() {
        let gate = design.netlist.gate(g);
        let cell_q = triplet(&session.gate_update(g).cell);
        writeln!(
            out,
            "  (CELL\n    (CELLTYPE \"{}\")\n    (INSTANCE {})\n    (DELAY (ABSOLUTE",
            design.lib.cell(gate.cell).name(),
            sanitize(&gate.name)
        )
        .expect("write");
        for pin in 1..=gate.inputs.len() {
            writeln!(out, "      (IOPATH A{pin} Y {cell_q})").expect("write");
        }
        out.push_str("    ))\n  )\n");

        // Wire entries for each sink of this net.
        let net = design.netlist.net(gate.output);
        for (q, &(lg, lpin)) in compiled.sink_wires(gate.output).iter().zip(&net.loads) {
            writeln!(
                out,
                "  (CELL (CELLTYPE \"interconnect\") (INSTANCE {})\n    (DELAY (ABSOLUTE (INTERCONNECT {}/Y {}/A{} {}))))",
                sanitize(&net.name),
                sanitize(&gate.name),
                sanitize(&design.netlist.gate(lg).name),
                lpin + 1,
                triplet(q)
            )
            .expect("write");
        }
    }
    out.push_str(")\n");
    out
}

fn triplet(q: &QuantileSet) -> String {
    format!(
        "({:.2}:{:.2}:{:.2})",
        q[SigmaLevel::MinusThree] * 1e12,
        q[SigmaLevel::Zero] * 1e12,
        q[SigmaLevel::PlusThree] * 1e12
    )
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sta::TimerConfig;
    use crate::stat_max::MergeRule;
    use nsigma_cells::cell::{Cell, CellKind};
    use nsigma_cells::CellLibrary;
    use nsigma_mc::design::Design;
    use nsigma_netlist::generators::arith::ripple_adder;
    use nsigma_netlist::mapping::map_to_cells;
    use nsigma_netlist::Netlist;
    use nsigma_process::Technology;

    fn lib() -> CellLibrary {
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
        lib
    }

    fn timer(lib: &CellLibrary) -> NsigmaTimer {
        let mut cfg = TimerConfig::standard(2);
        cfg.char_samples = 800;
        cfg.wire.nets = 1;
        cfg.wire.samples = 400;
        NsigmaTimer::build(&Technology::synthetic_28nm(), lib, &cfg).unwrap()
    }

    fn adder(lib: &CellLibrary) -> Design {
        let netlist = map_to_cells(&ripple_adder(4), lib).unwrap();
        Design::with_generated_parasitics(Technology::synthetic_28nm(), lib.clone(), netlist, 2)
    }

    #[test]
    fn sdf_has_all_cells_and_wires() {
        let lib = lib();
        let timer = timer(&lib);
        let design = adder(&lib);
        let sdf = TimingSession::new(&timer, design.clone(), MergeRule::Pessimistic)
            .unwrap()
            .sdf();
        assert!(sdf.starts_with("(DELAYFILE"));
        assert!(sdf.trim_end().ends_with(')'));
        // One CELL block per gate plus interconnect blocks per loaded sink.
        let iopath_count = sdf.matches("(IOPATH").count();
        let expected_iopaths: usize = design.netlist.gates().iter().map(|g| g.inputs.len()).sum();
        assert_eq!(iopath_count, expected_iopaths);
        let interconnects = sdf.matches("(INTERCONNECT").count();
        let expected_wires: usize = design
            .netlist
            .net_ids()
            .filter(|&n| design.parasitic(n).is_some())
            .map(|n| design.netlist.fanout(n))
            .sum();
        assert_eq!(interconnects, expected_wires);
    }

    #[test]
    fn triplets_are_ordered_min_typ_max() {
        let lib = lib();
        let timer = timer(&lib);
        let sdf = TimingSession::new(&timer, adder(&lib), MergeRule::Pessimistic)
            .unwrap()
            .sdf();
        for line in sdf.lines().filter(|l| l.contains("(IOPATH")) {
            let nums: Vec<f64> = line
                .split('(')
                .next_back()
                .unwrap()
                .trim_end_matches([')', ' '])
                .split(':')
                .filter_map(|t| t.parse().ok())
                .collect();
            assert_eq!(nums.len(), 3, "line: {line}");
            assert!(nums[0] <= nums[1] && nums[1] <= nums[2], "line: {line}");
            assert!(nums[0] > 0.0);
        }
    }

    /// On a single-fanin chain the block-based input slew is the path
    /// slew, so every IOPATH triplet must be the cell quantiles path
    /// analysis reports for that stage.
    #[test]
    fn iopath_triplets_are_the_analyzed_cell_quantiles() {
        let lib = lib();
        let timer = timer(&lib);
        let mut netlist = Netlist::new("chain");
        let mut net = netlist.add_input("a");
        for (k, (kind, strength)) in [
            (CellKind::Inv, 1),
            (CellKind::Buf, 2),
            (CellKind::Inv, 8),
            (CellKind::Inv, 1),
            (CellKind::Buf, 4),
            (CellKind::Inv, 2),
        ]
        .into_iter()
        .enumerate()
        {
            let cell = lib.find_kind(kind, strength).unwrap();
            net = netlist.add_gate(format!("u{k}"), cell, &[net]).1;
        }
        netlist.mark_output(net);
        let design =
            Design::with_generated_parasitics(Technology::synthetic_28nm(), lib, netlist, 5);
        let session = TimingSession::new(&timer, design, MergeRule::Pessimistic).unwrap();
        let (path, timing) = session.critical_path().unwrap();
        assert_eq!(path.len(), 6);

        let sdf = session.sdf();
        let iopaths: Vec<&str> = sdf.lines().filter(|l| l.contains("(IOPATH")).collect();
        let expected: Vec<String> = timing
            .stages
            .iter()
            .map(|st| format!("      (IOPATH A1 Y {})", triplet(&st.cell_quantiles)))
            .collect();
        assert_eq!(iopaths, expected);
    }
}
