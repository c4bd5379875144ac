//! Interconnect-layer checks: RC-tree values and structure, SPEF-lite
//! sources, and consistency between a SPEF net list and the netlist it
//! annotates.

use crate::diagnostic::{LintReport, Location, Severity};
use nsigma_interconnect::rctree::RcTree;
use nsigma_interconnect::spef::{self, ParseSpefError, SpefNet};
use nsigma_mc::design::Design;
use nsigma_netlist::ir::Netlist;
use std::collections::{HashMap, HashSet};

/// Lints every RC tree attached to a design: finite non-negative values
/// and positive segment resistances (RC001), and sink-set agreement with
/// the netlist fanout (RC003).
pub fn lint_parasitics(design: &Design) -> LintReport {
    let mut report = LintReport::new();
    let name = design.netlist.name();
    for id in design.netlist.net_ids() {
        let net = design.netlist.net(id);
        let fanout = design.netlist.fanout(id);
        let prefix = format!("design '{}' / net '{}'", name, net.name);
        match design.parasitic(id) {
            None => {
                if fanout > 0 {
                    report.push(
                        "RC003",
                        Severity::Error,
                        Location::Object(prefix),
                        format!("net '{}' has {} load(s) but no RC tree", net.name, fanout),
                    );
                }
            }
            Some(tree) => {
                lint_tree(&mut report, &prefix, tree);
                if tree.sinks().len() != fanout {
                    report.push(
                        "RC003",
                        Severity::Error,
                        Location::Object(prefix),
                        format!(
                            "net '{}' RC tree has {} sink(s) but the netlist expects {}",
                            net.name,
                            tree.sinks().len(),
                            fanout
                        ),
                    );
                }
            }
        }
    }
    report
}

/// Value checks on one RC tree, reported under `prefix`: RC001 for a value
/// that is negative or not finite, or a non-root segment resistance that
/// is not positive (the transient divides by it). The structure needs no
/// check: `RcTree` only adds a node under an existing parent and only
/// marks existing nodes as sinks.
fn lint_tree(report: &mut LintReport, prefix: &str, tree: &RcTree) {
    for (i, (&r, &c)) in tree.res().iter().zip(tree.caps()).enumerate() {
        let r_ok = if i == 0 { r >= 0.0 } else { r > 0.0 };
        if !r.is_finite() || !c.is_finite() || !r_ok || c < 0.0 {
            report.push(
                "RC001",
                Severity::Error,
                Location::Object(format!("{prefix} / node {i}")),
                format!("node {i} has R={r:e} Ω, C={c:e} F"),
            );
        }
    }
}

/// Lints SPEF-lite text. Parse failures become located diagnostics;
/// success returns the parsed nets so callers can keep them.
pub fn lint_spef_text(file: &str, text: &str) -> (Option<Vec<SpefNet>>, LintReport) {
    let mut report = LintReport::new();
    match spef::parse(text) {
        Ok(nets) => {
            for net in &nets {
                lint_tree(
                    &mut report,
                    &format!("{file} / net '{}'", net.name),
                    &net.tree,
                );
            }
            (Some(nets), report)
        }
        Err(err) => {
            let code = match &err {
                ParseSpefError::BadValue(_) => "RC001",
                ParseSpefError::BadTopology(_) | ParseSpefError::UndeclaredNode(_) => "RC002",
                ParseSpefError::DuplicateNet(_, _) | ParseSpefError::DuplicateNode(_) => "RC004",
                ParseSpefError::MissingHeader
                | ParseSpefError::BadRecord(_)
                | ParseSpefError::UnexpectedEof => "RC005",
            };
            let location = match err.line() {
                Some(line) => Location::Source {
                    file: file.to_string(),
                    line,
                    column: None,
                },
                None => Location::Object(file.to_string()),
            };
            report.push(code, Severity::Error, location, err.to_string());
            (None, report)
        }
    }
}

/// Cross-checks parsed SPEF nets against the netlist they annotate: names
/// must exist, sink counts must match the netlist fanout, and no net may
/// be annotated twice.
pub fn lint_spef_vs_netlist(netlist: &Netlist, nets: &[SpefNet], file: &str) -> LintReport {
    let mut report = LintReport::new();
    let mut seen: HashSet<&str> = HashSet::new();
    let by_name: HashMap<&str, usize> = netlist
        .net_ids()
        .map(|id| (netlist.net(id).name.as_str(), netlist.fanout(id)))
        .collect();
    for net in nets {
        let loc = || Location::Object(format!("{file} / net '{}'", net.name));
        if !seen.insert(net.name.as_str()) {
            report.push(
                "RC004",
                Severity::Error,
                loc(),
                format!("net '{}' is annotated more than once", net.name),
            );
            continue;
        }
        match by_name.get(net.name.as_str()) {
            None => {
                report.push(
                    "RC003",
                    Severity::Error,
                    loc(),
                    format!(
                        "SPEF net '{}' does not exist in netlist '{}'",
                        net.name,
                        netlist.name()
                    ),
                );
            }
            Some(&fanout) => {
                if net.tree.sinks().len() != fanout {
                    report.push(
                        "RC003",
                        Severity::Error,
                        loc(),
                        format!(
                            "SPEF net '{}' has {} sink(s) but netlist fanout is {}",
                            net.name,
                            net.tree.sinks().len(),
                            fanout
                        ),
                    );
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::with_code;
    use nsigma_cells::CellLibrary;
    use nsigma_netlist::logic::{LogicCircuit, LogicGate, LogicOp};
    use nsigma_process::Technology;

    fn tiny_design() -> Design {
        let mut c = LogicCircuit::new("tiny");
        c.inputs = vec!["a".into(), "b".into()];
        c.outputs = vec!["y".into()];
        c.gates = vec![
            LogicGate {
                output: "t".into(),
                op: LogicOp::Nand,
                inputs: vec!["a".into(), "b".into()],
            },
            LogicGate {
                output: "y".into(),
                op: LogicOp::Not,
                inputs: vec!["t".into()],
            },
        ];
        let lib = CellLibrary::standard();
        let netlist = nsigma_netlist::mapping::map_to_cells(&c, &lib).unwrap();
        Design::with_generated_parasitics(Technology::synthetic_28nm(), lib, netlist, 7)
    }

    #[test]
    fn generated_parasitics_are_clean() {
        let r = lint_parasitics(&tiny_design());
        assert!(r.diagnostics.is_empty(), "{}", r.render_human());
    }

    #[test]
    fn detects_nan_parasitic_injected_through_scaling() {
        let design = tiny_design();
        let net = design
            .netlist
            .net_ids()
            .find(|&id| design.netlist.fanout(id) > 0 && design.parasitic(id).is_some())
            .unwrap();
        // `scaled_with` bypasses the constructor asserts, which is exactly
        // how a buggy scaling pass would smuggle NaN into an RC tree.
        let poisoned = design
            .parasitic(net)
            .unwrap()
            .scaled_with(|_, r| r * f64::NAN, |_, c| c);
        let mut r = LintReport::new();
        lint_tree(&mut r, "poisoned net", &poisoned);
        assert!(!with_code(&r, "RC001").is_empty(), "{}", r.render_human());
        assert!(r.has_errors());
    }

    #[test]
    fn detects_zero_ohm_segment() {
        let mut tree = RcTree::new(1e-16);
        let s = tree.add_node(RcTree::root(), 0.0, 1e-16);
        tree.mark_sink(s);
        let mut r = LintReport::new();
        lint_tree(&mut r, "net", &tree);
        assert_eq!(with_code(&r, "RC001").len(), 1, "{}", r.render_human());
    }

    #[test]
    fn detects_sink_count_mismatch_against_netlist() {
        let design = tiny_design();
        let netlist = &design.netlist;
        let annotated = netlist
            .net_ids()
            .find(|&id| netlist.fanout(id) == 1)
            .unwrap();
        let mut tree = RcTree::new(1e-16);
        let s1 = tree.add_node(RcTree::root(), 50.0, 1e-16);
        let s2 = tree.add_node(RcTree::root(), 60.0, 1e-16);
        tree.mark_sink(s1);
        tree.mark_sink(s2);
        let nets = vec![SpefNet {
            name: netlist.net(annotated).name.clone(),
            tree,
        }];
        let r = lint_spef_vs_netlist(netlist, &nets, "x.spef");
        assert_eq!(with_code(&r, "RC003").len(), 1);
        assert!(with_code(&r, "RC003")[0].message.contains("2 sink(s)"));
    }

    #[test]
    fn detects_unknown_spef_net() {
        let design = tiny_design();
        let mut tree = RcTree::new(1e-16);
        let s = tree.add_node(RcTree::root(), 50.0, 1e-16);
        tree.mark_sink(s);
        let nets = vec![SpefNet {
            name: "no_such_net".into(),
            tree,
        }];
        let r = lint_spef_vs_netlist(&design.netlist, &nets, "x.spef");
        assert!(with_code(&r, "RC003")[0].message.contains("no_such_net"));
    }

    #[test]
    fn spef_text_diagnostics_carry_codes_and_lines() {
        // RC004: duplicate net name.
        let dup = "*SPEF-LITE 1\n*NET x\n*N 0 -1 0 1e-16\n*END\n*NET x\n*N 0 -1 0 1e-16\n*END\n";
        let (nets, r) = lint_spef_text("d.spef", dup);
        assert!(nets.is_none());
        assert_eq!(r.diagnostics[0].code, "RC004");

        // RC001: negative resistance.
        let neg = "*SPEF-LITE 1\n*NET x\n*N 0 -1 0 1e-16\n*N 1 0 -5 1e-16\n*END\n";
        let (_, r) = lint_spef_text("d.spef", neg);
        assert_eq!(r.diagnostics[0].code, "RC001");
        assert_eq!(
            r.diagnostics[0].location,
            Location::Source {
                file: "d.spef".into(),
                line: 4,
                column: None,
            }
        );

        // RC001: a zero-ohm non-root segment.
        let zero = "*SPEF-LITE 1\n*NET x\n*N 0 -1 0 1e-16\n*N 1 0 0 1e-16\n*S 1\n*END\n";
        let (nets, r) = lint_spef_text("d.spef", zero);
        assert!(nets.is_none());
        assert_eq!(r.diagnostics[0].code, "RC001");

        // RC002: sink on an undeclared node.
        let orphan = "*SPEF-LITE 1\n*NET x\n*N 0 -1 0 1e-16\n*S 9\n*END\n";
        let (_, r) = lint_spef_text("d.spef", orphan);
        assert_eq!(r.diagnostics[0].code, "RC002");

        // RC005: malformed record.
        let garbage = "*SPEF-LITE 1\n*NET x\nwhat\n*END\n";
        let (_, r) = lint_spef_text("d.spef", garbage);
        assert_eq!(r.diagnostics[0].code, "RC005");

        // A valid file parses clean and returns the nets.
        let good = "*SPEF-LITE 1\n*NET x\n*N 0 -1 0 1e-16\n*N 1 0 50 1e-16\n*S 1\n*END\n";
        let (nets, r) = lint_spef_text("d.spef", good);
        assert_eq!(nets.unwrap().len(), 1);
        assert!(r.diagnostics.is_empty());
    }
}
