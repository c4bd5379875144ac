//! Netlist-layer checks: combinational loops, undriven / multi-driven /
//! floating signals, pin-count mismatches, and unmapped gates — on both
//! the pre-mapping [`LogicCircuit`] and the mapped gate-level [`Netlist`].

use crate::diagnostic::{LintReport, Location, Severity};
use nsigma_cells::CellLibrary;
use nsigma_netlist::bench_format::{self, ParseBenchError};
use nsigma_netlist::ir::{NetDriver, Netlist};
use nsigma_netlist::logic::LogicCircuit;
use std::collections::{HashMap, HashSet};

/// Lints a logic circuit using object-path locations.
pub fn lint_logic(circuit: &LogicCircuit) -> LintReport {
    lint_logic_at(circuit, |_| None)
}

/// Lints a logic circuit; `locate` may map a signal name to a source
/// location (used when the circuit came from a `.bench` file), falling
/// back to an object path inside the circuit.
fn lint_logic_at(circuit: &LogicCircuit, locate: impl Fn(&str) -> Option<Location>) -> LintReport {
    let mut report = LintReport::new();
    let loc = |sig: &str| {
        locate(sig).unwrap_or_else(|| {
            Location::Object(format!("circuit '{}' / signal '{}'", circuit.name, sig))
        })
    };

    // Driver census: primary inputs and gate outputs each drive a signal.
    let mut driver_count: HashMap<&str, usize> = HashMap::new();
    for i in &circuit.inputs {
        *driver_count.entry(i.as_str()).or_insert(0) += 1;
    }
    for g in &circuit.gates {
        *driver_count.entry(g.output.as_str()).or_insert(0) += 1;
    }

    // NL003: multi-driven signals — iterate declaration order so the
    // report is deterministic, announcing each offender once.
    let mut reported: HashSet<&str> = HashSet::new();
    for sig in circuit
        .inputs
        .iter()
        .chain(circuit.gates.iter().map(|g| &g.output))
    {
        if driver_count[sig.as_str()] > 1 && reported.insert(sig) {
            report.push(
                "NL003",
                Severity::Error,
                loc(sig),
                format!(
                    "signal '{}' has {} drivers",
                    sig,
                    driver_count[sig.as_str()]
                ),
            );
        }
    }

    // NL002: references to signals nothing drives.
    let mut undriven_reported: HashSet<&str> = HashSet::new();
    for g in &circuit.gates {
        for i in &g.inputs {
            if !driver_count.contains_key(i.as_str()) && undriven_reported.insert(i) {
                report.push(
                    "NL002",
                    Severity::Error,
                    loc(i),
                    format!("gate '{}' reads undriven signal '{}'", g.output, i),
                );
            }
        }
    }
    for o in &circuit.outputs {
        if !driver_count.contains_key(o.as_str()) && undriven_reported.insert(o) {
            report.push(
                "NL002",
                Severity::Error,
                loc(o),
                format!("primary output '{o}' is undriven"),
            );
        }
    }

    // NL004: signals nobody consumes.
    let mut used: HashSet<&str> = circuit.outputs.iter().map(|s| s.as_str()).collect();
    for g in &circuit.gates {
        used.extend(g.inputs.iter().map(|s| s.as_str()));
    }
    for i in &circuit.inputs {
        if !used.contains(i.as_str()) {
            report.push(
                "NL004",
                Severity::Warn,
                loc(i),
                format!("primary input '{i}' drives nothing"),
            );
        }
    }
    for g in &circuit.gates {
        if !used.contains(g.output.as_str()) {
            report.push(
                "NL004",
                Severity::Warn,
                loc(&g.output),
                format!("gate output '{}' is floating", g.output),
            );
        }
    }

    // NL001: combinational loops, via Kahn's algorithm over gates. A gate
    // waits for every gate-produced signal it reads; whatever never
    // becomes ready sits in (or downstream of) a cycle.
    let produced_by: HashMap<&str, usize> = circuit
        .gates
        .iter()
        .enumerate()
        .map(|(i, g)| (g.output.as_str(), i))
        .collect();
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); circuit.gates.len()];
    let mut indegree: Vec<usize> = vec![0; circuit.gates.len()];
    for (i, g) in circuit.gates.iter().enumerate() {
        for input in &g.inputs {
            if let Some(&p) = produced_by.get(input.as_str()) {
                consumers[p].push(i);
                indegree[i] += 1;
            }
        }
    }
    let mut queue: Vec<usize> = (0..circuit.gates.len())
        .filter(|&i| indegree[i] == 0)
        .collect();
    let mut done = 0;
    while let Some(p) = queue.pop() {
        done += 1;
        for &c in &consumers[p] {
            indegree[c] -= 1;
            if indegree[c] == 0 {
                queue.push(c);
            }
        }
    }
    if done < circuit.gates.len() {
        let stuck: Vec<&str> = circuit
            .gates
            .iter()
            .enumerate()
            .filter(|(i, _)| indegree[*i] > 0)
            .map(|(_, g)| g.output.as_str())
            .collect();
        let shown = stuck[..stuck.len().min(8)].join("', '");
        report.push(
            "NL001",
            Severity::Error,
            loc(stuck[0]),
            format!(
                "combinational loop involving {} gate(s): '{shown}'",
                stuck.len()
            ),
        );
    }

    report
}

/// Lints `.bench` text: parse failures become located diagnostics, and a
/// successfully parsed circuit goes through the [`lint_logic`] checks with
/// file/line locations reconstructed from the source.
///
/// Returns the parsed circuit (when parsing succeeded) alongside the
/// report, so callers can continue the flow without re-parsing.
pub fn lint_bench_text(file: &str, text: &str) -> (Option<LogicCircuit>, LintReport) {
    let mut report = LintReport::new();
    let circuit = match bench_format::parse(file, text) {
        Ok(c) => c,
        Err(err) => {
            let (line, column) = err.position();
            let code = match &err {
                ParseBenchError::BadLine { .. } => "NL007",
                ParseBenchError::UnsupportedGate { .. } => "NL006",
                ParseBenchError::UndefinedSignal { .. } => "NL002",
            };
            report.push(
                code,
                Severity::Error,
                Location::Source {
                    file: file.to_string(),
                    line,
                    column: Some(column),
                },
                err.to_string(),
            );
            return (None, report);
        }
    };

    // Map each defined signal back to the line that declared it, so
    // structural findings point into the file instead of at the object.
    let mut declared_at: HashMap<String, (usize, usize)> = HashMap::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        let sig = if let Some(rest) = line.strip_prefix("INPUT(") {
            rest.strip_suffix(')').map(str::trim)
        } else if line.starts_with("OUTPUT(") {
            None
        } else {
            line.split_once('=').map(|(lhs, _)| lhs.trim())
        };
        if let Some(sig) = sig.filter(|s| !s.is_empty()) {
            declared_at
                .entry(sig.to_string())
                .or_insert((lineno + 1, column_of(raw, sig)));
        }
    }
    report.merge(lint_logic_at(&circuit, |sig| {
        declared_at
            .get(sig)
            .map(|&(line, column)| Location::Source {
                file: file.to_string(),
                line,
                column: Some(column),
            })
    }));
    (Some(circuit), report)
}

/// Lints a mapped gate-level netlist against its cell library.
pub fn lint_netlist(netlist: &Netlist, lib: &CellLibrary) -> LintReport {
    let mut report = LintReport::new();
    let gate_loc =
        |name: &str| Location::Object(format!("netlist '{}' / gate '{}'", netlist.name(), name));
    let net_loc =
        |name: &str| Location::Object(format!("netlist '{}' / net '{}'", netlist.name(), name));

    // NL006 / NL005: every gate must reference a library cell and connect
    // exactly that cell's pin count.
    for g in netlist.gates() {
        if g.cell.index() >= lib.len() {
            report.push(
                "NL006",
                Severity::Error,
                gate_loc(&g.name),
                format!(
                    "gate '{}' references cell id {} outside the library ({} cells)",
                    g.name,
                    g.cell.index(),
                    lib.len()
                ),
            );
            continue;
        }
        let cell = lib.cell(g.cell);
        let want = cell.kind().num_inputs();
        if g.inputs.len() != want {
            report.push(
                "NL005",
                Severity::Error,
                gate_loc(&g.name),
                format!(
                    "gate '{}' connects {} input pin(s) but cell {} has {}",
                    g.name,
                    g.inputs.len(),
                    cell.name(),
                    want
                ),
            );
        }
    }

    // NL004: nets driving no loads that are not primary outputs.
    let outputs: HashSet<usize> = netlist.outputs().iter().map(|n| n.index()).collect();
    for id in netlist.net_ids() {
        if netlist.fanout(id) == 0 && !outputs.contains(&id.index()) {
            let net = netlist.net(id);
            report.push(
                "NL004",
                Severity::Warn,
                net_loc(&net.name),
                format!(
                    "net '{}' drives no loads and is not a primary output",
                    net.name
                ),
            );
        }
    }

    // NL001: combinational loops over the mapped gate graph.
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); netlist.num_gates()];
    let mut indegree: Vec<usize> = vec![0; netlist.num_gates()];
    for (i, g) in netlist.gates().iter().enumerate() {
        for &input in &g.inputs {
            if let NetDriver::Gate(p) = netlist.net(input).driver {
                consumers[p.index()].push(i);
                indegree[i] += 1;
            }
        }
    }
    let mut queue: Vec<usize> = (0..netlist.num_gates())
        .filter(|&i| indegree[i] == 0)
        .collect();
    let mut done = 0;
    while let Some(p) = queue.pop() {
        done += 1;
        for &c in &consumers[p] {
            indegree[c] -= 1;
            if indegree[c] == 0 {
                queue.push(c);
            }
        }
    }
    if done < netlist.num_gates() {
        let stuck: Vec<&str> = netlist
            .gates()
            .iter()
            .enumerate()
            .filter(|(i, _)| indegree[*i] > 0)
            .map(|(_, g)| g.name.as_str())
            .collect();
        let shown = stuck[..stuck.len().min(8)].join("', '");
        report.push(
            "NL001",
            Severity::Error,
            gate_loc(stuck[0]),
            format!(
                "combinational loop involving {} gate(s): '{shown}'",
                stuck.len()
            ),
        );
    }

    report
}

/// 1-based column of `token` in `raw`, preferring word-boundary matches.
pub(crate) fn column_of(raw: &str, token: &str) -> usize {
    if token.is_empty() {
        return 1;
    }
    let is_word = |c: char| c.is_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(rel) = raw[from..].find(token) {
        let start = from + rel;
        let end = start + token.len();
        let before_ok = start == 0 || !is_word(raw[..start].chars().next_back().unwrap_or(' '));
        let after_ok = end >= raw.len() || !is_word(raw[end..].chars().next().unwrap_or(' '));
        if before_ok && after_ok {
            return start + 1;
        }
        from = end;
    }
    raw.find(token).map(|i| i + 1).unwrap_or(1)
}

/// The diagnostics of `report` whose code equals `code`.
#[cfg(test)]
pub(crate) fn with_code<'a>(
    report: &'a LintReport,
    code: &str,
) -> Vec<&'a crate::diagnostic::Diagnostic> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.code == code)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsigma_netlist::logic::{LogicGate, LogicOp};

    fn gate(output: &str, op: LogicOp, inputs: &[&str]) -> LogicGate {
        LogicGate {
            output: output.into(),
            op,
            inputs: inputs.iter().map(|s| s.to_string()).collect(),
        }
    }

    fn healthy() -> LogicCircuit {
        let mut c = LogicCircuit::new("ok");
        c.inputs = vec!["a".into(), "b".into()];
        c.outputs = vec!["y".into()];
        c.gates = vec![
            gate("t", LogicOp::Nand, &["a", "b"]),
            gate("y", LogicOp::Not, &["t"]),
        ];
        c
    }

    #[test]
    fn healthy_circuit_is_clean() {
        let r = lint_logic(&healthy());
        assert!(r.diagnostics.is_empty(), "{}", r.render_human());
    }

    #[test]
    fn detects_combinational_loop() {
        let mut c = healthy();
        // t feeds y feeds t: a two-gate loop.
        c.gates[0].inputs = vec!["a".into(), "y".into()];
        let r = lint_logic(&c);
        let loops = with_code(&r, "NL001");
        assert_eq!(loops.len(), 1);
        assert!(loops[0].message.contains("2 gate(s)"));
        assert!(r.has_errors());
    }

    #[test]
    fn detects_undriven_signal() {
        let mut c = healthy();
        c.gates[0].inputs = vec!["a".into(), "ghost".into()];
        let r = lint_logic(&c);
        assert_eq!(with_code(&r, "NL002").len(), 1);
        assert!(with_code(&r, "NL002")[0].message.contains("ghost"));
    }

    #[test]
    fn detects_undriven_output() {
        let mut c = healthy();
        c.outputs.push("phantom".into());
        let r = lint_logic(&c);
        assert!(with_code(&r, "NL002")[0].message.contains("phantom"));
    }

    #[test]
    fn detects_multi_driven_signal() {
        let mut c = healthy();
        c.gates.push(gate("t", LogicOp::Or, &["a", "b"]));
        let r = lint_logic(&c);
        let multi = with_code(&r, "NL003");
        assert_eq!(multi.len(), 1);
        assert!(multi[0].message.contains("'t' has 2 drivers"));
    }

    #[test]
    fn detects_floating_gate_output() {
        let mut c = healthy();
        c.gates.push(gate("orphan", LogicOp::Buf, &["a"]));
        let r = lint_logic(&c);
        let floating = with_code(&r, "NL004");
        assert_eq!(floating.len(), 1);
        assert_eq!(floating[0].severity, Severity::Warn);
        assert!(!r.has_errors());
    }

    #[test]
    fn detects_unused_primary_input() {
        let mut c = healthy();
        c.inputs.push("spare".into());
        let r = lint_logic(&c);
        assert!(with_code(&r, "NL004")[0].message.contains("spare"));
    }

    #[test]
    fn bench_lint_locates_loop_in_source() {
        let text = "INPUT(a)\nOUTPUT(y)\nt = NAND(a, y)\ny = NOT(t)\n";
        let (circuit, r) = lint_bench_text("loop.bench", text);
        assert!(circuit.is_some());
        let loops = with_code(&r, "NL001");
        assert_eq!(loops.len(), 1);
        match &loops[0].location {
            Location::Source { file, line, column } => {
                assert_eq!(file, "loop.bench");
                assert!(*line == 3 || *line == 4);
                assert_eq!(*column, Some(1));
            }
            other => panic!("expected source location, got {other:?}"),
        }
    }

    #[test]
    fn bench_lint_reports_parse_errors_with_position() {
        let (circuit, r) = lint_bench_text("bad.bench", "INPUT(a)\nq = DFF(a)\n");
        assert!(circuit.is_none());
        let d = &r.diagnostics[0];
        assert_eq!(d.code, "NL006");
        assert_eq!(
            d.location,
            Location::Source {
                file: "bad.bench".into(),
                line: 2,
                column: Some(5),
            }
        );
    }

    #[test]
    fn mapped_netlist_of_healthy_circuit_is_clean() {
        let lib = CellLibrary::standard();
        let netlist = nsigma_netlist::mapping::map_to_cells(&healthy(), &lib).unwrap();
        let r = lint_netlist(&netlist, &lib);
        assert!(r.is_clean(), "{}", r.render_human());
    }

    #[test]
    fn detects_unmapped_gate_and_pin_mismatch() {
        let lib = CellLibrary::standard();
        let netlist = nsigma_netlist::mapping::map_to_cells(&healthy(), &lib).unwrap();

        // NL006: lint against a library smaller than the one the netlist
        // was mapped with, so some cell ids fall outside it.
        let mut small = CellLibrary::new();
        small.add(nsigma_cells::cell::Cell::new(
            nsigma_cells::cell::CellKind::Inv,
            1,
        ));
        let r = lint_netlist(&netlist, &small);
        assert!(!with_code(&r, "NL006").is_empty(), "{}", r.render_human());

        // NL005: swap a 2-input gate's cell for an inverter.
        let mut mismatched = netlist.clone();
        let two_input = mismatched
            .gate_ids()
            .find(|&g| mismatched.gate(g).inputs.len() == 2)
            .unwrap();
        mismatched.set_gate_cell(two_input, lib.find("INVx1").unwrap());
        let r = lint_netlist(&mismatched, &lib);
        assert_eq!(with_code(&r, "NL005").len(), 1);
    }
}
