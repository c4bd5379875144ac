//! `nsigma-lint`: static analysis over the four inputs of the N-sigma
//! timing flow — netlists, parasitics, library coverage, and model /
//! coefficient stores — producing stable-coded [`Diagnostic`]s that the
//! CLI, the server, and CI can gate on before any expensive analysis runs.
//!
//! # Diagnostic codes
//!
//! | Code  | Severity | Meaning |
//! |-------|----------|---------|
//! | NL001 | error | combinational loop in the netlist |
//! | NL002 | error | a signal is read or exported but never driven |
//! | NL003 | error | a signal has more than one driver |
//! | NL004 | warn  | a signal or net drives nothing (floating) |
//! | NL005 | error | gate pin count disagrees with its library cell |
//! | NL006 | error | gate references a cell absent from the library |
//! | NL007 | error | malformed netlist source line |
//! | RC001 | error | negative or non-finite R/C value, or a zero-ohm segment |
//! | RC002 | error | disconnected or ill-formed RC-tree topology |
//! | RC003 | error | SPEF annotation disagrees with the netlist |
//! | RC004 | error | duplicate SPEF net or node definition |
//! | RC005 | error | malformed SPEF source |
//! | LB001 | error | referenced cell has no calibration |
//! | LB002 | warn  | operating point outside the characterized grid |
//! | CF001 | error | non-finite model coefficient |
//! | CF002 | error | quantile predictions are not monotone |
//! | CF003 | warn  | cell lacks a measured wire coefficient |
//!
//! # Examples
//!
//! ```
//! use nsigma_lint::lint_bench_text;
//!
//! let (_, report) =
//!     lint_bench_text("loop.bench", "INPUT(a)\nOUTPUT(y)\nt = NAND(a, y)\ny = NOT(t)\n");
//! assert_eq!(report.error_codes(), vec!["NL001"]);
//! ```

mod coverage;
pub mod diagnostic;
pub mod interconnect;
pub mod model;
pub mod netlist;

pub use coverage::lint_coverage;
pub use diagnostic::{Diagnostic, LintReport, Location, Severity};
pub use interconnect::{lint_parasitics, lint_spef_text, lint_spef_vs_netlist};
pub use model::lint_model;
pub use netlist::{lint_bench_text, lint_logic, lint_netlist};

use nsigma_core::sta::NsigmaTimer;
use nsigma_mc::design::Design;

/// Reference entry for one diagnostic code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeInfo {
    /// Stable code, e.g. `"NL001"`.
    pub code: &'static str,
    /// The severity the code is always reported at.
    pub severity: Severity,
    /// What the finding means.
    pub meaning: &'static str,
    /// How it is typically fixed.
    pub typical_fix: &'static str,
}

/// Every diagnostic code this crate can emit, in code order.
pub const CODES: &[CodeInfo] = &[
    CodeInfo {
        code: "CF001",
        severity: Severity::Error,
        meaning: "non-finite model coefficient",
        typical_fix: "rebuild the timer; the coefficient store is corrupt",
    },
    CodeInfo {
        code: "CF002",
        severity: Severity::Error,
        meaning: "quantile predictions are not monotone",
        typical_fix: "rebuild the timer; the quantile rows are corrupt",
    },
    CodeInfo {
        code: "CF003",
        severity: Severity::Warn,
        meaning: "cell lacks a measured wire coefficient",
        typical_fix: "re-run wire calibration over the full library",
    },
    CodeInfo {
        code: "LB001",
        severity: Severity::Error,
        meaning: "referenced cell has no calibration",
        typical_fix: "re-characterize with the full library",
    },
    CodeInfo {
        code: "LB002",
        severity: Severity::Warn,
        meaning: "operating point outside the characterized slew×load grid",
        typical_fix: "resize the driver or extend the characterization grid",
    },
    CodeInfo {
        code: "NL001",
        severity: Severity::Error,
        meaning: "combinational loop in the netlist",
        typical_fix: "break the cycle (the timing graph must be a DAG)",
    },
    CodeInfo {
        code: "NL002",
        severity: Severity::Error,
        meaning: "a signal is read or exported but never driven",
        typical_fix: "declare the missing INPUT or add the driving gate",
    },
    CodeInfo {
        code: "NL003",
        severity: Severity::Error,
        meaning: "a signal has more than one driver",
        typical_fix: "rename one of the colliding outputs",
    },
    CodeInfo {
        code: "NL004",
        severity: Severity::Warn,
        meaning: "a signal or net drives nothing (floating)",
        typical_fix: "remove the dead logic or export it as an output",
    },
    CodeInfo {
        code: "NL005",
        severity: Severity::Error,
        meaning: "gate pin count disagrees with its library cell",
        typical_fix: "map the gate to a cell with the right arity",
    },
    CodeInfo {
        code: "NL006",
        severity: Severity::Error,
        meaning: "gate references a cell absent from the library",
        typical_fix: "add the cell to the library or remap the gate",
    },
    CodeInfo {
        code: "NL007",
        severity: Severity::Error,
        meaning: "malformed netlist source line",
        typical_fix: "fix the syntax at the reported line/column",
    },
    CodeInfo {
        code: "RC001",
        severity: Severity::Error,
        meaning: "negative or non-finite R/C value, or a zero-ohm segment",
        typical_fix: "re-extract the parasitics; check unit scaling",
    },
    CodeInfo {
        code: "RC002",
        severity: Severity::Error,
        meaning: "disconnected or ill-formed RC-tree topology",
        typical_fix: "declare nodes before use, parents before children",
    },
    CodeInfo {
        code: "RC003",
        severity: Severity::Error,
        meaning: "SPEF annotation disagrees with the netlist",
        typical_fix: "regenerate the SPEF from the same netlist revision",
    },
    CodeInfo {
        code: "RC004",
        severity: Severity::Error,
        meaning: "duplicate SPEF net or node definition",
        typical_fix: "remove the duplicate record",
    },
    CodeInfo {
        code: "RC005",
        severity: Severity::Error,
        meaning: "malformed SPEF source",
        typical_fix: "fix the record syntax at the reported line",
    },
];

/// Looks up the reference entry for a code.
pub fn code_info(code: &str) -> Option<&'static CodeInfo> {
    CODES.iter().find(|c| c.code == code)
}

/// The full design-level lint: netlist structure, parasitics, and library
/// coverage against the given timer.
pub fn lint_design(design: &Design, timer: &NsigmaTimer) -> LintReport {
    let mut report = lint_netlist(&design.netlist, &design.lib);
    report.merge(lint_parasitics(design));
    report.merge(lint_coverage(design, timer));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_sorted_and_unique() {
        for w in CODES.windows(2) {
            assert!(w[0].code < w[1].code, "{} !< {}", w[0].code, w[1].code);
        }
    }

    #[test]
    fn code_info_lookup() {
        assert_eq!(code_info("NL001").unwrap().severity, Severity::Error);
        assert_eq!(code_info("LB002").unwrap().severity, Severity::Warn);
        assert!(code_info("ZZ999").is_none());
    }
}
