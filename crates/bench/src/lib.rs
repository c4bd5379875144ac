//! # nsigma-bench
//!
//! The experiment harness: shared setup (benchmark designs, timer builds,
//! table rendering) used by the per-figure/per-table binaries that
//! regenerate every result of the paper's evaluation section.
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig2` | Fig. 2 — inverter delay PDFs, V_dd 0.5–0.8 V |
//! | `fig3` | Fig. 3 — skewness/kurtosis effect on the sigma levels |
//! | `fig4` | Fig. 4 — INVx1 moments vs input slew and output load |
//! | `table1` | Table I — fitted A/B quantile-model coefficients |
//! | `table2` | Table II — ±3σ cell errors: LSN vs Burr vs N-sigma |
//! | `fig7` | Fig. 7 — Elmore vs golden wire delay distribution |
//! | `fig8` | Fig. 8 — wire delay vs driver/load strength |
//! | `fig9` | Fig. 9 — X_FI/X_FO coefficient fit errors |
//! | `fig10` | Fig. 10 — ±3σ wire delay errors on random nets |
//! | `fig11` | Fig. 11 — per-wire +3σ on the c432 critical path |
//! | `table3` | Table III — path analysis on ISCAS85 + PULPino units |
//! | `ablation` | DESIGN.md §5 — term/calibration/wire ablations |
//! | `voltage_sweep` | extension — accuracy across V_dd 0.5–0.8 V |
//! | `yield_curve` | extension — timing yield + ±6σ Cornish–Fisher |
//! | `yield_load` | `BENCH_yield.json` — IS tail efficiency + thread scaling |
//! | `mc_convergence` | extension — ±3σ sampling noise vs sample count |
//! | `make_library` | artifact generator — `.lib` + coefficient file |

#![warn(missing_docs)]

use nsigma_cells::CellLibrary;
use nsigma_mc::design::Design;
use nsigma_netlist::generators::arith::{
    array_multiplier, restoring_divider, ripple_adder, ripple_subtractor,
};
use nsigma_netlist::generators::random_dag::Iscas85;
use nsigma_netlist::mapping::map_to_cells;
use nsigma_netlist::optimize::extract_complex_gates;
use nsigma_netlist::LogicCircuit;
use nsigma_process::Technology;

/// A named benchmark design of the Table III suite.
pub struct Benchmark {
    /// Row label (e.g. `c432`, `ADD`).
    pub name: String,
    /// The built design (netlist + parasitics + library + tech).
    pub design: Design,
}

/// Builds one benchmark design from a logic circuit: technology mapping,
/// AOI/OAI complex-gate extraction (so the Table II cell families appear in
/// the netlists, as in a synthesized design) and parasitic generation.
pub fn build_design(name: &str, logic: &LogicCircuit, seed: u64) -> Benchmark {
    let tech = Technology::synthetic_28nm();
    let lib = CellLibrary::standard();
    let mapped = map_to_cells(logic, &lib).expect("benchmark circuits map onto the library");
    let optimized = extract_complex_gates(&mapped, &lib)
        .expect("standard library has AOI/OAI cells")
        .netlist;
    Benchmark {
        name: name.to_string(),
        design: Design::with_generated_parasitics(tech, lib, optimized, seed),
    }
}

/// The eight ISCAS85-like benchmarks, sized to the paper's Table III counts.
pub fn iscas_suite() -> Vec<Benchmark> {
    Iscas85::ALL
        .iter()
        .map(|b| build_design(b.name(), &b.generate(), 0x15CA5 ^ b.config().seed))
        .collect()
}

/// The PULPino functional-unit substitutes (see DESIGN.md: clean datapaths
/// standing in for the DC-synthesized units).
fn pulpino_suite() -> Vec<Benchmark> {
    vec![
        build_design("ADD", &ripple_adder(64), 0xADD),
        build_design("SUB", &ripple_subtractor(64), 0x5B),
        build_design("MUL", &array_multiplier(24), 0x3B1),
        build_design("DIV", &restoring_divider(24), 0xD1F),
    ]
}

/// The full Table III suite: ISCAS85 then PULPino units.
pub fn full_suite() -> Vec<Benchmark> {
    let mut v = iscas_suite();
    v.extend(pulpino_suite());
    v
}

/// Formats seconds as picoseconds with one decimal.
pub fn ps(x: f64) -> String {
    format!("{:.1}", x * 1e12)
}

/// Formats seconds as nanoseconds with three decimals.
pub fn ns(x: f64) -> String {
    format!("{:.3}", x * 1e9)
}

/// Relative error in percent.
pub fn err_pct(model: f64, golden: f64) -> f64 {
    ((model - golden) / golden * 100.0).abs()
}

/// A minimal fixed-width table printer for the experiment binaries.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1.0".into()]);
        t.row(&["longer".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn suites_have_expected_sizes() {
        // Only build the small ISCAS members here to keep the test fast.
        let b = build_design("c432", &Iscas85::C432.generate(), 1);
        assert!(b.design.netlist.num_gates() >= 655);
        assert_eq!(b.name, "c432");
    }

    #[test]
    fn helpers_format() {
        assert_eq!(ps(1.5e-12), "1.5");
        assert_eq!(ns(1.5e-9), "1.500");
        assert!((err_pct(11.0, 10.0) - 10.0).abs() < 1e-12);
    }
}
