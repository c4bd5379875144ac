//! Liberty-subset (`.lib`) export of the characterized library.
//!
//! Real flows exchange characterized timing as Liberty with LVF
//! (`ocv_sigma_*`) extensions — the format the paper's §I names as the
//! industry's variation container. This module writes the characterized
//! moment grids in that shape: nominal `cell_rise`/`cell_fall` tables as the
//! mean delay, `ocv_sigma` tables as the standard deviation, plus the
//! higher-moment tables (`ocv_skewness`, `ocv_kurtosis`) the N-sigma model
//! consumes. The tests read the subset back to check the round trip.

use crate::cell::Cell;
use crate::characterize::{GridPoint, MomentGrid};
use nsigma_process::Technology;
use std::fmt::Write as _;

/// One cell's characterized data ready for Liberty export.
#[derive(Debug, Clone, PartialEq)]
pub struct LibertyCell {
    /// The library cell.
    pub cell: Cell,
    /// Its characterized moment grid.
    pub grid: MomentGrid,
}

/// Writes a Liberty-subset library.
///
/// Times are exported in nanoseconds and capacitances in picofarads, the
/// conventional Liberty units.
///
/// # Examples
///
/// ```
/// use nsigma_cells::cell::{Cell, CellKind};
/// use nsigma_cells::characterize::{characterize_cell, CharacterizeConfig};
/// use nsigma_cells::liberty::{write_liberty, LibertyCell};
/// use nsigma_process::Technology;
///
/// let tech = Technology::synthetic_28nm();
/// let cell = Cell::new(CellKind::Inv, 1);
/// let cfg = CharacterizeConfig {
///     slews: vec![10e-12, 50e-12],
///     loads: vec![0.4e-15, 2e-15],
///     samples: 300,
///     seed: 1,
/// };
/// let grid = characterize_cell(&tech, &cell, &cfg);
/// let text = write_liberty("demo", &tech, &[LibertyCell { cell, grid }]);
/// assert!(text.contains("library (demo)"));
/// assert!(text.contains("ocv_sigma_cell_rise"));
/// ```
pub fn write_liberty(name: &str, tech: &Technology, cells: &[LibertyCell]) -> String {
    let mut out = String::new();
    writeln!(out, "library ({name}) {{").expect("write");
    writeln!(
        out,
        "  /* generated by nsigma — Liberty subset with LVF moments */"
    )
    .expect("write");
    writeln!(out, "  time_unit : \"1ns\";").expect("write");
    writeln!(out, "  capacitive_load_unit (1, pf);").expect("write");
    writeln!(out, "  nom_voltage : {};", tech.vdd).expect("write");
    writeln!(out, "  nom_temperature : {:.2};", tech.temperature - 273.15).expect("write");

    for lc in cells {
        write_cell(&mut out, tech, lc);
    }
    out.push_str("}\n");
    out
}

fn write_cell(out: &mut String, tech: &Technology, lc: &LibertyCell) {
    let cell = &lc.cell;
    let grid = &lc.grid;
    writeln!(out, "  cell ({}) {{", cell.name()).expect("write");
    writeln!(out, "    area : {:.3};", cell.strength() as f64 * 0.5).expect("write");
    for pin in 0..cell.kind().num_inputs() {
        writeln!(out, "    pin (A{}) {{", pin + 1).expect("write");
        writeln!(out, "      direction : input;").expect("write");
        writeln!(
            out,
            "      capacitance : {:.6};",
            cell.input_cap(tech) * 1e12
        )
        .expect("write");
        out.push_str("    }\n");
    }
    writeln!(out, "    pin (Y) {{").expect("write");
    writeln!(out, "      direction : output;").expect("write");
    writeln!(out, "      timing () {{").expect("write");
    writeln!(out, "        related_pin : \"A1\";").expect("write");

    let index1: Vec<String> = grid
        .slews
        .iter()
        .map(|s| format!("{:.6}", s * 1e9))
        .collect();
    let index2: Vec<String> = grid
        .loads
        .iter()
        .map(|c| format!("{:.6}", c * 1e12))
        .collect();
    for (tag, f) in [
        ("cell_rise", pick_mean as fn(&GridPoint) -> f64),
        ("ocv_sigma_cell_rise", pick_std),
        ("ocv_skewness_cell_rise", pick_skew),
        ("ocv_kurtosis_cell_rise", pick_kurt),
        ("rise_transition", pick_slew),
    ] {
        write_table(out, tag, &index1, &index2, grid, f);
    }
    out.push_str("      }\n    }\n  }\n");
}

fn pick_mean(p: &GridPoint) -> f64 {
    p.moments.mean * 1e9
}
fn pick_std(p: &GridPoint) -> f64 {
    p.moments.std * 1e9
}
fn pick_skew(p: &GridPoint) -> f64 {
    p.moments.skewness
}
fn pick_kurt(p: &GridPoint) -> f64 {
    p.moments.kurtosis
}
fn pick_slew(p: &GridPoint) -> f64 {
    p.mean_output_slew * 1e9
}

fn write_table(
    out: &mut String,
    tag: &str,
    index1: &[String],
    index2: &[String],
    grid: &MomentGrid,
    f: fn(&GridPoint) -> f64,
) {
    writeln!(out, "        {tag} (delay_template) {{").expect("write");
    writeln!(out, "          index_1 (\"{}\");", index1.join(", ")).expect("write");
    writeln!(out, "          index_2 (\"{}\");", index2.join(", ")).expect("write");
    out.push_str("          values ( \\\n");
    for i in 0..grid.slews.len() {
        let row: Vec<String> = (0..grid.loads.len())
            .map(|j| format!("{:.6}", f(grid.at(i, j))))
            .collect();
        let sep = if i + 1 == grid.slews.len() { " )" } else { "," };
        writeln!(out, "            \"{}\"{sep} \\", row.join(", ")).expect("write");
    }
    out.push_str("          ;\n        }\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use crate::characterize::{characterize_cell, CharacterizeConfig};
    use std::collections::HashMap;

    // The reader of the subset `write_liberty` emits: the round-trip oracle.

    /// Error parsing the Liberty subset.
    #[derive(Debug, Clone, PartialEq)]
    enum ParseLibertyError {
        /// Missing `library (` header.
        MissingHeader,
        /// A table had inconsistent dimensions; carries the cell name.
        BadTable(String),
    }

    /// A parsed Liberty table set for one cell: the four moment surfaces and
    /// the output transition.
    #[derive(Debug, Clone, PartialEq)]
    struct LibertyTables {
        /// Input-slew axis (s).
        slews: Vec<f64>,
        /// Load axis (F).
        loads: Vec<f64>,
        /// Mean delay (s), row-major slews × loads.
        mean: Vec<f64>,
        /// Sigma (s).
        sigma: Vec<f64>,
        /// Skewness (unitless).
        skewness: Vec<f64>,
        /// Kurtosis (unitless).
        kurtosis: Vec<f64>,
        /// Mean output transition (s).
        transition: Vec<f64>,
    }

    /// One parsed lookup table: the two axis vectors plus the values.
    type TableAxes = (Vec<f64>, Vec<f64>, Vec<f64>);

    /// Parses the subset this module writes: returns the moment tables per cell.
    fn parse_liberty(text: &str) -> Result<HashMap<String, LibertyTables>, ParseLibertyError> {
        if !text.contains("library (") {
            return Err(ParseLibertyError::MissingHeader);
        }
        let mut cells = HashMap::new();
        let mut current: Option<String> = None;
        let mut tables: HashMap<String, TableAxes> = HashMap::new();
        let mut pending: Option<(String, TableAxes)> = None;

        for line in text.lines() {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("cell (") {
                if let Some(name) = current.take() {
                    finish_cell(&mut cells, &name, &tables)?;
                    tables.clear();
                }
                current = rest.split(')').next().map(|s| s.trim().to_string());
            } else if let Some(rest) = line.strip_prefix("index_1 (\"") {
                if let Some(p) = pending.as_mut() {
                    p.1 .0 = parse_list(rest);
                }
            } else if let Some(rest) = line.strip_prefix("index_2 (\"") {
                if let Some(p) = pending.as_mut() {
                    p.1 .1 = parse_list(rest);
                }
            } else if line.starts_with('"') {
                if let Some(p) = pending.as_mut() {
                    p.1 .2.extend(parse_list(line.trim_start_matches('"')));
                }
            } else if line.ends_with("(delay_template) {") {
                let tag = line.split_whitespace().next().unwrap_or("").to_string();
                pending = Some((tag, (Vec::new(), Vec::new(), Vec::new())));
            } else if line == "}" {
                if let Some((tag, axes)) = pending.take() {
                    tables.insert(tag, axes);
                }
            }
        }
        if let Some(name) = current.take() {
            finish_cell(&mut cells, &name, &tables)?;
        }
        Ok(cells)
    }

    fn parse_list(s: &str) -> Vec<f64> {
        s.trim_end_matches(['\\', ' ', ';', ')', '"', ','])
            .trim_end_matches("\");")
            .split(',')
            .filter_map(|t| t.trim().trim_matches('"').parse::<f64>().ok())
            .collect()
    }

    fn finish_cell(
        cells: &mut HashMap<String, LibertyTables>,
        name: &str,
        tables: &HashMap<String, TableAxes>,
    ) -> Result<(), ParseLibertyError> {
        let get = |tag: &str| {
            tables
                .get(tag)
                .cloned()
                .ok_or_else(|| ParseLibertyError::BadTable(name.to_string()))
        };
        let (i1, i2, mean) = get("cell_rise")?;
        let (_, _, sigma) = get("ocv_sigma_cell_rise")?;
        let (_, _, skewness) = get("ocv_skewness_cell_rise")?;
        let (_, _, kurtosis) = get("ocv_kurtosis_cell_rise")?;
        let (_, _, transition) = get("rise_transition")?;
        let n = i1.len() * i2.len();
        if mean.len() != n
            || sigma.len() != n
            || skewness.len() != n
            || kurtosis.len() != n
            || transition.len() != n
        {
            return Err(ParseLibertyError::BadTable(name.to_string()));
        }
        cells.insert(
            name.to_string(),
            LibertyTables {
                slews: i1.iter().map(|x| x * 1e-9).collect(),
                loads: i2.iter().map(|x| x * 1e-12).collect(),
                mean: mean.iter().map(|x| x * 1e-9).collect(),
                sigma: sigma.iter().map(|x| x * 1e-9).collect(),
                skewness,
                kurtosis,
                transition: transition.iter().map(|x| x * 1e-9).collect(),
            },
        );
        Ok(())
    }

    fn sample() -> (Technology, Vec<LibertyCell>) {
        let tech = Technology::synthetic_28nm();
        let cfg = CharacterizeConfig {
            slews: vec![10e-12, 50e-12, 100e-12],
            loads: vec![0.4e-15, 1e-15],
            samples: 400,
            seed: 7,
        };
        let cells = [Cell::new(CellKind::Inv, 1), Cell::new(CellKind::Nand2, 2)]
            .into_iter()
            .map(|cell| {
                let grid = characterize_cell(&tech, &cell, &cfg);
                LibertyCell { cell, grid }
            })
            .collect();
        (tech, cells)
    }

    #[test]
    fn writes_all_lvf_sections() {
        let (tech, cells) = sample();
        let text = write_liberty("nsigma28", &tech, &cells);
        for needle in [
            "library (nsigma28)",
            "cell (INVx1)",
            "cell (NAND2x2)",
            "cell_rise (delay_template)",
            "ocv_sigma_cell_rise",
            "ocv_skewness_cell_rise",
            "ocv_kurtosis_cell_rise",
            "rise_transition",
            "capacitance",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn round_trip_preserves_moment_tables() {
        let (tech, cells) = sample();
        let text = write_liberty("nsigma28", &tech, &cells);
        let parsed = parse_liberty(&text).expect("parses back");
        assert_eq!(parsed.len(), 2);
        let inv = &parsed["INVx1"];
        let grid = &cells[0].grid;
        assert_eq!(inv.slews.len(), grid.slews.len());
        assert_eq!(inv.loads.len(), grid.loads.len());
        for (i, &s) in grid.slews.iter().enumerate() {
            assert!((inv.slews[i] - s).abs() < 1e-18);
        }
        for i in 0..grid.slews.len() {
            for j in 0..grid.loads.len() {
                let k = i * grid.loads.len() + j;
                let p = grid.at(i, j);
                assert!(
                    (inv.mean[k] - p.moments.mean).abs() < 2e-15,
                    "mean at ({i},{j}): {} vs {}",
                    inv.mean[k],
                    p.moments.mean
                );
                assert!((inv.sigma[k] - p.moments.std).abs() < 2e-15);
                assert!((inv.skewness[k] - p.moments.skewness).abs() < 1e-5);
                assert!((inv.kurtosis[k] - p.moments.kurtosis).abs() < 1e-5);
                assert!((inv.transition[k] - p.mean_output_slew).abs() < 2e-15);
            }
        }
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            parse_liberty("not liberty at all"),
            Err(ParseLibertyError::MissingHeader)
        );
    }
}
