//! The coefficients file of the paper's Fig. 5: a look-up-table text format
//! persisting everything a built [`NsigmaTimer`] learned, so analysis runs
//! don't repeat characterization.
//!
//! Format (line-oriented, whitespace-separated, `#` comments):
//!
//! ```text
//! NSIGMA-COEFF 1
//! INPUT-SLEW 1e-11
//! QMODEL -3 <c0> <c1> <c2>
//! ...
//! QMODEL 3 <c0> <c1> <c2>
//! WIRE-XW <c0> <alpha> <beta>
//! WIRE-XWM <c0> <alpha> <beta>   (lower-tail variability)
//! WIRE-XWP <c0> <alpha> <beta>   (upper-tail variability)
//! WIRE-MEAN <m0> <m1> <m2>
//! WIRE-RFO4 <value>
//! CELL INVx1
//!   REF <s_ref> <c_ref> <mu> <sigma> <gamma> <kappa> <n> <outslew_ref>
//!   MU <p_s> <p_c> <k>
//!   SIGMA <p_s> <p_c> <k>
//!   GAMMA <p_s> <p_c> <q_s2> <q_c2> <r_s3> <r_c3> <k>
//!   KAPPA <...7 values...>
//!   OUTSLEW <p_s> <p_c> <k>
//! END
//! ```

use crate::calibration::MomentCalibration;
use crate::cell_model::CellQuantileModel;
use crate::sta::NsigmaTimer;
use crate::wire_model::WireVariabilityModel;
use nsigma_process::Technology;
use nsigma_stats::moments::Moments;
use nsigma_stats::quantile::SigmaLevel;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Error parsing a coefficients file.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseCoeffError {
    /// Missing or wrong header.
    MissingHeader,
    /// Malformed record; carries the 1-based line number.
    BadRecord(usize),
    /// A coefficient was NaN or infinite; carries the 1-based line number.
    NonFinite(usize),
    /// The loaded Table I rows do not order the seven sigma-level quantiles
    /// q(−3σ) ≤ … ≤ q(+3σ) ([`CellQuantileModel::rows_are_monotone`]);
    /// carries the probe they failed at.
    NonMonotone(String),
    /// A required section never appeared.
    MissingSection(&'static str),
}

impl std::fmt::Display for ParseCoeffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseCoeffError::MissingHeader => write!(f, "missing NSIGMA-COEFF header"),
            ParseCoeffError::BadRecord(l) => write!(f, "malformed coefficient record at line {l}"),
            ParseCoeffError::NonFinite(l) => {
                write!(f, "NaN or infinite coefficient at line {l}")
            }
            ParseCoeffError::NonMonotone(probe) => {
                write!(f, "quantile model is not monotone at {probe}")
            }
            ParseCoeffError::MissingSection(s) => write!(f, "missing section {s}"),
        }
    }
}

impl std::error::Error for ParseCoeffError {}

/// Serializes a timer's coefficients to the LUT text format.
pub fn write_coefficients(timer: &NsigmaTimer) -> String {
    let mut out = String::from("NSIGMA-COEFF 1\n");
    writeln!(out, "INPUT-SLEW {:e}", timer.input_slew()).expect("write");

    for level in SigmaLevel::ALL {
        write!(out, "QMODEL {}", level.n()).expect("write");
        for c in timer.quantile_model().coefficients(level) {
            write!(out, " {c:e}").expect("write");
        }
        out.push('\n');
    }

    let (xw, xwm, xwp, mean, rfo4) = timer.wire_model().to_raw();
    writeln!(
        out,
        "WIRE-XW {:e} {:e} {:e}\nWIRE-XWM {:e} {:e} {:e}\nWIRE-XWP {:e} {:e} {:e}\nWIRE-MEAN {:e} {:e} {:e}\nWIRE-RFO4 {:e}",
        xw[0], xw[1], xw[2], xwm[0], xwm[1], xwm[2], xwp[0], xwp[1], xwp[2],
        mean[0], mean[1], mean[2], rfo4
    )
    .expect("write");
    let mut measured: Vec<(&String, &f64)> =
        timer.wire_model().measured_coefficients().iter().collect();
    measured.sort_by(|a, b| a.0.cmp(b.0));
    for (name, x) in measured {
        writeln!(out, "WIRE-CELL {name} {x:e}").expect("write");
    }

    let mut names: Vec<&String> = timer.calibrations().keys().collect();
    names.sort();
    for name in names {
        let cal = &timer.calibrations()[name];
        let (mu, sigma, gamma, kappa, oslew, oref) = cal.to_raw();
        writeln!(out, "CELL {name}").expect("write");
        let r = &cal.reference;
        writeln!(
            out,
            "  REF {:e} {:e} {:e} {:e} {:e} {:e} {} {:e}",
            cal.s_ref, cal.c_ref, r.mean, r.std, r.skewness, r.kurtosis, r.n, oref
        )
        .expect("write");
        for (tag, v) in [
            ("MU", &mu),
            ("SIGMA", &sigma),
            ("GAMMA", &gamma),
            ("KAPPA", &kappa),
            ("OUTSLEW", &oslew),
        ] {
            write!(out, "  {tag}").expect("write");
            for c in v {
                write!(out, " {c:e}").expect("write");
            }
            out.push('\n');
        }
        out.push_str("END\n");
    }
    out
}

/// Parses a coefficients file back into a timer for the given technology.
///
/// # Errors
///
/// Returns [`ParseCoeffError`] on malformed input.
pub fn read_coefficients(tech: &Technology, text: &str) -> Result<NsigmaTimer, ParseCoeffError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, l)) if l.trim().starts_with("NSIGMA-COEFF") => {}
        _ => return Err(ParseCoeffError::MissingHeader),
    }

    let mut input_slew = None;
    let mut qcoeffs: [Option<Vec<f64>>; 7] = Default::default();
    let mut wire_xw = None;
    let mut wire_xwm = None;
    let mut wire_xwp = None;
    let mut wire_mean = None;
    let mut wire_rfo4 = None;
    let mut wire_cells: Vec<(String, f64)> = Vec::new();
    let mut calibrations: HashMap<String, MomentCalibration> = HashMap::new();

    let mut current_cell: Option<String> = None;
    let mut cell_fields: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut cell_ref: Option<(f64, f64, Moments, f64)> = None;

    for (lineno, raw) in lines {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let lineno = lineno + 1;
        let mut it = line.split_whitespace();
        let tag = it.next().ok_or(ParseCoeffError::BadRecord(lineno))?;
        let nums: Result<Vec<f64>, _> = it.clone().map(|s| s.parse::<f64>()).collect();
        if let Ok(v) = &nums {
            if v.iter().any(|x| !x.is_finite()) {
                return Err(ParseCoeffError::NonFinite(lineno));
            }
        }

        match tag {
            "INPUT-SLEW" => {
                input_slew = Some(one(&nums, lineno)?);
            }
            "QMODEL" => {
                let n = one(&nums, lineno)? as i32;
                let level = SigmaLevel::from_n(n).ok_or(ParseCoeffError::BadRecord(lineno))?;
                let vals = all(&nums, lineno, 1 + CellQuantileModel::term_count(level))?;
                qcoeffs[level.index()] = Some(vals[1..].to_vec());
            }
            "WIRE-XW" => wire_xw = Some(all(&nums, lineno, 3)?),
            "WIRE-XWM" => wire_xwm = Some(all(&nums, lineno, 3)?),
            "WIRE-XWP" => wire_xwp = Some(all(&nums, lineno, 3)?),
            "WIRE-MEAN" => wire_mean = Some(all(&nums, lineno, 3)?),
            "WIRE-RFO4" => wire_rfo4 = Some(one(&nums, lineno)?),
            "WIRE-CELL" => {
                let name = it
                    .next()
                    .ok_or(ParseCoeffError::BadRecord(lineno))?
                    .to_string();
                let x: f64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or(ParseCoeffError::BadRecord(lineno))?;
                if !x.is_finite() {
                    return Err(ParseCoeffError::NonFinite(lineno));
                }
                wire_cells.push((name, x));
            }
            "CELL" => {
                current_cell = Some(
                    it.next()
                        .ok_or(ParseCoeffError::BadRecord(lineno))?
                        .to_string(),
                );
                cell_fields.clear();
                cell_ref = None;
            }
            "REF" => {
                let v = all(&nums, lineno, 8)?;
                cell_ref = Some((
                    v[0],
                    v[1],
                    Moments {
                        mean: v[2],
                        std: v[3],
                        skewness: v[4],
                        kurtosis: v[5],
                        n: v[6] as usize,
                    },
                    v[7],
                ));
            }
            "MU" => {
                cell_fields.insert("MU", all(&nums, lineno, 3)?);
            }
            "SIGMA" => {
                cell_fields.insert("SIGMA", all(&nums, lineno, 3)?);
            }
            "GAMMA" => {
                cell_fields.insert("GAMMA", all(&nums, lineno, 7)?);
            }
            "KAPPA" => {
                cell_fields.insert("KAPPA", all(&nums, lineno, 7)?);
            }
            "OUTSLEW" => {
                cell_fields.insert("OUTSLEW", all(&nums, lineno, 3)?);
            }
            "END" => {
                let name = current_cell
                    .take()
                    .ok_or(ParseCoeffError::BadRecord(lineno))?;
                let (s_ref, c_ref, reference, oref) = cell_ref
                    .take()
                    .ok_or(ParseCoeffError::MissingSection("REF"))?;
                let mut take = |k: &'static str| {
                    cell_fields
                        .remove(k)
                        .ok_or(ParseCoeffError::MissingSection(k))
                };
                let cal = MomentCalibration::from_raw(
                    s_ref,
                    c_ref,
                    reference,
                    take("MU")?,
                    take("SIGMA")?,
                    take("GAMMA")?,
                    take("KAPPA")?,
                    take("OUTSLEW")?,
                    oref,
                );
                calibrations.insert(name, cal);
            }
            _ => return Err(ParseCoeffError::BadRecord(lineno)),
        }
    }

    let qcoeffs: Vec<Vec<f64>> = qcoeffs
        .into_iter()
        .map(|c| c.ok_or(ParseCoeffError::MissingSection("QMODEL")))
        .collect::<Result<_, _>>()?;
    let qarray: [Vec<f64>; 7] = qcoeffs
        .try_into()
        .map_err(|_| ParseCoeffError::MissingSection("QMODEL"))?;
    let quantile_model = CellQuantileModel::from_coefficients(qarray);

    // The model's predictions are monotone by construction (it sorts
    // them), so a corrupted row shows only in the raw Table I values.
    if !quantile_model.rows_are_monotone() {
        return Err(ParseCoeffError::NonMonotone("the canonical probe".into()));
    }

    let mut wire_model = WireVariabilityModel::from_raw(
        wire_xw.ok_or(ParseCoeffError::MissingSection("WIRE-XW"))?,
        wire_xwm.ok_or(ParseCoeffError::MissingSection("WIRE-XWM"))?,
        wire_xwp.ok_or(ParseCoeffError::MissingSection("WIRE-XWP"))?,
        wire_mean.ok_or(ParseCoeffError::MissingSection("WIRE-MEAN"))?,
        wire_rfo4.ok_or(ParseCoeffError::MissingSection("WIRE-RFO4"))?,
    );
    for (name, x) in wire_cells {
        wire_model.insert_measured(name, x);
    }
    Ok(NsigmaTimer::from_parts(
        tech.clone(),
        quantile_model,
        calibrations,
        wire_model,
        input_slew.ok_or(ParseCoeffError::MissingSection("INPUT-SLEW"))?,
    ))
}

fn one(
    nums: &Result<Vec<f64>, std::num::ParseFloatError>,
    lineno: usize,
) -> Result<f64, ParseCoeffError> {
    nums.as_ref()
        .ok()
        .and_then(|v| v.first().copied())
        .ok_or(ParseCoeffError::BadRecord(lineno))
}

fn all(
    nums: &Result<Vec<f64>, std::num::ParseFloatError>,
    lineno: usize,
    expect: usize,
) -> Result<Vec<f64>, ParseCoeffError> {
    match nums {
        Ok(v) if v.len() == expect => Ok(v.clone()),
        _ => Err(ParseCoeffError::BadRecord(lineno)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sta::TimerConfig;
    use nsigma_cells::cell::{Cell, CellKind};
    use nsigma_cells::CellLibrary;
    use nsigma_stats::moments::Moments;

    fn tiny_timer() -> (Technology, NsigmaTimer) {
        let tech = Technology::synthetic_28nm();
        let mut lib = CellLibrary::new();
        for s in [1, 4] {
            lib.add(Cell::new(CellKind::Inv, s));
        }
        let mut cfg = TimerConfig::standard(1);
        cfg.char_samples = 800;
        cfg.wire.nets = 1;
        cfg.wire.samples = 500;
        let timer = NsigmaTimer::build(&tech, &lib, &cfg).unwrap();
        (tech, timer)
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let (tech, timer) = tiny_timer();
        let text = write_coefficients(&timer);
        let restored = read_coefficients(&tech, &text).unwrap();

        // Quantile model agrees on a probe.
        let probe = Moments {
            mean: 20e-12,
            std: 3e-12,
            skewness: 0.8,
            kurtosis: 4.0,
            n: 1000,
        };
        let a = timer.quantile_model().predict(&probe);
        let b = restored.quantile_model().predict(&probe);
        for lvl in SigmaLevel::ALL {
            assert!(
                (a[lvl] - b[lvl]).abs() < 1e-15,
                "{lvl}: {} vs {}",
                a[lvl],
                b[lvl]
            );
        }
        // Calibrations agree at an off-reference point.
        let ca = &timer.calibrations()["INVx1"];
        let cb = &restored.calibrations()["INVx1"];
        let ma = ca.moments_at(80e-12, 2e-15);
        let mb = cb.moments_at(80e-12, 2e-15);
        assert!((ma.mean - mb.mean).abs() / ma.mean < 1e-9);
        assert!((ma.kurtosis - mb.kurtosis).abs() < 1e-9);
        // Wire model agrees.
        let d = Cell::new(CellKind::Inv, 1);
        let l = Cell::new(CellKind::Inv, 4);
        assert!(
            (timer.wire_model().predict_xw(&d, &l) - restored.wire_model().predict_xw(&d, &l))
                .abs()
                < 1e-12
        );
        assert_eq!(timer.input_slew(), restored.input_slew());
    }

    #[test]
    fn roundtrip_is_bit_exact_end_to_end() {
        // Coefficients are written with `{:e}` — Rust's shortest
        // round-trip form — so a restored timer must not merely be close:
        // a full path analysis has to agree to the last bit. This is what
        // lets a server restart from the coefficients file and keep
        // serving answers that compare `==` against the original build.
        let tech = Technology::synthetic_28nm();
        let lib = CellLibrary::standard();
        let mut cfg = TimerConfig::standard(9);
        cfg.char_samples = 300;
        cfg.wire.nets = 1;
        cfg.wire.samples = 200;
        let timer = NsigmaTimer::build(&tech, &lib, &cfg).unwrap();
        let restored = read_coefficients(&tech, &write_coefficients(&timer)).unwrap();

        let netlist = nsigma_netlist::mapping::map_to_cells(
            &nsigma_netlist::generators::arith::ripple_adder(6),
            &lib,
        )
        .unwrap();
        let design = nsigma_mc::design::Design::with_generated_parasitics(
            tech.clone(),
            lib.clone(),
            netlist,
            13,
        );
        let (path, original) = crate::reference::analyze_critical_path(&timer, &design).unwrap();
        let reloaded = crate::reference::analyze_path(&restored, &design, &path);
        for lvl in SigmaLevel::ALL {
            assert_eq!(
                original.quantiles[lvl].to_bits(),
                reloaded.quantiles[lvl].to_bits(),
                "{lvl} drifted through the coefficients file"
            );
        }
    }

    #[test]
    fn save_is_byte_stable_across_reload_cycles() {
        // Cell names and measured wire coefficients live in HashMaps;
        // the writer sorts both so the file bytes never depend on hash
        // iteration order. Writing the same timer twice, and writing a
        // timer reloaded from its own file, must produce identical bytes
        // — that is what makes the coefficients file diffable and lets
        // CI cache on its hash.
        let (tech, timer) = tiny_timer();
        let first = write_coefficients(&timer);
        assert_eq!(first, write_coefficients(&timer));

        let mut text = first;
        for cycle in 0..3 {
            let reloaded = read_coefficients(&tech, &text).unwrap();
            let again = write_coefficients(&reloaded);
            assert_eq!(text, again, "bytes drifted on reload cycle {cycle}");
            text = again;
        }
    }

    #[test]
    fn saved_cells_appear_in_sorted_order() {
        let (_, timer) = tiny_timer();
        let text = write_coefficients(&timer);
        let cells: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("CELL "))
            .collect();
        let mut sorted = cells.clone();
        sorted.sort_unstable();
        assert_eq!(cells, sorted, "CELL records must be name-sorted");
        let wires: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("WIRE-CELL "))
            .collect();
        let mut wsorted = wires.clone();
        wsorted.sort_unstable();
        assert_eq!(wires, wsorted, "WIRE-CELL records must be name-sorted");
    }

    #[test]
    fn rejects_missing_header() {
        let tech = Technology::synthetic_28nm();
        assert_eq!(
            read_coefficients(&tech, "whatever\n").unwrap_err(),
            ParseCoeffError::MissingHeader
        );
    }

    #[test]
    fn rejects_truncated_file() {
        let (tech, timer) = tiny_timer();
        let text = write_coefficients(&timer);
        let cut = &text[..text.len() / 3];
        assert!(read_coefficients(&tech, cut).is_err());
        // A QMODEL row one coefficient short (or long) is a typed error on
        // its line, not a term-count panic in the model constructor.
        let lineno = 1 + text
            .lines()
            .position(|l| l.starts_with("QMODEL 0 "))
            .expect("QMODEL 0 row");
        for extra in [None, Some("0e0")] {
            let edited: String = text
                .lines()
                .map(|l| {
                    if !l.starts_with("QMODEL 0 ") {
                        return format!("{l}\n");
                    }
                    let mut parts: Vec<&str> = l.split_whitespace().collect();
                    match extra {
                        Some(x) => parts.push(x),
                        None => {
                            parts.pop();
                        }
                    }
                    parts.join(" ") + "\n"
                })
                .collect();
            assert_eq!(
                read_coefficients(&tech, &edited).map(|_| ()),
                Err(ParseCoeffError::BadRecord(lineno)),
                "QMODEL 0 row edited with {extra:?}"
            );
        }
    }

    #[test]
    fn rejects_garbage_record() {
        let tech = Technology::synthetic_28nm();
        let text = "NSIGMA-COEFF 1\nBOGUS 1 2 3\n";
        assert!(matches!(
            read_coefficients(&tech, text),
            Err(ParseCoeffError::BadRecord(2))
        ));
    }

    #[test]
    fn rejects_non_finite_coefficients() {
        let (tech, timer) = tiny_timer();
        let text = write_coefficients(&timer);
        // Poison one QMODEL coefficient with NaN.
        let poisoned: String = text
            .lines()
            .map(|l| {
                if l.starts_with("QMODEL 0") {
                    let mut parts: Vec<&str> = l.split_whitespace().collect();
                    let n = parts.len();
                    parts[n - 1] = "NaN";
                    parts.join(" ") + "\n"
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        assert!(matches!(
            read_coefficients(&tech, &poisoned),
            Err(ParseCoeffError::NonFinite(_))
        ));
        // An infinite WIRE-CELL coefficient is rejected too.
        let inf = text.replace("WIRE-RFO4 ", "WIRE-CELL ghost inf\nWIRE-RFO4 ");
        assert!(matches!(
            read_coefficients(&tech, &inf),
            Err(ParseCoeffError::NonFinite(_))
        ));
    }

    #[test]
    fn rejects_non_monotone_quantile_rows() {
        let (tech, timer) = tiny_timer();
        let text = write_coefficients(&timer);
        // Crush the +3σ intercept: the σ-normalized residual then drags
        // q(+3σ) a thousand sigmas below q(−3σ), which the monotonicity
        // probe must catch.
        let poisoned: String = text
            .lines()
            .map(|l| {
                if l.starts_with("QMODEL 3 ") {
                    let mut parts: Vec<&str> = l.split_whitespace().collect();
                    parts[2] = "-1e3";
                    parts.join(" ") + "\n"
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        assert!(matches!(
            read_coefficients(&tech, &poisoned),
            Err(ParseCoeffError::NonMonotone(_))
        ));
    }
}
