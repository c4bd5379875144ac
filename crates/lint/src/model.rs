//! Model-layer checks on a built (or loaded) timer: every coefficient
//! must be finite (CF001), the Table I rows must order the quantiles
//! q(−3σ) ≤ … ≤ q(+3σ) at the canonical probe (CF002), and every library cell should carry a
//! measured wire coefficient rather than fall back to the analytic
//! Pelgrom value (CF003).

use crate::diagnostic::{LintReport, Location, Severity};
use nsigma_cells::CellLibrary;
use nsigma_core::sta::NsigmaTimer;
use nsigma_stats::quantile::SigmaLevel;

/// Lints a timer's learned models, optionally checking wire-coefficient
/// coverage of a library.
pub fn lint_model(timer: &NsigmaTimer, lib: Option<&CellLibrary>) -> LintReport {
    let mut report = LintReport::new();

    // CF001: input slew.
    let slew = timer.input_slew();
    if !slew.is_finite() || slew <= 0.0 {
        report.push(
            "CF001",
            Severity::Error,
            Location::Object("timer / input slew".into()),
            format!("input slew {slew:e} s is not a positive finite value"),
        );
    }

    // CF001: quantile-model coefficient rows.
    let mut rows_finite = true;
    for level in SigmaLevel::ALL {
        let coeffs = timer.quantile_model().coefficients(level);
        if coeffs.iter().any(|c| !c.is_finite()) {
            rows_finite = false;
            report.push(
                "CF001",
                Severity::Error,
                Location::Object(format!("timer / quantile model / {level} row")),
                format!("the {level} coefficient row contains a non-finite value"),
            );
        }
    }

    // CF001: wire-model coefficients.
    let (xw, xwm, xwp, mean, rfo4) = timer.wire_model().to_raw();
    let wire_ok = xw
        .iter()
        .chain(&xwm)
        .chain(&xwp)
        .chain(&mean)
        .chain(std::iter::once(&rfo4))
        .all(|c| c.is_finite());
    if !wire_ok {
        report.push(
            "CF001",
            Severity::Error,
            Location::Object("timer / wire model".into()),
            "the wire variability model contains a non-finite coefficient",
        );
    }
    let mut measured: Vec<(&String, &f64)> =
        timer.wire_model().measured_coefficients().iter().collect();
    measured.sort_by(|a, b| a.0.cmp(b.0));
    for (cell, x) in &measured {
        if !x.is_finite() {
            report.push(
                "CF001",
                Severity::Error,
                Location::Object(format!("timer / wire model / cell '{cell}'")),
                format!("measured wire coefficient of '{cell}' is {x:e}"),
            );
        }
    }

    // CF001 per calibration, in sorted order for determinism.
    let mut names: Vec<&String> = timer.calibrations().keys().collect();
    names.sort();
    for name in names {
        let cal = &timer.calibrations()[name];
        let (mu, sigma, gamma, kappa, oslew, oref) = cal.to_raw();
        let r = &cal.reference;
        let finite = mu
            .iter()
            .chain(&sigma)
            .chain(&gamma)
            .chain(&kappa)
            .chain(&oslew)
            .chain([&oref, &cal.s_ref, &cal.c_ref])
            .chain([&r.mean, &r.std, &r.skewness, &r.kurtosis])
            .all(|c| c.is_finite());
        if !finite {
            report.push(
                "CF001",
                Severity::Error,
                Location::Object(format!("timer / calibration '{name}'")),
                format!("calibration of '{name}' contains a non-finite coefficient"),
            );
        }
    }

    // CF002: predictions are monotone by construction (the model sorts
    // them), so a corrupted row shows only in the raw Table I values.
    if rows_finite && !timer.quantile_model().rows_are_monotone() {
        report.push(
            "CF002",
            Severity::Error,
            Location::Object("timer / quantile model".into()),
            "the Table I rows invert the quantiles at the canonical probe",
        );
    }

    // CF003: library cells without a measured X_FI/X_FO entry silently
    // fall back to the analytic coefficient — legal, but worth flagging.
    if let Some(lib) = lib {
        for (_, cell) in lib.iter() {
            if !timer
                .wire_model()
                .measured_coefficients()
                .contains_key(cell.name())
            {
                report.push(
                    "CF003",
                    Severity::Warn,
                    Location::Object(format!("timer / wire model / cell '{}'", cell.name())),
                    format!(
                        "cell '{}' has no measured wire coefficient; analysis \
                         falls back to the analytic value",
                        cell.name()
                    ),
                );
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::with_code;
    use nsigma_cells::cell::{Cell, CellKind};
    use nsigma_core::cell_model::CellQuantileModel;
    use nsigma_core::sta::TimerConfig;
    use nsigma_process::Technology;

    fn quick_timer() -> NsigmaTimer {
        let tech = Technology::synthetic_28nm();
        let mut lib = CellLibrary::new();
        for s in [1, 4] {
            lib.add(Cell::new(CellKind::Inv, s));
        }
        let mut cfg = TimerConfig::standard(5);
        cfg.char_samples = 400;
        cfg.wire.nets = 1;
        cfg.wire.samples = 300;
        NsigmaTimer::build(&tech, &lib, &cfg).unwrap()
    }

    #[test]
    fn healthy_timer_is_clean() {
        let timer = quick_timer();
        let mut lib = CellLibrary::new();
        for s in [1, 4] {
            lib.add(Cell::new(CellKind::Inv, s));
        }
        let r = lint_model(&timer, Some(&lib));
        assert!(r.diagnostics.is_empty(), "{}", r.render_human());
    }

    #[test]
    fn detects_non_finite_coefficient() {
        let timer = quick_timer();
        let mut rows: [Vec<f64>; 7] = std::array::from_fn(|i| {
            timer
                .quantile_model()
                .coefficients(SigmaLevel::ALL[i])
                .to_vec()
        });
        rows[3][0] = f64::NAN;
        let poisoned = NsigmaTimer::from_parts(
            Technology::synthetic_28nm(),
            CellQuantileModel::from_coefficients(rows),
            timer.calibrations().clone(),
            timer.wire_model().clone(),
            timer.input_slew(),
        );
        let r = lint_model(&poisoned, None);
        assert!(!with_code(&r, "CF001").is_empty(), "{}", r.render_human());
    }

    #[test]
    fn detects_non_monotone_quantiles() {
        let timer = quick_timer();
        let mut rows: [Vec<f64>; 7] = std::array::from_fn(|i| {
            timer
                .quantile_model()
                .coefficients(SigmaLevel::ALL[i])
                .to_vec()
        });
        // Crush the +3σ intercept: q(+3σ) drops a thousand sigmas below
        // q(−3σ).
        rows[6][0] = -1e3;
        let poisoned = NsigmaTimer::from_parts(
            Technology::synthetic_28nm(),
            CellQuantileModel::from_coefficients(rows),
            timer.calibrations().clone(),
            timer.wire_model().clone(),
            timer.input_slew(),
        );
        let r = lint_model(&poisoned, None);
        assert!(!with_code(&r, "CF002").is_empty(), "{}", r.render_human());
    }

    #[test]
    fn detects_missing_wire_coefficient() {
        let timer = quick_timer();
        // A library with a cell the wire model never measured.
        let mut bigger = CellLibrary::new();
        for s in [1, 4] {
            bigger.add(Cell::new(CellKind::Inv, s));
        }
        bigger.add(Cell::new(CellKind::Nand2, 2));
        let r = lint_model(&timer, Some(&bigger));
        let missing = with_code(&r, "CF003");
        assert_eq!(missing.len(), 1);
        assert!(missing[0].message.contains("NAND2x2"));
        assert_eq!(missing[0].severity, Severity::Warn);
        assert!(!r.has_errors());
    }
}
