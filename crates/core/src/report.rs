//! Sign-off-style text timing reports — the `report_timing` view of the
//! N-sigma analysis.
//!
//! Each report walks a path stage by stage with cumulative arrivals at the
//! median and the ±3σ levels, ending with the sigma-level summary and (when
//! a clock period is given) the +3σ slack — the artifact a designer
//! actually reads.

use crate::session::TimingSession;
use crate::sta::{NsigmaTimer, PathTiming};
use nsigma_mc::design::Design;
use nsigma_netlist::topo::Path;
use nsigma_stats::quantile::SigmaLevel;
use std::borrow::Borrow;
use std::fmt::Write as _;

/// Renders one analyzed path as a text report.
///
/// # Examples
///
/// ```no_run
/// # use nsigma_cells::CellLibrary;
/// # use nsigma_core::report::report_path;
/// # use nsigma_core::session::TimingSession;
/// # use nsigma_core::sta::{NsigmaTimer, TimerConfig};
/// # use nsigma_core::stat_max::MergeRule;
/// # use nsigma_mc::design::Design;
/// # use nsigma_netlist::generators::arith::ripple_adder;
/// # use nsigma_netlist::mapping::map_to_cells;
/// # use nsigma_process::Technology;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let tech = Technology::synthetic_28nm();
/// # let lib = CellLibrary::standard();
/// # let design = Design::with_generated_parasitics(
/// #     tech.clone(), lib.clone(), map_to_cells(&ripple_adder(4), &lib)?, 1);
/// # let timer = NsigmaTimer::build(&tech, &lib, &TimerConfig::standard(1))?;
/// let session = TimingSession::new(&timer, design, MergeRule::Pessimistic)?;
/// let (path, timing) = session.critical_path().expect("path");
/// println!("{}", report_path(session.design(), &path, &timing, Some(2e-9)));
/// # Ok(())
/// # }
/// ```
pub fn report_path(
    design: &Design,
    path: &Path,
    timing: &PathTiming,
    clock_period: Option<f64>,
) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Startpoint: {} (primary input cone)",
        design.netlist.net(path.nets[0]).name
    )
    .expect("write");
    writeln!(
        out,
        "Endpoint:   {} (primary output)",
        design
            .netlist
            .net(*path.nets.last().expect("non-empty path"))
            .name
    )
    .expect("write");
    writeln!(out, "Path type:  max (late), N-sigma statistical\n").expect("write");
    writeln!(
        out,
        "{:<14}{:<10}{:>10}{:>11}{:>12}{:>12}",
        "instance", "cell", "slew(ps)", "delay(ps)", "cum 0σ(ps)", "cum +3σ(ps)"
    )
    .expect("write");
    out.push_str(&"-".repeat(69));
    out.push('\n');

    let mut cum0 = 0.0;
    let mut cum3 = 0.0;
    for stage in &timing.stages {
        let stage0 =
            stage.cell_quantiles[SigmaLevel::Zero] + stage.wire_quantiles[SigmaLevel::Zero];
        let stage3 = stage.cell_quantiles[SigmaLevel::PlusThree]
            + stage.wire_quantiles[SigmaLevel::PlusThree];
        cum0 += stage0;
        cum3 += stage3;
        writeln!(
            out,
            "{:<14}{:<10}{:>10.1}{:>11.1}{:>12.1}{:>12.1}",
            stage.gate,
            stage.cell,
            stage.input_slew * 1e12,
            stage0 * 1e12,
            cum0 * 1e12,
            cum3 * 1e12
        )
        .expect("write");
    }

    out.push_str(&"-".repeat(69));
    out.push('\n');
    writeln!(out, "\nsigma-level arrivals:").expect("write");
    for lvl in SigmaLevel::ALL {
        writeln!(out, "  T({lvl}) = {:>9.1} ps", timing.quantiles[lvl] * 1e12).expect("write");
    }
    if let Some(t) = clock_period {
        let slack = t - timing.quantiles[SigmaLevel::PlusThree];
        writeln!(
            out,
            "\nclock period {:.1} ps — +3σ slack {:+.1} ps ({})",
            t * 1e12,
            slack * 1e12,
            if slack >= 0.0 { "MET" } else { "VIOLATED" }
        )
        .expect("write");
    }
    out
}

/// Analyzes and reports the `k` worst paths of a session's design (worst
/// first), as `report_timing -nworst k` would.
///
/// Paths are ranked by the session's precompiled nominal stage weights,
/// then each is analyzed with the full N-sigma model. The ranking comes
/// from the session's held list, so repeated reports between edits rank
/// the design once.
pub fn report_worst_paths<B: Borrow<NsigmaTimer>>(
    session: &TimingSession<B>,
    k: usize,
    clock_period: Option<f64>,
) -> String {
    let design = session.design();
    let paths = session.worst_paths(k);

    let mut out = String::new();
    for (i, path) in paths.iter().enumerate() {
        // Ranked paths come from this design, so analysis cannot fail.
        let Ok(timing) = session.analyze_path(path) else {
            continue;
        };
        writeln!(
            out,
            "==== path {} of {} ({} stages) ====",
            i + 1,
            paths.len(),
            path.len()
        )
        .expect("write");
        out.push_str(&report_path(design, path, &timing, clock_period));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sta::TimerConfig;
    use nsigma_cells::cell::{Cell, CellKind};
    use nsigma_cells::CellLibrary;
    use nsigma_mc::path_sim::find_critical_path;
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
        let netlist = map_to_cells(&ripple_adder(6), &lib).unwrap();
        let design = Design::with_generated_parasitics(tech.clone(), lib.clone(), netlist, 5);
        let mut cfg = TimerConfig::standard(5);
        cfg.char_samples = 600;
        cfg.wire.nets = 1;
        cfg.wire.samples = 300;
        let timer = NsigmaTimer::build(&tech, &lib, &cfg).unwrap();
        (timer, design)
    }

    fn session(timer: &NsigmaTimer, design: Design) -> TimingSession<&NsigmaTimer> {
        TimingSession::new(timer, design, crate::stat_max::MergeRule::Pessimistic).unwrap()
    }

    #[test]
    fn single_path_report_is_complete() {
        let (timer, design) = setup();
        let path = find_critical_path(&design).unwrap();
        let s = session(&timer, design.clone());
        let timing = s.analyze_path(&path).unwrap();
        let report = report_path(&design, &path, &timing, Some(5e-9));
        assert!(report.contains("Startpoint:"));
        assert!(report.contains("Endpoint:"));
        assert!(
            report
                .lines()
                .filter(|l| l.contains("NAND2") || l.contains("XOR2"))
                .count()
                >= 2
        );
        assert!(report.contains("T(+3σ)"));
        assert!(report.contains("slack"));
        // A generous clock meets timing.
        assert!(report.contains("MET"));
    }

    #[test]
    fn violated_clock_is_flagged() {
        let (timer, design) = setup();
        let path = find_critical_path(&design).unwrap();
        let s = session(&timer, design.clone());
        let timing = s.analyze_path(&path).unwrap();
        let report = report_path(&design, &path, &timing, Some(1e-12));
        assert!(report.contains("VIOLATED"));
    }

    #[test]
    fn worst_paths_report_covers_k_paths() {
        let (timer, design) = setup();
        let s = session(&timer, design);
        let report = report_worst_paths(&s, 3, None);
        assert_eq!(report.matches("==== path").count(), 3);
        assert!(report.matches("Startpoint:").count() == 3);
    }
}
