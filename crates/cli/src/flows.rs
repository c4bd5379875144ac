//! The CLI's three flows as library functions (unit-testable without a
//! subprocess): characterize, analyze and golden-check.

use crate::args::{Args, ArgsError};
use nsigma_cells::liberty::write_liberty;
use nsigma_cells::CellLibrary;
use nsigma_core::report::{report_path, report_worst_paths};
use nsigma_core::sta::{characterize_library, NsigmaTimer, TimerConfig};
use nsigma_core::{read_coefficients, write_coefficients, MergeRule, QueryError, TimingSession};
use nsigma_interconnect::spef;
use nsigma_mc::design::Design;
use nsigma_mc::path_sim::{find_critical_path, simulate_path_mc, PathMcConfig};
use nsigma_netlist::verilog::parse_verilog;
use nsigma_process::Technology;
use nsigma_server::{json, yield_report_fields, Client, Server, ServerConfig};
use nsigma_stats::quantile::SigmaLevel;
use nsigma_yield::{YieldAnalysis, YieldConfig, YieldReport, DEFAULT_IS_SHIFT};

/// A flow error: argument, IO or domain problem, with a printable message.
#[derive(Debug)]
pub struct FlowError(pub String);

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FlowError {}

impl From<ArgsError> for FlowError {
    fn from(e: ArgsError) -> Self {
        FlowError(e.to_string())
    }
}

impl From<std::io::Error> for FlowError {
    fn from(e: std::io::Error) -> Self {
        FlowError(format!("io error: {e}"))
    }
}

impl From<QueryError> for FlowError {
    fn from(e: QueryError) -> Self {
        FlowError(format!("timing query: {e}"))
    }
}

fn err(msg: impl std::fmt::Display) -> FlowError {
    FlowError(msg.to_string())
}

/// `characterize`: build the library artifacts.
///
/// Options: `--coeff <out>` (required), `--lib <out.lib>`,
/// `--samples <n>` (default 5000), `--seed <n>`.
///
/// # Errors
///
/// Returns a [`FlowError`] on bad arguments, IO failure or a degenerate fit.
pub fn run_characterize(args: &Args) -> Result<String, FlowError> {
    let coeff_path = args.require("coeff")?;
    let samples = args.get_usize("samples", 5000)?;
    let seed = args.get_usize("seed", 1)? as u64;

    let tech = Technology::synthetic_28nm();
    let lib = CellLibrary::standard();
    let mut cfg = TimerConfig::standard(seed);
    cfg.char_samples = samples;
    // One characterization: the Liberty tables are the grids the
    // coefficients are fitted on.
    let cells = characterize_library(&tech, &lib, &cfg);
    let timer = NsigmaTimer::from_grids(&tech, &cells, &cfg).map_err(err)?;
    std::fs::write(coeff_path, write_coefficients(&timer))?;

    let mut summary = format!(
        "characterized {} cells at {samples} samples/point; wrote {coeff_path}",
        lib.len()
    );
    if let Some(lib_path) = args.get("lib") {
        std::fs::write(lib_path, write_liberty("nsigma28", &tech, &cells))?;
        summary.push_str(&format!("; wrote {lib_path}"));
    }
    Ok(summary)
}

/// Loads a design from `--verilog` (+ optional `--spef`), using the
/// coefficient file's technology.
fn load_design(args: &Args, tech: &Technology) -> Result<Design, FlowError> {
    let verilog_path = args.require("verilog")?;
    let text = std::fs::read_to_string(verilog_path)?;
    let lib = CellLibrary::standard();
    let netlist = parse_verilog(&text, &lib).map_err(err)?;
    let seed = args.get_usize("seed", 1)? as u64;
    let mut design = Design::with_generated_parasitics(tech.clone(), lib, netlist, seed);

    if let Some(spef_path) = args.get("spef") {
        let spef_text = std::fs::read_to_string(spef_path)?;
        let nets = spef::parse(&spef_text).map_err(err)?;
        for net in nets {
            let id = design
                .netlist
                .find_net(&net.name)
                .ok_or_else(|| err(format!("SPEF net '{}' not in the design", net.name)))?;
            let (sinks, fanout) = (net.tree.sinks().len(), design.netlist.fanout(id));
            if sinks != fanout {
                return Err(err(format!(
                    "SPEF net '{}' has {sinks} sink(s) but netlist fanout is {fanout}",
                    net.name
                )));
            }
            design.set_parasitic(id, net.tree);
        }
    }
    Ok(design)
}

/// `analyze`: N-sigma timing of a Verilog design.
///
/// Options: `--verilog <file>` and `--coeff <file>` (required),
/// `--spef <file>`, `--clock <ps>`, `--paths <k>` (default 1),
/// `--sdf <out>`, `--seed <n>`.
///
/// # Errors
///
/// Returns a [`FlowError`] on bad arguments, parse failures or IO errors.
pub fn run_analyze(args: &Args) -> Result<String, FlowError> {
    let coeff_path = args.require("coeff")?;
    let tech = Technology::synthetic_28nm();
    let coeff_text = std::fs::read_to_string(coeff_path)?;
    let timer = read_coefficients(&tech, &coeff_text).map_err(err)?;
    let design = load_design(args, &tech)?;

    let clock = match args.get("clock") {
        Some(_) => Some(args.get_f64("clock", 0.0)? * 1e-12),
        None => None,
    };
    let k = args.get_usize("paths", 1)?;

    // One session for every query below: critical path, k-worst ranking
    // and SDF export all run off the same compiled graph, and a design
    // referencing uncalibrated cells is rejected here with a typed error
    // instead of panicking mid-query.
    let session = TimingSession::new(&timer, design, MergeRule::Pessimistic)?;

    let mut out = String::new();
    if k <= 1 {
        let (path, timing) = session
            .critical_path()
            .ok_or_else(|| err("design has no combinational path"))?;
        out.push_str(&report_path(session.design(), &path, &timing, clock));
    } else {
        out.push_str(&report_worst_paths(&session, k, clock));
    }

    if let Some(sdf_path) = args.get("sdf") {
        std::fs::write(sdf_path, session.sdf())?;
        out.push_str(&format!("\nwrote SDF to {sdf_path}\n"));
    }
    Ok(out)
}

/// `mc`: golden Monte-Carlo check of the critical path.
///
/// Options: `--verilog <file>` (required), `--spef <file>`,
/// `--samples <n>` (default 5000), `--seed <n>`.
///
/// # Errors
///
/// Returns a [`FlowError`] on bad arguments or parse failures.
pub fn run_mc(args: &Args) -> Result<String, FlowError> {
    let tech = Technology::synthetic_28nm();
    let design = load_design(args, &tech)?;
    let samples = args.get_usize("samples", 5000)?;
    let seed = args.get_usize("seed", 7)? as u64;
    let path =
        find_critical_path(&design).ok_or_else(|| err("design has no combinational path"))?;
    let golden = simulate_path_mc(
        &design,
        &path,
        &PathMcConfig {
            samples,
            seed,
            input_slew: 10e-12,
        },
    );
    let mut out = format!(
        "golden MC on the critical path ({} stages, {samples} trials, {:.2?}):\n",
        path.len(),
        golden.elapsed
    );
    for lvl in SigmaLevel::ALL {
        out.push_str(&format!(
            "  T({lvl}) = {:9.1} ps\n",
            golden.quantiles[lvl] * 1e12
        ));
    }
    out.push_str(&format!(
        "  mean {:.1} ps, sigma {:.1} ps, skewness {:.2}, kurtosis {:.2}\n",
        golden.moments.mean * 1e12,
        golden.moments.std * 1e12,
        golden.moments.skewness,
        golden.moments.kurtosis
    ));
    Ok(out)
}

/// Loads a design from `--iscas <name>` (a built-in ISCAS85 benchmark
/// with generated parasitics) or, failing that, from `--verilog`
/// (+ optional `--spef`) like [`load_design`].
fn load_design_any(args: &Args, tech: &Technology) -> Result<Design, FlowError> {
    use nsigma_netlist::generators::random_dag::Iscas85;
    use nsigma_netlist::mapping::map_to_cells;

    let Some(name) = args.get("iscas") else {
        return load_design(args, tech);
    };
    let bench = Iscas85::ALL
        .into_iter()
        .find(|b| b.name() == name)
        .ok_or_else(|| err(format!("unknown ISCAS85 benchmark '{name}'")))?;
    let lib = CellLibrary::standard();
    let netlist = map_to_cells(&bench.generate(), &lib).map_err(err)?;
    let seed = args.get_usize("seed", 1)? as u64;
    Ok(Design::with_generated_parasitics(
        tech.clone(),
        lib,
        netlist,
        seed,
    ))
}

/// `yield`: Monte-Carlo timing yield of a design at a clock period,
/// scored against the analytic N-sigma model.
///
/// Options: `--coeff <file>` (required) plus a design from
/// `--iscas <name>` or `--verilog <file.v>` [`--spef <file.spef>`];
/// `--target-period <ps>` (default: the analytic +3σ quantile),
/// `--ci <half-width>` (default 0.005), `--samples <n>` (default 20000),
/// `--chunk <n>`, `--threads <n>` (0 = all cores), `--seed <n>`,
/// `--importance` (mean-shifted sampling of the slow tail), `--json`
/// (machine-readable report, stable for a fixed seed).
///
/// # Errors
///
/// Returns a [`FlowError`] on bad arguments, IO failure, or an
/// out-of-range sampling configuration.
pub fn run_yield(args: &Args) -> Result<String, FlowError> {
    let coeff_path = args.require("coeff")?;
    let tech = Technology::synthetic_28nm();
    let coeff_text = std::fs::read_to_string(coeff_path)?;
    let timer = read_coefficients(&tech, &coeff_text).map_err(err)?;
    let design = load_design_any(args, &tech)?;
    let session = TimingSession::new(&timer, design, MergeRule::Pessimistic)?;

    let samples = args.get_usize("samples", 20_000)?;
    let cfg = YieldConfig {
        target_period: match args.get("target-period") {
            Some(_) => Some(args.get_f64("target-period", 0.0)? * 1e-12),
            None => None,
        },
        ci_half_width: args.get_f64("ci", 0.005)?,
        max_samples: samples,
        chunk: args.get_usize("chunk", samples.clamp(1, 512))?,
        threads: args.get_usize("threads", 0)?,
        seed: args.get_usize("seed", 0x11E1D)? as u64,
        importance: args.flag("importance").then_some(DEFAULT_IS_SHIFT),
        ..YieldConfig::default()
    };
    let report = session.yield_analysis(&cfg)?;
    Ok(if args.flag("json") {
        json::write(&json::obj(yield_report_fields(&report)))
    } else {
        yield_text(&report)
    })
}

/// Renders a yield report for humans.
fn yield_text(r: &YieldReport) -> String {
    let mut out = format!(
        "timing yield at T = {:.1} ps ({} trials, {} thread(s), {:.2?}):\n",
        r.target_period * 1e12,
        r.samples,
        r.threads,
        r.elapsed
    );
    out.push_str(&format!(
        "  yield {:.5}  (95% CI [{:.5}, {:.5}], half-width {:.5}, {})\n",
        r.estimate.value,
        r.estimate.ci_lo,
        r.estimate.ci_hi,
        r.estimate.half_width(),
        if r.converged {
            "converged"
        } else {
            "sample cap"
        }
    ));
    if r.importance_shift > 0.0 {
        out.push_str(&format!(
            "  importance sampling: shift {:.1}σ, ESS {:.1}\n",
            r.importance_shift, r.ess
        ));
    }
    out.push_str(&format!(
        "  analytic model yield at T: {:.5}\n",
        r.analytic_yield
    ));
    out.push_str("  level   analytic (ps)   MC (ps)\n");
    for lvl in SigmaLevel::ALL {
        out.push_str(&format!(
            "  {lvl:>5}   {:13.1}   {:7.1}\n",
            r.analytic_quantiles[lvl] * 1e12,
            r.mc_quantiles[lvl] * 1e12
        ));
    }
    out.push_str("  yield-vs-period curve:\n");
    out.push_str("    period (ps)   analytic   MC [lo, hi]\n");
    for p in &r.curve {
        out.push_str(&format!(
            "    {:11.1}   {:8.5}   {:.5} [{:.5}, {:.5}]\n",
            p.period * 1e12,
            p.analytic_yield,
            p.mc.value,
            p.mc.ci_lo,
            p.mc.ci_hi
        ));
    }
    out
}

/// `lint`: static analysis of a design (and optionally a model) without
/// running any timing query.
///
/// Exactly one input selector: `--bench <file.bench>`,
/// `--verilog <file.v>` (with optional `--spef <file.spef>`),
/// `--iscas <name>`, or `--suite generated` (every built-in ISCAS85 and
/// arithmetic generator). With `--coeff <file>` the loaded model is also
/// linted and library coverage is checked. `--ndjson` switches the output
/// to newline-delimited JSON. `--seed N` seeds parasitic generation.
///
/// # Errors
///
/// Returns a [`FlowError`] on bad arguments or IO failure, and — so the
/// process exits nonzero — when any error-severity diagnostic is found.
pub fn run_lint(args: &Args) -> Result<String, FlowError> {
    use nsigma_netlist::generators::arith::{ripple_adder, ripple_subtractor};
    use nsigma_netlist::generators::arith_fast::cla_adder;
    use nsigma_netlist::generators::random_dag::Iscas85;
    use nsigma_netlist::logic::LogicCircuit;
    use nsigma_netlist::mapping::map_to_cells;

    let seed = args.get_usize("seed", 1)? as u64;
    let tech = Technology::synthetic_28nm();
    let lib = CellLibrary::standard();
    let timer = match args.get("coeff") {
        Some(path) => {
            let text = std::fs::read_to_string(path)?;
            Some(read_coefficients(&tech, &text).map_err(err)?)
        }
        None => None,
    };

    let mut report = nsigma_lint::LintReport::new();
    let mut targets = 0usize;

    // Builds the design for a logic circuit and runs the structural,
    // parasitic and (when a model is loaded) coverage passes.
    let lint_circuit = |circuit: &LogicCircuit, report: &mut nsigma_lint::LintReport| {
        let netlist = match map_to_cells(circuit, &lib) {
            Ok(n) => n,
            Err(e) => {
                // Mapping rejects what the structural lint already
                // explains (e.g. a cycle); keep its diagnostics instead.
                let mut r = nsigma_lint::lint_logic(circuit);
                if r.is_clean() {
                    r.push(
                        "NL006",
                        nsigma_lint::Severity::Error,
                        nsigma_lint::Location::Object(format!("circuit '{}'", circuit.name)),
                        format!("technology mapping failed: {e}"),
                    );
                }
                report.merge(r);
                return;
            }
        };
        let design = Design::with_generated_parasitics(tech.clone(), lib.clone(), netlist, seed);
        match &timer {
            Some(t) => report.merge(nsigma_lint::lint_design(&design, t)),
            None => {
                report.merge(nsigma_lint::lint_netlist(&design.netlist, &design.lib));
                report.merge(nsigma_lint::lint_parasitics(&design));
            }
        }
    };

    if let Some(bench_path) = args.get("bench") {
        let text = std::fs::read_to_string(bench_path)?;
        let (circuit, r) = nsigma_lint::lint_bench_text(bench_path, &text);
        targets += 1;
        if let Some(circuit) = circuit {
            if r.is_clean() {
                lint_circuit(&circuit, &mut report);
            }
        }
        report.merge(r);
    } else if let Some(name) = args.get("iscas") {
        let bench = Iscas85::ALL
            .into_iter()
            .find(|b| b.name() == name)
            .ok_or_else(|| err(format!("unknown ISCAS85 benchmark '{name}'")))?;
        targets += 1;
        lint_circuit(&bench.generate(), &mut report);
    } else if args.get("verilog").is_some() {
        let verilog_path = args.require("verilog")?;
        let text = std::fs::read_to_string(verilog_path)?;
        let netlist = parse_verilog(&text, &lib).map_err(err)?;
        targets += 1;
        report.merge(nsigma_lint::lint_netlist(&netlist, &lib));
        let mut design =
            Design::with_generated_parasitics(tech.clone(), lib.clone(), netlist, seed);
        if let Some(spef_path) = args.get("spef") {
            let spef_text = std::fs::read_to_string(spef_path)?;
            let (nets, r) = nsigma_lint::lint_spef_text(spef_path, &spef_text);
            report.merge(r);
            if let Some(nets) = nets {
                report.merge(nsigma_lint::lint_spef_vs_netlist(
                    &design.netlist,
                    &nets,
                    spef_path,
                ));
                for net in nets {
                    if let Some(id) = design.netlist.find_net(&net.name) {
                        if design.netlist.fanout(id) == net.tree.sinks().len() {
                            design.set_parasitic(id, net.tree);
                        }
                    }
                }
            }
        }
        report.merge(nsigma_lint::lint_parasitics(&design));
        if let Some(t) = &timer {
            report.merge(nsigma_lint::lint_coverage(&design, t));
        }
    } else if let Some(suite) = args.get("suite") {
        if suite != "generated" {
            return Err(err(format!("unknown suite '{suite}' (try 'generated')")));
        }
        for bench in Iscas85::ALL {
            targets += 1;
            lint_circuit(&bench.generate(), &mut report);
        }
        for circuit in [ripple_adder(8), ripple_subtractor(8), cla_adder(8)] {
            targets += 1;
            lint_circuit(&circuit, &mut report);
        }
    } else {
        return Err(err(
            "lint needs one of --bench, --verilog, --iscas or --suite generated",
        ));
    }

    if let Some(t) = &timer {
        report.merge(nsigma_lint::lint_model(t, Some(&lib)));
    }

    let rendered = if args.flag("ndjson") {
        report.render_ndjson()
    } else {
        let (e, w, i) = report.counts();
        format!(
            "{}linted {targets} target(s): {e} error(s), {w} warning(s), {i} info(s)",
            report
                .diagnostics
                .iter()
                .map(|d| format!("{d}\n"))
                .collect::<String>()
        )
    };
    if report.has_errors() {
        return Err(FlowError(format!("lint failed\n{rendered}")));
    }
    Ok(rendered)
}

/// `serve`: run the timing-query daemon until a client sends `shutdown`.
///
/// Options: `--port <n>` (default 7227; 0 picks an ephemeral port),
/// `--threads <n>` (requests executing at once, default 4), `--queue <n>`
/// (requests waiting for a slot, default 64; `threads + queue` caps open
/// connections), `--deadline-ms <n>` (longest wait for a slot, default
/// 5000), `--samples <n>` (default 3000),
/// `--seed <n>`, `--coeff <file>` (reload coefficients if the file
/// exists, else build once and write them there), `--no-lint` (register
/// designs without the lint gate).
///
/// # Errors
///
/// Returns a [`FlowError`] on bad arguments, bind failure, or a broken
/// coefficients file.
pub fn run_serve(args: &Args) -> Result<String, FlowError> {
    let port = args.get_usize("port", 7227)?;
    let samples = args.get_usize("samples", 3000)?;
    let seed = args.get_usize("seed", 1)? as u64;
    let mut timer_cfg = TimerConfig::standard(seed);
    timer_cfg.char_samples = samples;
    let cfg = ServerConfig {
        addr: format!("127.0.0.1:{port}"),
        threads: args.get_usize("threads", 4)?,
        queue_capacity: args.get_usize("queue", 64)?,
        deadline: std::time::Duration::from_millis(args.get_usize("deadline-ms", 5000)? as u64),
        timer: timer_cfg,
        coeff_path: args.get("coeff").map(std::path::PathBuf::from),
        lint_on_register: !args.flag("no-lint"),
    };
    let handle = Server::start(cfg)?;
    println!("nsigma-server listening on {}", handle.addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    handle.wait();
    Ok("server stopped".into())
}

/// `query`: send one protocol line to a running server and print the
/// response.
///
/// Options: `--port <n>` (required), `--host <addr>` (default
/// `127.0.0.1`), `--send <json-line>` (required).
///
/// # Errors
///
/// Returns a [`FlowError`] on bad arguments or connection failure.
pub fn run_query(args: &Args) -> Result<String, FlowError> {
    let host = args.get("host").unwrap_or("127.0.0.1").to_string();
    let port = args
        .require("port")?
        .parse::<u16>()
        .map_err(|_| err("option --port: not a port number"))?;
    let line = args.require("send")?;
    let mut client = Client::connect((host.as_str(), port))?;
    Ok(client.request_line(line)?)
}

/// Usage text.
pub fn usage() -> &'static str {
    "nsigma-sta — N-sigma statistical timing (Jin et al., DATE 2023 reproduction)

USAGE:
  nsigma-sta characterize --coeff <out.txt> [--lib <out.lib>] [--samples N] [--seed N]
  nsigma-sta analyze --verilog <file.v> --coeff <coeff.txt>
                     [--spef <file.spef>] [--clock <ps>] [--paths K]
                     [--sdf <out.sdf>] [--seed N]
  nsigma-sta mc --verilog <file.v> [--spef <file.spef>] [--samples N] [--seed N]
  nsigma-sta yield --coeff <coeff.txt> (--iscas <name> | --verilog <file.v> [--spef <file.spef>])
                   [--target-period <ps>] [--ci <half-width>] [--samples N] [--chunk N]
                   [--threads N] [--seed N] [--importance] [--json]
  nsigma-sta lint (--bench <file.bench> | --verilog <file.v> [--spef <file.spef>]
                   | --iscas <name> | --suite generated)
                  [--coeff <coeff.txt>] [--ndjson] [--seed N]
  nsigma-sta serve [--port N] [--threads N] [--queue N] [--deadline-ms N]
                   [--samples N] [--seed N] [--coeff <coeff.txt>] [--no-lint]
  nsigma-sta query --port N [--host ADDR] --send <json-request-line>

The synthetic 28 nm technology is built in; cells must come from the
standard library (INV/BUF/NAND2/NOR2/AOI2/OAI2/XOR2 at x1/x2/x4/x8).
`lint` exits nonzero when any error-severity diagnostic is found; the
code reference lives in the nsigma-lint crate docs and DESIGN.md.
`serve` speaks newline-delimited JSON; see the nsigma-server crate docs
for the request grammar. Each connection runs its own requests: at most
--threads execute at once and at most --queue wait for a slot; the next
request, or a connection past --threads + --queue, answers `overloaded`,
and a wait past --deadline-ms answers `deadline`."
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;
    use nsigma_netlist::generators::arith::ripple_adder;
    use nsigma_netlist::mapping::map_to_cells;
    use nsigma_netlist::verilog::write_verilog;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("nsigma-cli-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name).to_string_lossy().into_owned()
    }

    /// Writes `contents` to a private file, then renames it over `path`:
    /// tests run in parallel and share these fixtures, so a reader must
    /// never see a half-written file.
    fn write_atomically(path: &str, contents: String) {
        let private = format!(
            "{path}.{}.{:?}",
            std::process::id(),
            std::thread::current().id()
        );
        std::fs::write(&private, contents).unwrap();
        std::fs::rename(&private, path).unwrap();
    }

    fn argv(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(|t| t.to_string())).unwrap()
    }

    /// Builds a tiny coefficient file quickly (small custom library would
    /// not match the standard-cell names, so use the standard library with
    /// few samples).
    fn quick_coeff_file() -> String {
        let path = tmp("coeff.txt");
        if std::path::Path::new(&path).exists() {
            return path;
        }
        let tech = Technology::synthetic_28nm();
        let lib = CellLibrary::standard();
        let mut cfg = TimerConfig::standard(3);
        cfg.char_samples = 400;
        cfg.wire.nets = 1;
        cfg.wire.samples = 300;
        let timer = NsigmaTimer::build(&tech, &lib, &cfg).unwrap();
        write_atomically(&path, write_coefficients(&timer));
        path
    }

    fn quick_verilog_file() -> String {
        let path = tmp("adder.v");
        let lib = CellLibrary::standard();
        let nl = map_to_cells(&ripple_adder(4), &lib).unwrap();
        write_atomically(&path, write_verilog(&nl, &lib));
        path
    }

    #[test]
    fn analyze_flow_end_to_end() {
        let coeff = quick_coeff_file();
        let v = quick_verilog_file();
        let sdf = tmp("adder.sdf");
        let args = argv(&format!(
            "analyze --verilog {v} --coeff {coeff} --clock 3000 --sdf {sdf}"
        ));
        let report = run_analyze(&args).unwrap();
        assert!(report.contains("Startpoint:"));
        assert!(report.contains("T(+3σ)"));
        assert!(report.contains("slack"));
        let sdf_text = std::fs::read_to_string(&sdf).unwrap();
        assert!(sdf_text.starts_with("(DELAYFILE"));
    }

    #[test]
    fn analyze_multi_path() {
        let coeff = quick_coeff_file();
        let v = quick_verilog_file();
        let args = argv(&format!("analyze --verilog {v} --coeff {coeff} --paths 2"));
        let report = run_analyze(&args).unwrap();
        assert_eq!(report.matches("==== path").count(), 2);
    }

    #[test]
    fn mc_flow_reports_quantiles() {
        let v = quick_verilog_file();
        let args = argv(&format!("mc --verilog {v} --samples 300"));
        let out = run_mc(&args).unwrap();
        assert!(out.contains("T(+3σ)"));
        assert!(out.contains("skewness"));
    }

    #[test]
    fn yield_flow_json_is_seed_deterministic() {
        let coeff = quick_coeff_file();
        let args = argv(&format!(
            "yield --coeff {coeff} --iscas c432 --samples 400 --chunk 100 --ci 0.05 --seed 9 --json"
        ));
        let out = run_yield(&args).unwrap();
        for key in [
            "\"yield\":",
            "\"ci_lo\":",
            "\"ci_hi\":",
            "\"ci_half_width\":",
            "\"samples\":",
            "\"ess\":",
            "\"curve\":",
            "\"analytic_quantiles\":",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
        assert_eq!(out, run_yield(&args).unwrap(), "fixed seed must repeat");
    }

    #[test]
    fn yield_flow_human_report_with_importance() {
        let coeff = quick_coeff_file();
        let v = quick_verilog_file();
        let args = argv(&format!(
            "yield --coeff {coeff} --verilog {v} --samples 400 --chunk 100 --ci 0.05 --importance"
        ));
        let out = run_yield(&args).unwrap();
        assert!(out.contains("timing yield at T ="), "{out}");
        assert!(out.contains("ESS"), "{out}");
        assert!(out.contains("yield-vs-period curve"), "{out}");
    }

    #[test]
    fn yield_flow_rejects_bad_inputs() {
        let coeff = quick_coeff_file();
        let e =
            run_yield(&argv(&format!("yield --coeff {coeff} --iscas c432 --ci 0"))).unwrap_err();
        assert!(e.to_string().contains("ci_half_width"), "{e}");
        assert!(run_yield(&argv(&format!("yield --coeff {coeff} --iscas c17"))).is_err());
        assert!(run_yield(&argv("yield --iscas c432")).is_err()); // no --coeff
    }

    #[test]
    fn missing_files_are_reported() {
        let args = argv("analyze --verilog /nonexistent.v --coeff /nonexistent.txt");
        let e = run_analyze(&args).unwrap_err();
        assert!(e.to_string().contains("io error"));
        let args = argv("analyze");
        assert!(run_analyze(&args).is_err());
    }

    #[test]
    fn query_flow_round_trips_against_a_server() {
        // Reloading the test coefficients file skips recharacterization,
        // so the server starts in milliseconds.
        let coeff = quick_coeff_file();
        let cfg = ServerConfig {
            threads: 1,
            coeff_path: Some(coeff.into()),
            ..ServerConfig::default()
        };
        let handle = Server::start(cfg).unwrap();
        let port = handle.port().to_string();

        let args = argv_vec(vec![
            "query",
            "--port",
            &port,
            "--send",
            r#"{"cmd":"stats"}"#,
        ]);
        let out = run_query(&args).unwrap();
        assert!(out.contains(r#""ok":true"#), "{out}");
        assert!(out.contains(r#""uptime_s":"#), "{out}");

        let args = argv_vec(vec!["query", "--port", &port, "--send", "not json"]);
        let out = run_query(&args).unwrap();
        assert!(out.contains(r#""code":"bad_request""#), "{out}");

        handle.shutdown();
    }

    fn argv_vec(tokens: Vec<&str>) -> Args {
        Args::parse(tokens.into_iter().map(|t| t.to_string())).unwrap()
    }

    #[test]
    fn spef_override_is_consumed() {
        let coeff = quick_coeff_file();
        let v = quick_verilog_file();
        // Build a SPEF for one real net of the design.
        let tech = Technology::synthetic_28nm();
        let lib = CellLibrary::standard();
        let text = std::fs::read_to_string(&v).unwrap();
        let nl = parse_verilog(&text, &lib).unwrap();
        let design = Design::with_generated_parasitics(tech, lib, nl, 1);
        let net = design
            .netlist
            .net_ids()
            .find(|&n| design.parasitic(n).is_some())
            .unwrap();
        let spef_text = spef::write(&[spef::SpefNet {
            name: design.netlist.net(net).name.clone(),
            tree: design.parasitic(net).unwrap().clone(),
        }]);
        let spef_path = tmp("one_net.spef");
        std::fs::write(&spef_path, spef_text).unwrap();

        let args = argv(&format!(
            "analyze --verilog {v} --coeff {coeff} --spef {spef_path}"
        ));
        assert!(run_analyze(&args).is_ok());

        // A SPEF with an unknown net is rejected.
        let bad = spef::write(&[spef::SpefNet {
            name: "ghost_net".into(),
            tree: nsigma_interconnect::rctree::RcTree::new(1e-16),
        }]);
        let bad_path = tmp("bad.spef");
        std::fs::write(&bad_path, bad).unwrap();
        let args = argv(&format!(
            "analyze --verilog {v} --coeff {coeff} --spef {bad_path}"
        ));
        assert!(run_analyze(&args).is_err());

        // A SPEF net whose sinks disagree with the netlist fanout is an
        // error that names the net and both counts.
        let name = design.netlist.net(net).name.clone();
        let sinkless = spef::write(&[spef::SpefNet {
            name: name.clone(),
            tree: nsigma_interconnect::rctree::RcTree::new(1e-16),
        }]);
        let sinkless_path = tmp("sinkless.spef");
        std::fs::write(&sinkless_path, sinkless).unwrap();
        let args = argv(&format!(
            "analyze --verilog {v} --coeff {coeff} --spef {sinkless_path}"
        ));
        let e = run_analyze(&args).unwrap_err().to_string();
        let fanout = design.netlist.fanout(net);
        assert!(
            e.contains(&name) && e.contains(&format!("0 sink(s) but netlist fanout is {fanout}")),
            "{e}"
        );
    }

    #[test]
    fn zero_ohm_spef_segment_is_an_error_not_a_panic() {
        let coeff = quick_coeff_file();
        let v = quick_verilog_file();
        let lib = CellLibrary::standard();
        let text = std::fs::read_to_string(&v).unwrap();
        let nl = parse_verilog(&text, &lib).unwrap();
        let net = nl.net_ids().find(|&n| nl.fanout(n) == 1).unwrap();
        let spef_text = format!(
            "*SPEF-LITE 1\n*NET {}\n*N 0 -1 0 1e-16\n*N 1 0 0 2e-16\n*S 1\n*END\n",
            nl.net(net).name
        );
        let spef_path = tmp("zero_ohm.spef");
        std::fs::write(&spef_path, spef_text).unwrap();
        type Flow = fn(&Args) -> Result<String, FlowError>;
        let runs: [(&str, Flow); 3] = [
            ("analyze", run_analyze),
            ("mc", run_mc),
            ("yield", run_yield),
        ];
        for (cmd, run) in runs {
            let args = argv(&format!(
                "{cmd} --verilog {v} --coeff {coeff} --spef {spef_path}"
            ));
            let e = run(&args).unwrap_err().to_string();
            assert!(e.contains("line 4"), "{cmd}: {e}");
        }
        let args = argv(&format!("lint --verilog {v} --spef {spef_path}"));
        let e = run_lint(&args).unwrap_err().to_string();
        assert!(e.contains("RC001"), "{e}");
    }
}
