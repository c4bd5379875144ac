//! The benchmark of record for the nsigma workspace.
//!
//! ```text
//! perfbench --workload <golden_c432|analyze_eco|daemon_query|daemon_yield>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) records spans around the benchmark's calls into each
//! layer and prints the per-layer metrics. The last line of standard
//! output is the result object; the line before it (`perfbench-detail`)
//! records the host, seed, commit and the workload's named figures. See
//! `perfbench/README.md` for the workloads and the metric map.

mod alloc;
mod daemon;
mod eco;
mod golden;
mod probe;
mod report;
mod setup;
mod trace;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("option {flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? == 1),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let mut run = report::Run::new(args.trace);
    run.detail("host_cpus", report::host_cpus());
    run.detail("commit", report::commit());
    run.detail("seconds", args.seconds);
    match args.workload.as_str() {
        "golden_c432" => golden::run(args.seed, args.seconds, &mut run),
        "analyze_eco" => eco::run(args.seed, args.seconds, &mut run),
        "daemon_query" => daemon::run(daemon::Kind::Query, args.seed, args.seconds, &mut run),
        "daemon_yield" => daemon::run(daemon::Kind::Yield, args.seed, args.seconds, &mut run),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    }
    run.finish(&args.workload, args.seed);
}
