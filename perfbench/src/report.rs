//! Run bookkeeping (operations attempted and failed, named checks,
//! metrics), the summary statistics every workload shares, and the host
//! facts each run records.

use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run. Each workload gives
/// the generic names its own meaning (see `perfbench/README.md`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("main_p50_us", "us"),
    ("main_tail_us", "us"),
    ("main_per_s", "1/s"),
    ("side_p50_us", "us"),
    ("heap_peak_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// never calls reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("variation.draw_us_per_trial", "us"),
    ("wire_sim.us_per_net", "us"),
    ("wire_sim.allocs_per_net", "count"),
    ("wire_sim.share_of_trial", "ratio"),
    ("cells.arc_ns", "ns"),
    ("yield.trial_us", "us"),
    ("yield.replay_trial_us", "us"),
    ("yield.propagate_us_per_trial", "us"),
    ("yield.allocs_per_trial", "count"),
    ("yield.thread_scaling", "ratio"),
    ("yield.prep_ms", "ms"),
    ("trace.overhead_us_per_trial", "us"),
    ("path_sim.trial_us", "us"),
    ("path_sim.stages", "count"),
    ("session.compile_ms", "ms"),
    ("session.analyze_cold_us", "us"),
    ("session.analyze_warm_us", "us"),
    ("session.worst_paths_us", "us"),
    ("session.resize_us", "us"),
    ("session.recompute_gates", "count"),
    ("sta.stage_miss_ns", "ns"),
    ("sta.stage_hit_ns", "ns"),
    ("sta.cache_hit_ratio", "ratio"),
    ("sta.cache_entries", "count"),
    ("cell_model.predict_ns", "ns"),
    ("cell_model.allocs_per_predict", "count"),
    ("protocol.parse_us", "us"),
    ("json.encode_us", "us"),
    ("engine.exec_us.worst_paths", "us"),
    ("engine.exec_us.quantile", "us"),
    ("engine.exec_us.analyze_path", "us"),
    ("engine.exec_us.eco_resize", "us"),
    ("engine.exec_us.yield_design", "us"),
    ("server.queue_transport_us", "us"),
    ("store.eco_wait_ms", "ms"),
    ("server.threads_peak", "count"),
    ("pool.rejected", "count"),
];

/// Percentiles a `_tail` metric may use, highest first.
const TAIL_PCTS: [f64; 7] = [99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;

/// One run's results.
pub struct Run {
    traced: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    detail: Vec<(String, String)>,
}

impl Run {
    pub fn new(traced: bool) -> Self {
        Self {
            traced,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            detail: Vec::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Counts operations; the failed ones count against `fail_ratio`.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// One named correctness check; a failed one is a failed operation.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.ops(1, u64::from(!ok));
        if !ok {
            eprintln!("perfbench: check failed: {name}");
        }
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Extra figure for the detail line (not a bounded metric).
    pub fn detail(&mut self, key: &str, value: impl std::fmt::Display) {
        self.detail.push((key.to_string(), value.to_string()));
    }

    /// Prints the detail line, then the result line (the last line of
    /// standard output).
    pub fn finish(mut self, workload: &str, seed: u64) {
        let failed_ops = self.failed;
        self.detail("fail_ratio", ratio(failed_ops, self.attempted));
        let mut detail = format!("{{\"workload\":\"{workload}\",\"seed\":{seed}");
        for (k, v) in &self.detail {
            let bare = v.parse::<f64>().is_ok_and(f64::is_finite) || v == "true" || v == "false";
            if bare {
                let _ = write!(detail, ",\"{k}\":{v}");
            } else {
                let _ = write!(detail, ",\"{k}\":\"{v}\"");
            }
        }
        detail.push('}');
        println!("perfbench-detail {detail}");

        let names: &[(&str, &str)] = if self.traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let found = self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1);
            // Per-layer metrics of layers this workload never calls read
            // 0; an end-to-end metric must always be measured.
            let value = match found {
                Some(v) if v.is_finite() => v,
                _ if self.traced && found.is_none() => 0.0,
                _ => {
                    eprintln!("perfbench: metric {name} missing or not finite");
                    self.failed += 1;
                    self.attempted += 1;
                    0.0
                }
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Median of unsorted samples (mean of the middle two for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Equal stretches a run's samples are cut into by [`grouped_p50`] and
/// [`best_rate`].
pub const STRETCHES: usize = 10;

/// Samples taken in order, cut into [`STRETCHES`] runs of equal count; the
/// lowest of their medians. A shared host slows the process for a second
/// or two at a time, so the least-disturbed stretch reads the program's
/// own speed, while a change to the program moves every stretch alike.
fn best_stretch_median(samples: &[f64]) -> f64 {
    let n = samples.len();
    let k = STRETCHES.min(n);
    (0..k)
        .map(|i| median(&samples[i * n / k..(i + 1) * n / k]))
        .fold(f64::INFINITY, f64::min)
}

/// Geometric mean over the non-empty groups of each group's
/// [`best_stretch_median`]. Each group holds the samples of one kind of
/// operation (one design, one endpoint) in the order they were taken, so a
/// figure over a mix of unlike costs never reads the edge between two of
/// them, and a change confined to one kind still moves it.
pub fn grouped_p50(groups: &[Vec<f64>]) -> f64 {
    let logs: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| best_stretch_median(g).ln())
        .collect();
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Operations per second in the best of [`STRETCHES`] equal stretches of
/// a run of `elapsed` seconds, from the time (seconds since the start)
/// each operation completed.
pub fn best_rate(done_at: &[f64], elapsed: f64) -> f64 {
    let width = elapsed / STRETCHES as f64;
    let mut counts = [0usize; STRETCHES];
    for &t in done_at {
        counts[((t / width) as usize).min(STRETCHES - 1)] += 1;
    }
    counts.iter().copied().max().unwrap_or(0) as f64 / width
}

/// The highest percentile in [`TAIL_PCTS`] that leaves at least
/// [`TAIL_BEYOND`] samples beyond it, and its nearest-rank value.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    for p in TAIL_PCTS {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if rank >= 1 && n - rank >= TAIL_BEYOND {
            return (p, s[rank - 1]);
        }
    }
    (50.0, median(samples))
}

/// Nearest-rank percentile `p` of unsorted samples.
fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s.get(rank.max(1) - 1).copied().unwrap_or(f64::NAN)
}

/// Samples taken in order, cut into `k` runs of equal count; the
/// percentile `p` of the run where it is lowest. A stall of the shared
/// host lands in the few samples a tail is made of, so one stall moves a
/// whole-run tail by its full length; here it takes a stall in every
/// stretch, while a slower program still raises every stretch's tail.
///
/// `p` is fixed by the caller rather than picked from the sample count as
/// [`tail`] does: a stretch holds more samples when the program is faster,
/// and a percentile that rose with them would read a faster program as a
/// longer tail.
pub fn best_stretch_tail(samples: &[f64], p: f64, k: usize) -> f64 {
    let n = samples.len();
    let k = k.min(n).max(1);
    (0..k)
        .map(|i| percentile(&samples[i * n / k..(i + 1) * n / k], p))
        .fold(f64::INFINITY, f64::min)
}

/// A field of `/proc/self/status` (the number before any unit).
pub fn proc_status(key: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Restarts the heap peak and VmHWM, so the peaks read later cover only
/// what follows. VmHWM is reset on a best-effort basis: a kernel without
/// `clear_refs` keeps the peak since process start.
pub fn reset_peaks() {
    crate::alloc::reset_peak();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The most heap live at once since [`reset_peaks`], in MB. Unlike VmHWM it
/// does not depend on how the system allocator spreads threads over its
/// arenas.
pub fn heap_peak_mb() -> f64 {
    crate::alloc::peak_bytes() as f64 / (1024.0 * 1024.0)
}

/// Peak resident set size (VmHWM) in MB.
pub fn rss_peak_mb() -> f64 {
    proc_status("VmHWM").map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPUs this process may run on; every thread and connection count of the
/// load is derived from it.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The checked-out commit, read from `.git` when the benchmark runs inside
/// a git checkout, else `unknown`.
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
