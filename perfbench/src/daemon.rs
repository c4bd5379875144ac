//! `daemon_query` and `daemon_yield`: an in-process `Server::start` with
//! one worker per host CPU and the coefficients reloaded from a file,
//! driven by a closed loop with one connection per host CPU.
//!
//! * `daemon_query` registers c432 and c6288 and sends the seeded mix
//!   ([`MIX`]): 70 % `worst_paths` (k 1–3), 10 % `quantile` (σ 3 or
//!   4.5), 10 % `analyze_path`, 10 % `eco_resize`. Warm repeated queries
//!   are the stage cache's best case; parsing, queueing and JSON encoding
//!   are a visible share of the time. No Monte Carlo.
//! * `daemon_yield` registers c432 only. Connection 0 sends back-to-back
//!   fixed-count `yield_design` requests, alternating plain and importance
//!   sampling; the other connections send the query mix on the same
//!   design. The only workload where a long MC request shares the design
//!   lock, the pool and the CPUs with writes, so lock wait and queue wait
//!   show.

use crate::probe::{self, SessionLayers};
use crate::report::{self, grouped_p50, median, Run};
use crate::setup;
use crate::trace::Tracer;
use nsigma::cells::CellLibrary;
use nsigma::core::{MergeRule, TimingSession, YieldCurve};
use nsigma::mc::Design;
use nsigma::netlist::generators::random_dag::Iscas85;
use nsigma::process::Technology;
use nsigma::stats::quantile::SigmaLevel;
use nsigma::stats::rng::{CounterRng, SeedStream};
use nsigma::yield_engine::{YieldAnalysis, YieldConfig};
use nsigma_server::{json, parse_request, Client, Server, ServerConfig, ServerHandle, Value};
use rand::RngCore;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Query,
    Yield,
}

/// Trials per `yield_design` request: one chunk, so stopping cannot fire.
const YIELD_SAMPLES: usize = 32;
/// A half-width no 32-trial run reaches.
const YIELD_CI: f64 = 1e-9;
/// Critical-path gates the mix's `eco_resize` requests pick from.
const ECO_GATES: usize = 8;
/// Strengths an ECO moves a gate to. Each connection resizes only its own
/// gates, each to one of these and back to its registered strength, cycling
/// through every gate and strength alike whatever the seed; so the designs
/// (and the stage cache) settle into a few states however long the run is.
const STRENGTHS: [u32; 4] = [1, 2, 4, 8];
/// Paths compared in the remote/local parity check.
const PARITY_PATHS: usize = 3;
/// Mix requests the yield connection sends after each yield request when
/// it is the only connection (a one-CPU host).
const SOLO_MIX: usize = 8;
/// Requests between two reads of the process thread count.
const THREADS_EVERY: usize = 32;
/// Endpoints whose server-side execution time is reported.
const ENDPOINTS: [&str; 5] = [
    "worst_paths",
    "quantile",
    "analyze_path",
    "eco_resize",
    "yield_design",
];
/// Endpoints of the query mix.
const INTERACTIVE: [&str; 4] = ["worst_paths", "quantile", "analyze_path", "eco_resize"];
/// The kinds of request in the query mix, each with its count in a deck of
/// 60 per target: 70 % `worst_paths` (k 1–3), 10 % `quantile` (σ 3 or
/// 4.5), 10 % `analyze_path`, 10 % `eco_resize`. Each kind on each target is
/// one sample group. Requests are dealt from a shuffled deck, so every
/// stretch of a run holds the same proportions, whatever the seed.
const MIX: [(&str, usize); 7] = [
    ("worst_paths.k1", 14),
    ("worst_paths.k2", 14),
    ("worst_paths.k3", 14),
    ("quantile.3", 3),
    ("quantile.4.5", 3),
    ("analyze_path", 6),
    ("eco_resize", 6),
];
/// Index of `eco_resize` in [`MIX`].
const ECO_RESIZE: usize = 6;
/// Percentile of `main_tail_us`, taken per stretch (see [`Kind::tail_stretches`]).
const TAIL_PCT: f64 = 99.0;

impl Kind {
    fn designs(self) -> &'static [Iscas85] {
        match self {
            Kind::Query => &[Iscas85::C432, Iscas85::C6288],
            Kind::Yield => &[Iscas85::C432],
        }
    }

    /// Equal-count stretches `main_tail_us` is the lowest p99 of. On
    /// daemon_query a stretch of a 25-second run holds about a thousand
    /// requests on the reference host, so about ten lie beyond the p99. On
    /// daemon_yield it holds about 125 interactive requests, a dozen of them
    /// `eco_resize` waiting out a yield run, which is what the tail reads.
    fn tail_stretches(self) -> usize {
        match self {
            Kind::Query => 50,
            Kind::Yield => report::STRETCHES,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Query => "daemon_query",
            Kind::Yield => "daemon_yield",
        }
    }
}

/// Builds the timer, writes its coefficients file, starts the server over
/// that file and registers the workload's designs.
fn start(kind: Kind, coeff: &Path, cpus: usize) -> (ServerHandle, String) {
    let tech = Technology::synthetic_28nm();
    let lib = CellLibrary::standard();
    let text = setup::build_timer_text(&tech, &lib);
    std::fs::write(coeff, &text).expect("write the coefficients file");
    let handle = Server::start(ServerConfig {
        threads: cpus,
        timer: setup::timer_config(),
        coeff_path: Some(coeff.to_path_buf()),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(("127.0.0.1", handle.port())).expect("connect");
    for b in kind.designs() {
        client
            .request_ok(&format!(
                r#"{{"cmd":"register_design","name":"{n}","iscas":"{n}","seed":{s}}}"#,
                n = b.name(),
                s = setup::DAEMON_PARASITIC_SEED
            ))
            .expect("register_design");
    }
    (handle, text)
}

/// A registered design as the load sees it. Its in-process twin lives only
/// for the parity check, so the heap peak of the load is the server's.
struct Target {
    bench: Iscas85,
    name: &'static str,
    eco_gates: Vec<String>,
    /// Registered strength of each of `eco_gates`.
    eco_original: Vec<u32>,
}

/// The design as the daemon's `register_design` builds it.
fn local_design(bench: Iscas85) -> Design {
    let tech = Technology::synthetic_28nm();
    let lib = CellLibrary::standard();
    setup::mapped_design(&tech, &lib, bench, setup::DAEMON_PARASITIC_SEED)
}

fn f64s(v: Option<&Value>) -> Vec<f64> {
    v.and_then(Value::as_arr)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn strs(v: Option<&Value>) -> Vec<String> {
    v.and_then(Value::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(|s| s.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default()
}

/// Remote/local parity before any ECO: the daemon's `worst_paths` and
/// `quantile` answers must equal an in-process session's under `==`.
fn parity(kind: Kind, port: u16, text: &str, run: &mut Run) -> Vec<Target> {
    let tech = Technology::synthetic_28nm();
    let mut client = Client::connect(("127.0.0.1", port)).expect("connect");
    let mut targets = Vec::new();
    for &b in kind.designs() {
        let name = b.name();
        let local = TimingSession::new(
            setup::reload(&tech, text),
            local_design(b),
            MergeRule::Pessimistic,
        )
        .expect("benchmark designs are fully calibrated");
        let remote = client.request_ok(&format!(
            r#"{{"cmd":"worst_paths","design":"{name}","k":{PARITY_PATHS}}}"#
        ));
        let remote_paths: Vec<Value> = remote
            .as_ref()
            .ok()
            .and_then(|v| v.get("paths")?.as_arr().map(<[Value]>::to_vec))
            .unwrap_or_default();
        let local_paths = local.worst_paths(PARITY_PATHS);
        let mut same = remote_paths.len() == local_paths.len();
        for (r, l) in remote_paths.iter().zip(&local_paths) {
            let names: Vec<String> = l
                .gates
                .iter()
                .map(|&g| local.design().netlist.gate(g).name.clone())
                .collect();
            let q = local
                .analyze_path(l)
                .map(|t| t.quantiles.as_array().to_vec());
            same &= strs(r.get("gates")) == names && q.ok() == Some(f64s(r.get("quantiles")));
        }
        run.check(&format!("remote/local parity: worst_paths on {name}"), same);

        let q = local.path_by_rank(0).map(|(_, t)| t.quantiles);
        for sigma in [3.0, 4.5] {
            let remote = client
                .request_ok(&format!(
                    r#"{{"cmd":"quantile","design":"{name}","path":0,"sigma":{sigma}}}"#
                ))
                .ok()
                .and_then(|v| v.get("delay")?.as_f64());
            let expect = q.as_ref().ok().map(|q| {
                if sigma == 3.0 {
                    q[SigmaLevel::PlusThree]
                } else {
                    q[SigmaLevel::Zero] + YieldCurve::new(q).margin(0.0, sigma)
                }
            });
            let same = remote.is_some() && remote == expect;
            run.check(
                &format!("remote/local parity: quantile {sigma} on {name}"),
                same,
            );
        }
        let eco_gates: Vec<String> = remote_paths
            .first()
            .map(|p| strs(p.get("gates")))
            .unwrap_or_default()
            .into_iter()
            .take(ECO_GATES)
            .collect();
        let d = local.design();
        let eco_original = eco_gates
            .iter()
            .map(|name| {
                let g = local
                    .find_gate(name)
                    .expect("remote gate names exist locally");
                d.lib.cell(d.netlist.gate(g).cell).strength()
            })
            .collect();
        targets.push(Target {
            bench: b,
            name,
            eco_gates,
            eco_original,
        });
    }
    targets
}

/// One connection's position in the seeded query mix.
struct Mix {
    rng: CounterRng,
    /// (target index, index in [`MIX`]) of every request of a deck.
    deck: Vec<(usize, usize)>,
    /// Requests of the current deck dealt so far.
    dealt: usize,
    /// `eco_resize` requests sent so far, per target.
    ecos: Vec<usize>,
    /// This connection's index, and how many connections there are: it
    /// owns every `conns`-th of a target's `eco_gates` from `conn` on.
    conn: usize,
    conns: usize,
}

impl Mix {
    fn new(seed: u64, conn: usize, conns: usize, targets: usize) -> Self {
        let deck: Vec<(usize, usize)> = (0..targets)
            .flat_map(|ti| {
                MIX.iter()
                    .enumerate()
                    .flat_map(move |(kind, &(_, n))| std::iter::repeat_n((ti, kind), n))
            })
            .collect();
        Mix {
            rng: CounterRng::new(seed, conn as u64 + 1),
            dealt: deck.len(),
            deck,
            ecos: vec![0; targets],
            conn,
            conns,
        }
    }

    /// The next (target index, kind) of the deck, shuffling it afresh
    /// (Fisher–Yates) each time it runs out.
    fn deal(&mut self) -> (usize, usize) {
        if self.dealt == self.deck.len() {
            for i in (1..self.deck.len()).rev() {
                let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
                self.deck.swap(i, j);
            }
            self.dealt = 0;
        }
        self.dealt += 1;
        self.deck[self.dealt - 1]
    }
}

/// The next request of the query mix and its sample group: the target's
/// index times `MIX.len()` plus the kind's index in [`MIX`].
fn mix_request(mix: &mut Mix, targets: &[Target]) -> (String, usize) {
    let (ti, kind) = mix.deal();
    let t = &targets[ti];
    let d = t.name;
    let line = match kind {
        0..=2 => format!(r#"{{"cmd":"worst_paths","design":"{d}","k":{}}}"#, kind + 1),
        3 | 4 => format!(
            r#"{{"cmd":"quantile","design":"{d}","path":0,"sigma":{}}}"#,
            ["3", "4.5"][kind - 3]
        ),
        5 => format!(r#"{{"cmd":"analyze_path","design":"{d}"}}"#),
        _ => {
            let k = mix.ecos[ti];
            mix.ecos[ti] += 1;
            // Even requests resize, odd ones restore; the p-th pair takes
            // the next owned gate, and the next other strength once every
            // owned gate has had a turn.
            let n = t.eco_gates.len();
            let owned = n.saturating_sub(mix.conn).div_ceil(mix.conns).max(1);
            let p = k / 2;
            let slot = (mix.conn + (p % owned) * mix.conns) % n;
            let original = t.eco_original[slot];
            let others: Vec<u32> = STRENGTHS.into_iter().filter(|&s| s != original).collect();
            let strength = if k.is_multiple_of(2) {
                others[p / owned % others.len()]
            } else {
                original
            };
            let gate = &t.eco_gates[slot];
            format!(
                r#"{{"cmd":"eco_resize","design":"{d}","gate":"{gate}","strength":{strength}}}"#
            )
        }
    };
    (line, ti * MIX.len() + kind)
}

/// What one connection saw.
struct Conn {
    /// Client round trips of query-mix requests, per sample group (see
    /// [`mix_request`]), each as (seconds since the load started, µs).
    rtt_us: Vec<Vec<(f64, f64)>>,
    /// Client round trips of `yield_design` requests, the same way: plain,
    /// then importance sampling.
    yield_us: [Vec<(f64, f64)>; 2],
    attempted: u64,
    failed: u64,
    threads_peak: f64,
    tracer: Tracer,
}

struct Load<'a> {
    port: u16,
    targets: &'a [Target],
    /// Connections of the load, one per host CPU.
    conns: usize,
    seed: u64,
    deadline: Instant,
    traced: bool,
    epoch: Instant,
}

impl Load<'_> {
    fn request(
        &self,
        client: &mut Client,
        line: &str,
        c: &mut Conn,
        req: u64,
    ) -> (Option<Value>, f64) {
        if self.traced {
            let (parsed, _) = c
                .tracer
                .leaf("protocol.parse_request", req, || parse_request(line));
            c.attempted += 1;
            c.failed += u64::from(parsed.is_err());
            c.tracer.enter("client.request", req);
        }
        let t = Instant::now();
        let reply = client.request(line);
        let us = t.elapsed().as_secs_f64() * 1e6;
        if self.traced {
            c.tracer.exit();
        }
        let ok = matches!(&reply, Ok(v) if v.get("ok").and_then(Value::as_bool) == Some(true));
        c.attempted += 1;
        c.failed += u64::from(!ok);
        if self.traced {
            if let Ok(v) = &reply {
                c.tracer.leaf("json.write", req, || json::write(v));
            }
        }
        if req.is_multiple_of(THREADS_EVERY as u64) {
            let threads = report::proc_status("Threads").unwrap_or(0.0);
            c.threads_peak = c.threads_peak.max(threads);
        }
        (reply.ok().filter(|_| ok), us)
    }

    fn mix(&self, client: &mut Client, mix: &mut Mix, c: &mut Conn, req: u64) {
        let (line, group) = mix_request(mix, self.targets);
        let (_, us) = self.request(client, &line, c, req);
        c.rtt_us[group].push((self.epoch.elapsed().as_secs_f64(), us));
    }

    /// One closed-loop connection: the next request leaves only after the
    /// previous answer arrived.
    fn connection(&self, index: usize, sends_yield: bool, solo: bool) -> Conn {
        let mut c = Conn {
            rtt_us: vec![Vec::new(); self.targets.len() * MIX.len()],
            yield_us: [Vec::new(), Vec::new()],
            attempted: 0,
            failed: 0,
            threads_peak: 0.0,
            tracer: Tracer::new(self.epoch),
        };
        let mut client = Client::connect(("127.0.0.1", self.port)).expect("connect");
        let mut mix = Mix::new(self.seed, index, self.conns, self.targets.len());
        let seeds = SeedStream::new(self.seed);
        let mut req = (index as u64) << 32;
        let mut j = 0u64;
        while Instant::now() < self.deadline {
            if !sends_yield {
                self.mix(&mut client, &mut mix, &mut c, req);
                req += 1;
                continue;
            }
            let line = format!(
                r#"{{"cmd":"yield_design","design":"{}","samples":{YIELD_SAMPLES},"ci":{YIELD_CI:e},"importance":{},"seed":{}}}"#,
                self.targets[0].name,
                j % 2 == 1,
                // JSON numbers are f64: keep the seed exact.
                seeds.tagged_seed(j) >> 11
            );
            let (reply, us) = self.request(&mut client, &line, &mut c, req);
            c.yield_us[(j % 2) as usize].push((self.epoch.elapsed().as_secs_f64(), us));
            req += 1;
            j += 1;
            // A yield answer that ran another trial count is a failed check.
            if let Some(v) = reply {
                let samples = v.get("samples").and_then(Value::as_f64);
                c.attempted += 1;
                c.failed += u64::from(samples != Some(YIELD_SAMPLES as f64));
            }
            for _ in 0..if solo { SOLO_MIX } else { 0 } {
                self.mix(&mut client, &mut mix, &mut c, req);
                req += 1;
            }
        }
        c
    }
}

/// The server-side figures of one `stats` snapshot.
struct Stats {
    /// `(requests, mean_us)` per entry of [`ENDPOINTS`].
    endpoints: Vec<(f64, f64)>,
    rejected: f64,
    hits: f64,
    misses: f64,
    entries: f64,
}

/// Reads `stats` through the public protocol only. Absent fields (a
/// later change may remove the stage cache) read as 0.
fn stats(port: u16) -> Option<Stats> {
    let v = Client::connect(("127.0.0.1", port))
        .ok()?
        .request_ok(r#"{"cmd":"stats"}"#)
        .ok()?;
    let num = |v: Option<&Value>| v.and_then(Value::as_f64).unwrap_or(0.0);
    let m = v.get("metrics")?;
    let endpoints = ENDPOINTS
        .iter()
        .map(|e| {
            let ep = m.get("endpoints").and_then(|x| x.get(e));
            (
                num(ep.and_then(|x| x.get("requests"))),
                num(ep.and_then(|x| x.get("mean_us"))),
            )
        })
        .collect();
    let cache = v.get("stage_cache");
    Some(Stats {
        endpoints,
        rejected: num(m.get("rejected_overload")) + num(m.get("rejected_deadline")),
        hits: num(cache.and_then(|c| c.get("hits"))),
        misses: num(cache.and_then(|c| c.get("misses"))),
        entries: num(cache.and_then(|c| c.get("entries"))),
    })
}

/// Requests and mean server-side execution time per endpoint between two
/// snapshots.
fn exec_between(before: &Stats, after: &Stats) -> Vec<(f64, f64)> {
    before
        .endpoints
        .iter()
        .zip(&after.endpoints)
        .map(|(&(n0, m0), &(n1, m1))| {
            let n = n1 - n0;
            let mean = if n > 0.0 {
                (n1 * m1 - n0 * m0) / n
            } else {
                0.0
            };
            (n, mean)
        })
        .collect()
}

pub fn run(kind: Kind, seed: u64, seconds: f64, run: &mut Run) {
    let cpus = report::host_cpus();
    let out = PathBuf::from("perfbench/out");
    std::fs::create_dir_all(&out).expect("create perfbench/out");
    let coeff = out.join(format!("coeff-{}.txt", std::process::id()));
    let (setup_s, (handle, text)) = setup::repeat(|| start(kind, &coeff, cpus));
    let port = handle.port();
    let targets = parity(kind, port, &text, run);
    let before = stats(port);

    let epoch = Instant::now();
    let load = Load {
        port,
        targets: &targets,
        conns: cpus,
        seed,
        deadline: epoch + Duration::from_secs_f64(seconds),
        traced: run.traced(),
        epoch,
    };
    let conns: Vec<Conn> = std::thread::scope(|scope| {
        let load = &load;
        let handles: Vec<_> = (0..cpus)
            .map(|i| {
                let sends_yield = kind == Kind::Yield && i == 0;
                scope.spawn(move || load.connection(i, sends_yield, cpus == 1))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = epoch.elapsed().as_secs_f64();
    let after = stats(port);
    handle.shutdown();
    let _ = std::fs::remove_file(&coeff);

    let mut tracer = Tracer::new(epoch);
    let mut timed = vec![Vec::new(); targets.len() * MIX.len()];
    let mut timed_yields = [Vec::new(), Vec::new()];
    let mut threads_peak = 0.0f64;
    for c in conns {
        run.ops(c.attempted, c.failed);
        for (all, mine) in timed.iter_mut().zip(c.rtt_us) {
            all.extend(mine);
        }
        for (all, mine) in timed_yields.iter_mut().zip(c.yield_us) {
            all.extend(mine);
        }
        threads_peak = threads_peak.max(c.threads_peak);
        tracer.absorb(c.tracer);
    }
    // Every connection's samples of a group, in the order they completed.
    let in_order = |g: &mut Vec<(f64, f64)>| -> Vec<f64> {
        g.sort_by(|a, b| a.0.total_cmp(&b.0));
        g.iter().map(|&(_, us)| us).collect()
    };
    let groups: Vec<Vec<f64>> = timed.iter_mut().map(in_order).collect();
    let yields: Vec<Vec<f64>> = timed_yields.iter_mut().map(in_order).collect();
    // Every query-mix sample, in the order they completed.
    let mut all = timed.concat();
    all.sort_by(|a, b| a.0.total_cmp(&b.0));
    let done_at: Vec<f64> = all.iter().map(|&(t, _)| t).collect();
    let rtt: Vec<f64> = all.iter().map(|&(_, us)| us).collect();
    let eco: Vec<Vec<f64>> = groups
        .chunks(MIX.len())
        .map(|g| g[ECO_RESIZE].clone())
        .collect();
    let (Some(before), Some(after)) = (before, after) else {
        run.check("stats endpoint answers", false);
        return;
    };
    let exec = exec_between(&before, &after);
    let lookups = (after.hits - before.hits) + (after.misses - before.misses);
    let hit_ratio = if lookups > 0.0 {
        (after.hits - before.hits) / lookups
    } else {
        0.0
    };
    let entries_growth = after.entries - before.entries;
    let rejected = after.rejected - before.rejected;

    if !run.traced() {
        let whole_run_tail = report::tail(&rtt);
        let tail_us = report::best_stretch_tail(&rtt, TAIL_PCT, kind.tail_stretches());
        // On daemon_yield the interactive rate is set by a few long waits
        // behind yield runs, too few per stretch to compare stretches.
        let per_s = match kind {
            Kind::Query => report::best_rate(&done_at, elapsed),
            Kind::Yield => rtt.len() as f64 / elapsed,
        };
        let query_p50 = grouped_p50(&groups);
        let side = if kind == Kind::Yield {
            grouped_p50(&yields)
        } else {
            grouped_p50(&eco)
        };
        run.metric("setup_s", setup_s);
        run.metric("main_p50_us", query_p50);
        run.metric("main_tail_us", tail_us);
        run.metric("main_per_s", per_s);
        run.metric("side_p50_us", side);
        run.metric("heap_peak_mb", report::heap_peak_mb());
        run.detail("rss_peak_mb", report::rss_peak_mb());
        run.detail("main_tail_pct", TAIL_PCT);
        run.detail("query_tail_whole_run_pct", whole_run_tail.0);
        run.detail("query_tail_whole_run_us", whole_run_tail.1);
        run.detail("connections", cpus);
        run.detail("query_requests", rtt.len());
        run.detail("query_qps", rtt.len() as f64 / elapsed);
        run.detail("query_p50_us", query_p50);
        run.detail("query_tail_us", tail_us);
        run.detail("eco_resize_p50_us", grouped_p50(&eco));
        for (t, g) in targets.iter().zip(groups.chunks(MIX.len())) {
            for ((kind, _), samples) in MIX.iter().zip(g) {
                run.detail(&format!("p50_us.{}.{kind}", t.name), median(samples));
            }
        }
        if kind == Kind::Yield {
            run.detail("yield_requests", yields.iter().map(Vec::len).sum::<usize>());
            run.detail("yield_req_p50_s", side / 1e6);
        }
        run.detail("threads_peak", threads_peak);
        run.detail("pool_rejected", rejected);
        run.detail("stage_cache_hit_ratio", hit_ratio);
        run.detail("stage_cache_entries_growth", entries_growth);
        return;
    }

    let totals = tracer.totals();
    let per_call_us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / t.count.max(1) as f64 / 1e3)
    };
    run.metric("protocol.parse_us", per_call_us("protocol.parse_request"));
    run.metric("json.encode_us", per_call_us("json.write"));
    let (mut n, mut busy, mut eco_exec) = (0.0, 0.0, 0.0);
    for (e, &(count, mean)) in ENDPOINTS.iter().zip(&exec) {
        run.metric(&format!("engine.exec_us.{e}"), mean);
        if INTERACTIVE.contains(e) {
            n += count;
            busy += count * mean;
        }
        if *e == "eco_resize" {
            eco_exec = mean;
        }
    }
    let rtt_mean = rtt.iter().sum::<f64>() / rtt.len().max(1) as f64;
    run.metric("server.queue_transport_us", rtt_mean - busy / n.max(1.0));
    run.metric("server.threads_peak", threads_peak);
    run.metric("pool.rejected", rejected);
    run.metric("sta.cache_hit_ratio", hit_ratio);
    run.metric("sta.cache_entries", entries_growth);

    let tech = Technology::synthetic_28nm();
    let layers: Vec<SessionLayers> = targets
        .iter()
        .map(|t| probe::session_layers(&tech, &text, &local_design(t.bench), &mut tracer))
        .collect();
    let layers = SessionLayers::mean(&layers);
    run.metric("store.eco_wait_ms", (eco_exec - layers.resize_us) / 1e3);
    layers.record(run);

    if kind == Kind::Yield {
        let local = TimingSession::new(
            setup::reload(&tech, &text),
            local_design(targets[0].bench),
            MergeRule::Pessimistic,
        )
        .expect("benchmark designs are fully calibrated");
        let prep: Vec<f64> = (0..3)
            .filter_map(|_| {
                let cfg = YieldConfig {
                    max_samples: 1,
                    chunk: 1,
                    threads: 1,
                    seed,
                    ..YieldConfig::default()
                };
                let t = Instant::now();
                let r = local.yield_run(&cfg);
                run.ops(1, u64::from(r.is_err()));
                r.ok().map(|_| t.elapsed().as_secs_f64() * 1e3)
            })
            .collect();
        run.metric("yield.prep_ms", median(&prep));
    }
    tracer.save(kind.name(), run);
}
