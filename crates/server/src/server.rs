//! The daemon: engine, admission gate, accept loop, and lifecycle handle.
//!
//! [`Server::start`] builds (or reloads, via the coefficients store) the
//! N-sigma timer once, binds a TCP listener, and serves the
//! newline-delimited JSON protocol of [`crate::protocol`]. Each connection
//! gets one thread, and that thread runs every request it reads: it takes
//! a slot from the engine's admission gate, executes the request against
//! the shared [`Engine`] and writes the answer. The engine owns the timer
//! behind an `Arc` and one [`TimingSession`] per registered design, each
//! behind its own `RwLock` in the design store. Sessions carry their own
//! scratch pools, so concurrent readers of one design never contend on
//! thread-local state, and every query failure surfaces as a typed
//! [`QueryError`] mapped onto the protocol's error codes instead of a
//! panic.
//!
//! The gate is a `Mutex` over two counters (running, waiting) and one
//! `Condvar`. At most [`ServerConfig::threads`] requests run at once and
//! at most [`ServerConfig::queue_capacity`] wait for a slot; the next one
//! answers `overloaded` at once, and a wait longer than
//! [`ServerConfig::deadline`] answers `deadline`. Waiters are admitted in
//! no particular order. A connection holds at most one request, so the
//! accept loop refuses a connection beyond `threads + queue_capacity` with
//! one `overloaded` line.
//!
//! Shutdown — from the `shutdown` endpoint or [`ServerHandle::shutdown`] —
//! raises a flag, wakes the blocking accept with a self-connection and
//! joins the connection threads. Each one first answers the request it is
//! running or waiting for; that is the drain.

use crate::json::Value;
use crate::metrics::Metrics;
use crate::protocol::{error_response, ok_response, parse_request, Generator, Request};
use crate::store::DesignStore;
use nsigma_cells::CellLibrary;
use nsigma_core::sta::TimerConfig;
use nsigma_core::{
    read_coefficients, write_coefficients, MergeRule, NsigmaTimer, QueryError, TimingSession,
    YieldCurve,
};
use nsigma_mc::design::Design;
use nsigma_netlist::bench_format;
use nsigma_netlist::generators::random_dag::{synthetic_circuit, Iscas85, SyntheticConfig};
use nsigma_netlist::mapping::map_to_cells;
use nsigma_netlist::Path;
use nsigma_process::Technology;
use nsigma_stats::quantile::{QuantileSet, SigmaLevel};
use nsigma_yield::{CurvePoint, YieldAnalysis, YieldConfig, YieldReport, DEFAULT_IS_SHIFT};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Everything [`Server::start`] needs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Requests executing at once, each on the thread of the connection
    /// that sent it; a request beyond that waits for a slot.
    pub threads: usize,
    /// Requests that may wait for a slot; the next one answers
    /// `overloaded`. `threads + queue_capacity` also caps open connections.
    pub queue_capacity: usize,
    /// Maximum time a request may wait for a slot before it is answered
    /// with a `deadline` error instead of being executed.
    pub deadline: Duration,
    /// Timer build configuration (characterization samples, seed, …).
    pub timer: TimerConfig,
    /// When set, coefficients are loaded from this file if it exists
    /// (skipping recharacterization) and written there after a fresh build.
    pub coeff_path: Option<PathBuf>,
    /// Lint designs on `register_design` and reject those with
    /// error-severity findings. Individual requests can still opt out with
    /// `"lint": false`; turning this off disables the gate entirely.
    pub lint_on_register: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            queue_capacity: 64,
            deadline: Duration::from_secs(5),
            timer: TimerConfig::standard(1),
            coeff_path: None,
            lint_on_register: true,
        }
    }
}

/// A request outcome: payload fields for `ok_response`, or an error code
/// plus message.
type ExecResult = Result<Vec<(&'static str, Value)>, (&'static str, String)>;

/// The admission gate in front of request execution: at most `slots`
/// requests run at once and at most `capacity` wait for a slot. The lock
/// is held only to update the two counters, never while a request runs.
struct Gate {
    state: Mutex<GateState>,
    /// Signalled once per freed slot.
    freed: Condvar,
    slots: usize,
    capacity: usize,
}

#[derive(Default)]
struct GateState {
    running: usize,
    waiting: usize,
}

/// Why the gate refused a request.
#[derive(Debug, PartialEq, Eq)]
enum Refused {
    /// `capacity` requests already wait for a slot.
    Overloaded,
    /// No slot freed within the deadline.
    Deadline,
}

/// A held execution slot. Dropping it frees the slot, also while a
/// panicking request unwinds.
struct Slot<'a>(&'a Gate);

impl Gate {
    fn new(slots: usize, capacity: usize) -> Self {
        Self {
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
            slots: slots.max(1),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes a slot, waiting up to `deadline` for one when all are taken.
    fn admit(&self, deadline: Duration) -> Result<Slot<'_>, Refused> {
        let mut state = self.lock();
        if state.running >= self.slots {
            if state.waiting >= self.capacity {
                return Err(Refused::Overloaded);
            }
            state.waiting += 1;
            state = self
                .freed
                .wait_timeout_while(state, deadline, |s| s.running >= self.slots)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            state.waiting -= 1;
            if state.running >= self.slots {
                return Err(Refused::Deadline);
            }
        }
        state.running += 1;
        Ok(Slot(self))
    }

    /// Requests waiting for a slot.
    fn waiting(&self) -> usize {
        self.lock().waiting
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.lock().running -= 1;
        self.0.freed.notify_one();
    }
}

/// The shared request executor: one timer, many designs, all counters.
pub struct Engine {
    tech: Technology,
    lib: CellLibrary,
    timer: Arc<NsigmaTimer>,
    store: DesignStore,
    /// Request/latency counters, exposed for the connection layer to count
    /// parse failures and overload rejections.
    pub metrics: Metrics,
    deadline: Duration,
    lint_on_register: bool,
    /// Cumulative Monte-Carlo trials drawn by `yield_design` requests.
    yield_samples: AtomicU64,
    shutdown: AtomicBool,
    started: Instant,
    gate: Gate,
    addr: OnceLock<SocketAddr>,
}

impl Engine {
    fn new(
        tech: Technology,
        lib: CellLibrary,
        timer: Arc<NsigmaTimer>,
        cfg: &ServerConfig,
    ) -> Self {
        Self {
            tech,
            lib,
            timer,
            store: DesignStore::default(),
            metrics: Metrics::new(),
            deadline: cfg.deadline,
            lint_on_register: cfg.lint_on_register,
            yield_samples: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            gate: Gate::new(cfg.threads, cfg.queue_capacity),
            addr: OnceLock::new(),
        }
    }

    /// The timer every query runs against.
    pub fn timer(&self) -> &Arc<NsigmaTimer> {
        &self.timer
    }

    /// True once shutdown has been requested.
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Raises the shutdown flag and wakes the blocking accept loop with a
    /// self-connection.
    pub fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(addr) = self.addr.get() {
            let _ = TcpStream::connect_timeout(addr, Duration::from_secs(1));
        }
    }

    /// Runs one request on the calling thread once the admission gate
    /// gives it a slot, records it, and returns the response line.
    ///
    /// `stats` and `shutdown` skip the gate: they only read counters or set
    /// a flag, so a saturated server still reports why it is saturated and
    /// can still be told to stop.
    pub fn process(&self, request: Request) -> String {
        let _slot = if matches!(request, Request::Stats | Request::Shutdown) {
            None
        } else {
            match self.gate.admit(self.deadline) {
                Ok(slot) => Some(slot),
                Err(Refused::Overloaded) => {
                    self.metrics
                        .rejected_overload
                        .fetch_add(1, Ordering::Relaxed);
                    return error_response("overloaded", "request queue is full, retry later");
                }
                Err(Refused::Deadline) => {
                    self.metrics
                        .rejected_deadline
                        .fetch_add(1, Ordering::Relaxed);
                    return error_response(
                        "deadline",
                        &format!(
                            "no request slot freed within the {} ms deadline",
                            self.deadline.as_millis()
                        ),
                    );
                }
            }
        };
        let endpoint = request.endpoint();
        let t0 = Instant::now();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| self.execute(request)));
        let micros = t0.elapsed().as_micros() as u64;
        let (ok, line) = match outcome {
            Ok(Ok(payload)) => (true, ok_response(payload)),
            Ok(Err((code, msg))) => (false, error_response(code, &msg)),
            Err(_) => (
                false,
                error_response("internal", "request handler panicked"),
            ),
        };
        self.metrics.record(endpoint, ok, micros);
        line
    }

    /// Executes one request against the timer and store.
    pub fn execute(&self, request: Request) -> ExecResult {
        match request {
            Request::RegisterDesign {
                name,
                generator,
                seed,
                lint,
            } => self.register_design(name, generator, seed, lint),
            Request::LintDesign { design } => self.lint_design(&design),
            Request::AnalyzePath { design } => self.analyze_path(&design),
            Request::WorstPaths { design, k } => self.worst_paths(&design, k),
            Request::Quantile {
                design,
                path,
                sigma,
            } => self.quantile(&design, path, sigma),
            Request::YieldDesign {
                design,
                target_period,
                ci,
                importance,
                samples,
                seed,
            } => self.yield_design(&design, target_period, ci, importance, samples, seed),
            Request::EcoResize {
                design,
                gate,
                strength,
            } => self.eco_resize(&design, &gate, strength),
            Request::Stats => Ok(self.stats()),
            Request::Shutdown => {
                self.trigger_shutdown();
                Ok(vec![("stopping", Value::Bool(true))])
            }
        }
    }

    fn register_design(
        &self,
        name: String,
        generator: Generator,
        seed: u64,
        lint: bool,
    ) -> ExecResult {
        let lint = lint && self.lint_on_register;
        let circuit = match generator {
            Generator::Iscas(bench) => Iscas85::ALL
                .into_iter()
                .find(|b| b.name() == bench)
                .ok_or_else(|| {
                    (
                        "bad_request",
                        format!("unknown ISCAS85 benchmark {bench:?}"),
                    )
                })?
                .generate(),
            Generator::Synthetic {
                gates,
                inputs,
                outputs,
                depth,
                seed,
            } => {
                if gates == 0 || inputs == 0 || outputs == 0 || depth == 0 {
                    return Err((
                        "bad_request",
                        "gates, inputs, outputs and depth must all be positive".to_string(),
                    ));
                }
                synthetic_circuit(&SyntheticConfig {
                    name: name.clone(),
                    gates,
                    inputs,
                    outputs,
                    depth,
                    seed,
                })
            }
            Generator::Bench(text) => bench_format::parse(&name, &text)
                .map_err(|e| ("bad_request", format!("bench source: {e}")))?,
        };
        if lint {
            let report = nsigma_lint::lint_logic(&circuit);
            if report.has_errors() {
                return Err(lint_failed(&report));
            }
        }
        let netlist = map_to_cells(&circuit, &self.lib)
            .map_err(|e| ("internal", format!("technology mapping failed: {e}")))?;
        let design =
            Design::with_generated_parasitics(self.tech.clone(), self.lib.clone(), netlist, seed);
        if lint {
            let report = nsigma_lint::lint_design(&design, &self.timer);
            if report.has_errors() {
                return Err(lint_failed(&report));
            }
        }
        let gates = design.netlist.num_gates();
        let session = TimingSession::new(Arc::clone(&self.timer), design, MergeRule::Pessimistic)
            .map_err(query_err)?;
        let worst = session.analyze_design();
        if !self.store.insert(&name, session) {
            return Err((
                "bad_request",
                format!("design {name:?} is already registered"),
            ));
        }
        Ok(vec![
            ("design", Value::Str(name)),
            ("gates", Value::Num(gates as f64)),
            ("worst_quantiles", quantiles_json(&worst)),
        ])
    }

    fn lint_design(&self, design: &str) -> ExecResult {
        let slot = self.lookup(design)?;
        let session = slot.read().unwrap_or_else(PoisonError::into_inner);
        let report = nsigma_lint::lint_design(session.design(), &self.timer);
        let (errors, warnings, infos) = report.counts();
        Ok(vec![
            ("design", Value::Str(design.to_string())),
            ("errors", Value::Num(errors as f64)),
            ("warnings", Value::Num(warnings as f64)),
            ("infos", Value::Num(infos as f64)),
            ("diagnostics", diagnostics_json(&report)),
        ])
    }

    fn analyze_path(&self, design: &str) -> ExecResult {
        let slot = self.lookup(design)?;
        let session = slot.read().unwrap_or_else(PoisonError::into_inner);
        let (path, timing) = session
            .critical_path()
            .ok_or_else(|| ("not_found", format!("design {design:?} has no gates")))?;
        Ok(vec![
            ("design", Value::Str(design.to_string())),
            ("gates", path_gates_json(session.design(), &path)),
            ("stages", Value::Num(path.len() as f64)),
            ("quantiles", quantiles_json(&timing.quantiles)),
        ])
    }

    fn worst_paths(&self, design: &str, k: usize) -> ExecResult {
        let slot = self.lookup(design)?;
        let session = slot.read().unwrap_or_else(PoisonError::into_inner);
        let paths = session.worst_paths(k.max(1));
        let mut out = Vec::with_capacity(paths.len());
        for path in &paths {
            let timing = session.analyze_path(path).map_err(query_err)?;
            out.push(Value::Obj(vec![
                ("gates".to_string(), path_gates_json(session.design(), path)),
                ("stages".to_string(), Value::Num(path.len() as f64)),
                ("quantiles".to_string(), quantiles_json(&timing.quantiles)),
            ]));
        }
        Ok(vec![
            ("design", Value::Str(design.to_string())),
            ("paths", Value::Arr(out)),
        ])
    }

    fn quantile(&self, design: &str, rank: usize, sigma: f64) -> ExecResult {
        let slot = self.lookup(design)?;
        let session = slot.read().unwrap_or_else(PoisonError::into_inner);
        let (_, timing) = session.path_by_rank(rank).map_err(query_err)?;
        let q = timing.quantiles;
        let delay = if sigma.fract() == 0.0 && (-3.0..=3.0).contains(&sigma) {
            q[integer_level(sigma as i32)]
        } else {
            let strictly_increasing = q.as_array().windows(2).all(|w| w[1] > w[0]);
            if !strictly_increasing {
                return Err((
                    "internal",
                    "path quantiles are degenerate; cannot extrapolate".to_string(),
                ));
            }
            q[SigmaLevel::Zero] + YieldCurve::new(&q).margin(0.0, sigma)
        };
        Ok(vec![
            ("design", Value::Str(design.to_string())),
            ("path", Value::Num(rank as f64)),
            ("sigma", Value::Num(sigma)),
            ("delay", Value::Num(delay)),
        ])
    }

    fn yield_design(
        &self,
        design: &str,
        target_period: Option<f64>,
        ci: f64,
        importance: bool,
        samples: usize,
        seed: u64,
    ) -> ExecResult {
        let slot = self.lookup(design)?;
        let session = slot.read().unwrap_or_else(PoisonError::into_inner);
        let cfg = YieldConfig {
            target_period,
            ci_half_width: ci,
            max_samples: samples,
            chunk: samples.min(YieldConfig::default().chunk),
            importance: importance.then_some(DEFAULT_IS_SHIFT),
            seed,
            ..YieldConfig::default()
        };
        let report = session.yield_analysis(&cfg).map_err(query_err)?;
        self.yield_samples
            .fetch_add(report.samples as u64, Ordering::Relaxed);
        let mut fields = vec![("design", Value::Str(design.to_string()))];
        fields.extend(yield_report_fields(&report));
        Ok(fields)
    }

    fn eco_resize(&self, design: &str, gate: &str, strength: u32) -> ExecResult {
        let slot = self.lookup(design)?;
        let mut session = slot.write().unwrap_or_else(PoisonError::into_inner);
        let gid = session.find_gate(gate).ok_or_else(|| {
            (
                "not_found",
                format!("design {design:?} has no gate {gate:?}"),
            )
        })?;
        let worst = session.resize_gate(gid, strength).map_err(query_err)?;
        Ok(vec![
            ("design", Value::Str(design.to_string())),
            ("gate", Value::Str(gate.to_string())),
            ("strength", Value::Num(strength as f64)),
            (
                "recomputed_gates",
                Value::Num(session.last_recompute_count() as f64),
            ),
            ("worst_quantiles", quantiles_json(&worst)),
        ])
    }

    fn stats(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("uptime_s", Value::Num(self.started.elapsed().as_secs_f64())),
            ("threads", Value::Num(self.gate.slots as f64)),
            ("designs", Value::Num(self.store.len() as f64)),
            (
                "yield_samples_drawn",
                Value::Num(self.yield_samples.load(Ordering::Relaxed) as f64),
            ),
            ("queue_depth", Value::Num(self.gate.waiting() as f64)),
            ("queue_capacity", Value::Num(self.gate.capacity as f64)),
            ("metrics", self.metrics.snapshot()),
        ]
    }

    fn lookup(
        &self,
        design: &str,
    ) -> Result<Arc<crate::store::DesignSlot>, (&'static str, String)> {
        self.store
            .get(design)
            .ok_or_else(|| ("not_found", format!("no design named {design:?}")))
    }
}

/// Maps a typed core [`QueryError`] onto the protocol's error envelope:
/// the error's wire code plus its display message.
fn query_err(e: QueryError) -> (&'static str, String) {
    (e.code(), e.to_string())
}

fn integer_level(n: i32) -> SigmaLevel {
    match n {
        -3 => SigmaLevel::MinusThree,
        -2 => SigmaLevel::MinusTwo,
        -1 => SigmaLevel::MinusOne,
        0 => SigmaLevel::Zero,
        1 => SigmaLevel::PlusOne,
        2 => SigmaLevel::PlusTwo,
        _ => SigmaLevel::PlusThree,
    }
}

/// The typed rejection for `register_design`: the distinct error codes in
/// the message, so a client can react without parsing the diagnostics.
fn lint_failed(report: &nsigma_lint::LintReport) -> (&'static str, String) {
    (
        "lint_failed",
        format!("design failed lint: {}", report.error_codes().join(", ")),
    )
}

/// A lint report as a JSON array of diagnostic objects, mirroring the
/// NDJSON field names (`code`, `severity`, `message`, `file`/`line` or
/// `object`).
fn diagnostics_json(report: &nsigma_lint::LintReport) -> Value {
    use nsigma_lint::Location;
    Value::Arr(
        report
            .diagnostics
            .iter()
            .map(|d| {
                let mut fields = vec![
                    ("code".to_string(), Value::Str(d.code.to_string())),
                    (
                        "severity".to_string(),
                        Value::Str(d.severity.label().to_string()),
                    ),
                    ("message".to_string(), Value::Str(d.message.clone())),
                ];
                match &d.location {
                    Location::Source { file, line, column } => {
                        fields.push(("file".to_string(), Value::Str(file.clone())));
                        fields.push(("line".to_string(), Value::Num(*line as f64)));
                        if let Some(c) = column {
                            fields.push(("column".to_string(), Value::Num(*c as f64)));
                        }
                    }
                    Location::Object(path) => {
                        fields.push(("object".to_string(), Value::Str(path.clone())));
                    }
                }
                Value::Obj(fields)
            })
            .collect(),
    )
}

/// A quantile set as a 7-element JSON array, −3σ first. `{:e}` round-trip
/// serialization keeps every bit, so clients can compare `==` against a
/// local timer.
fn quantiles_json(q: &QuantileSet) -> Value {
    Value::Arr(q.as_array().iter().map(|&x| Value::Num(x)).collect())
}

/// A yield report as JSON object fields: the `yield_design` payload after
/// its `design` field, and the CLI's `yield --json` object. `elapsed` is
/// left out, so the fields are byte-stable for a fixed seed.
pub fn yield_report_fields(report: &YieldReport) -> Vec<(&'static str, Value)> {
    vec![
        ("target_period", Value::Num(report.target_period)),
        ("yield", Value::Num(report.estimate.value)),
        ("ci_lo", Value::Num(report.estimate.ci_lo)),
        ("ci_hi", Value::Num(report.estimate.ci_hi)),
        ("ci_half_width", Value::Num(report.estimate.half_width())),
        ("converged", Value::Bool(report.converged)),
        ("samples", Value::Num(report.samples as f64)),
        ("ess", Value::Num(report.ess)),
        ("importance", Value::Bool(report.importance_shift > 0.0)),
        ("importance_shift", Value::Num(report.importance_shift)),
        ("analytic_yield", Value::Num(report.analytic_yield)),
        (
            "analytic_quantiles",
            quantiles_json(&report.analytic_quantiles),
        ),
        ("mc_quantiles", quantiles_json(&report.mc_quantiles)),
        ("curve", curve_json(&report.curve)),
        ("threads", Value::Num(report.threads as f64)),
    ]
}

/// The yield-vs-period curve as a JSON array of per-level objects.
fn curve_json(curve: &[CurvePoint]) -> Value {
    Value::Arr(
        curve
            .iter()
            .map(|p| {
                Value::Obj(vec![
                    ("period".to_string(), Value::Num(p.period)),
                    ("analytic_yield".to_string(), Value::Num(p.analytic_yield)),
                    ("mc_yield".to_string(), Value::Num(p.mc.value)),
                    ("ci_lo".to_string(), Value::Num(p.mc.ci_lo)),
                    ("ci_hi".to_string(), Value::Num(p.mc.ci_hi)),
                ])
            })
            .collect(),
    )
}

fn path_gates_json(design: &Design, path: &Path) -> Value {
    Value::Arr(
        path.gates
            .iter()
            .map(|&g| Value::Str(design.netlist.gate(g).name.clone()))
            .collect(),
    )
}

/// The daemon entry point.
pub struct Server;

impl Server {
    /// Builds (or reloads) the timer, binds, and starts serving.
    ///
    /// # Errors
    ///
    /// I/O errors from binding or the coefficients file; timer build or
    /// coefficient-parse failures are surfaced as `InvalidData`.
    pub fn start(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
        let tech = Technology::synthetic_28nm();
        let lib = CellLibrary::standard();
        let timer = Arc::new(load_or_build_timer(&tech, &lib, &cfg)?);
        let engine = Arc::new(Engine::new(tech, lib, timer, &cfg));

        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        // The engine is freshly built, so these cells are empty; `set` can
        // only fail if `start` raced itself, which `Arc::new` above rules
        // out. Ignoring the result keeps the startup path panic-free.
        let _ = engine.addr.set(addr);

        let accept = {
            let engine = Arc::clone(&engine);
            std::thread::Builder::new()
                .name("nsigma-accept".to_string())
                .spawn(move || accept_loop(listener, engine))?
        };
        Ok(ServerHandle {
            addr,
            engine,
            accept: Some(accept),
        })
    }
}

fn load_or_build_timer(
    tech: &Technology,
    lib: &CellLibrary,
    cfg: &ServerConfig,
) -> std::io::Result<NsigmaTimer> {
    if let Some(path) = &cfg.coeff_path {
        if path.exists() {
            let text = std::fs::read_to_string(path)?;
            return read_coefficients(tech, &text).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("coefficients file {}: {e}", path.display()),
                )
            });
        }
    }
    let timer = NsigmaTimer::build(tech, lib, &cfg.timer)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}")))?;
    if let Some(path) = &cfg.coeff_path {
        std::fs::write(path, write_coefficients(&timer))?;
    }
    Ok(timer)
}

fn accept_loop(listener: TcpListener, engine: Arc<Engine>) {
    // A connection holds at most one request, so no more requests than
    // this can ever be running or waiting; a connection past it is refused.
    let max_conns = engine.gate.slots + engine.gate.capacity;
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        if engine.is_shutdown() {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if engine.is_shutdown() {
                    break; // the wake-up self-connection
                }
                conns.retain(|h| !h.is_finished());
                if conns.len() >= max_conns {
                    refuse_connection(stream, &engine, max_conns);
                    continue;
                }
                let engine = Arc::clone(&engine);
                // A failed spawn (thread exhaustion) drops the stream,
                // closing the connection; the server itself stays up.
                if let Ok(handle) = std::thread::Builder::new()
                    .name("nsigma-conn".to_string())
                    .spawn(move || serve_connection(stream, engine))
                {
                    conns.push(handle);
                }
            }
            Err(_) => {
                if engine.is_shutdown() {
                    break;
                }
            }
        }
    }
    // Graceful drain: each connection answers the request it is running
    // or waiting for, then sees the shutdown flag and closes.
    for h in conns {
        let _ = h.join();
    }
}

/// Answers a connection past the cap with one `overloaded` line, counted
/// in `rejected_overload`, and closes it.
fn refuse_connection(mut stream: TcpStream, engine: &Engine, max_conns: usize) {
    engine
        .metrics
        .rejected_overload
        .fetch_add(1, Ordering::Relaxed);
    let mut line = error_response(
        "overloaded",
        &format!("{max_conns} connections are open, retry later"),
    );
    line.push('\n');
    let _ = stream.write_all(line.as_bytes());
}

/// The longest request line a connection may send, newline included:
/// 1 MiB, far above any `register_design` with an inline `"bench"` netlist
/// the tests and benchmarks send (a few hundred bytes; an inline c7552
/// `.bench` file is about 0.1 MiB). A longer line gets one `bad_request`
/// reply and the connection is closed, so no client can grow the reader's
/// buffer without limit.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

fn serve_connection(stream: TcpStream, engine: Arc<Engine>) {
    // Short read timeouts let the reader poll the shutdown flag without a
    // dedicated wake-up channel per connection.
    if stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .is_err()
    {
        return;
    }
    // Without TCP_NODELAY, Nagle holds the response until the client's
    // delayed ACK (~40 ms per request on Linux).
    stream.set_nodelay(true).ok();
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = Vec::new();
    loop {
        if engine.is_shutdown() {
            break;
        }
        // No `line.clear()` before the read: a timeout can leave a partial
        // line buffered, which the next read continues. The `take` budget
        // counts that partial line, so a line never grows past the cap.
        let budget = (MAX_REQUEST_BYTES - line.len()) as u64;
        match reader.by_ref().take(budget).read_until(b'\n', &mut line) {
            Ok(0) => break,
            Ok(_) => {
                let over_long = line.len() >= MAX_REQUEST_BYTES && !line.ends_with(b"\n");
                let mut response = match std::str::from_utf8(&line) {
                    _ if over_long => bad_request(
                        &engine,
                        &format!("request line exceeds {MAX_REQUEST_BYTES} bytes"),
                    ),
                    Err(_) => bad_request(&engine, "request line is not valid UTF-8"),
                    Ok(text) if text.trim().is_empty() => {
                        line.clear();
                        continue;
                    }
                    Ok(text) => match parse_request(text.trim()) {
                        Ok(request) => engine.process(request),
                        Err(e) => bad_request(&engine, &e.to_string()),
                    },
                };
                line.clear();
                // One write per response: a separate newline write would
                // be a second small segment for Nagle to delay.
                response.push('\n');
                if writer
                    .write_all(response.as_bytes())
                    .and_then(|()| writer.flush())
                    .is_err()
                    || over_long
                {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
}

/// A `bad_request` reply for a line that never reached the engine, counted
/// in `bad_requests`.
fn bad_request(engine: &Engine, message: &str) -> String {
    engine.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
    error_response("bad_request", message)
}

/// Handle to a running server; dropping it shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    engine: Arc<Engine>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// The engine, for in-process inspection (tests, stats).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Requests shutdown and blocks until all threads have drained.
    pub fn shutdown(mut self) {
        self.shutdown_and_join();
    }

    /// Blocks until the server stops on its own (e.g. a client sent the
    /// `shutdown` command).
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    fn shutdown_and_join(&mut self) {
        self.engine.trigger_shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    const LONG: Duration = Duration::from_secs(10);

    /// Polls `cond` every millisecond for up to ten seconds.
    fn eventually(cond: impl Fn() -> bool) -> bool {
        let until = Instant::now() + LONG;
        while !cond() {
            if Instant::now() > until {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn gate_round_trips_a_slot() {
        let gate = Gate::new(1, 1);
        let slot = gate.admit(Duration::ZERO).expect("a free slot");
        assert_eq!(gate.lock().running, 1);
        drop(slot);
        assert_eq!(gate.lock().running, 0);
        assert!(
            gate.admit(Duration::ZERO).is_ok(),
            "the freed slot is reusable"
        );
    }

    #[test]
    fn gate_runs_slots_concurrently() {
        // Each holder waits for the other to be admitted: both see two
        // holders only if two slots are held at once. Holding a slot must
        // not hold the gate's lock, or the second admit would block.
        let gate = Gate::new(2, 4);
        let admitted = AtomicUsize::new(0);
        let together = std::thread::scope(|scope| {
            let holders: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let _slot = gate.admit(LONG).expect("a slot");
                        admitted.fetch_add(1, Ordering::SeqCst);
                        eventually(|| admitted.load(Ordering::SeqCst) == 2)
                    })
                })
                .collect();
            holders.into_iter().all(|h| h.join().unwrap_or(false))
        });
        assert!(together, "two slots must be held at once");
        assert_eq!(gate.lock().running, 0);
    }

    #[test]
    fn gate_refuses_past_capacity() {
        // One slot, one waiter: the slot is held, the second request waits,
        // the third is refused at once, and the waiter runs once the slot
        // is freed.
        let gate = Gate::new(1, 1);
        let held = gate.admit(Duration::ZERO).expect("a free slot");
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| gate.admit(LONG).map(|_| ()));
            assert!(eventually(|| gate.waiting() == 1), "the waiter waits");
            let t0 = Instant::now();
            assert_eq!(gate.admit(LONG).err(), Some(Refused::Overloaded));
            assert!(t0.elapsed() < LONG, "refusal must not wait");
            drop(held);
            assert_eq!(waiter.join().ok(), Some(Ok(())), "the waiter is admitted");
        });
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn gate_refuses_at_the_deadline() {
        let gate = Gate::new(1, 4);
        let _held = gate.admit(Duration::ZERO).expect("a free slot");
        let deadline = Duration::from_millis(50);
        let t0 = Instant::now();
        assert_eq!(gate.admit(deadline).err(), Some(Refused::Deadline));
        assert!(t0.elapsed() >= deadline, "the request waited its deadline");
        assert_eq!(gate.waiting(), 0, "a refused waiter leaves the queue");
    }

    #[test]
    fn panicking_holder_frees_its_slot() {
        let gate = Gate::new(1, 1);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _slot = gate.admit(Duration::ZERO).expect("a free slot");
            panic!("request handler failed");
        }));
        assert!(outcome.is_err());
        assert!(
            gate.admit(Duration::ZERO).is_ok(),
            "the slot is freed while unwinding"
        );
    }
}
