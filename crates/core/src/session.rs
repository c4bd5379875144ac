//! The session-oriented query layer: one engine, one handle.
//!
//! A [`TimingSession`] is built once from a timer and a design. It owns the
//! [`CompiledDesign`], the per-net arrival/slew state under its merge rule,
//! and the ranked worst-path list, and it exposes the *entire* query
//! surface — whole-design analysis (late and early), path analysis, ranked
//! worst paths, ECO resizes with cone-limited recomputation, and SDF
//! export — with typed [`QueryError`] results instead of query-time panics.
//!
//! The arrival state is the design answer. It is built and updated by the
//! one per-gate kernel, `CompiledDesign::propagate_gate`, and a net is
//! marked dirty exactly when the bits of any of its seven quantiles or of
//! its slew change. A gate's update depends only on its fanin state and its
//! own compiled data, and a resize seeds every gate whose compiled data it
//! touched, so after every resize the state equals a full pass bit for bit.
//! [`TimingSession::analyze_design`], the resize answer, the yield
//! engine's analytic target and SDF export all read that state.
//!
//! The ranked list is state too, but lazy: the first `worst_paths` or
//! `path_by_rank` after an edit ranks the design at the asked `k` and holds
//! the list (with its DP tables) under one lock; later reads that need no
//! more paths than it holds copy a prefix of it, and a resize drops it.
//! The prefix is exact: the first `j` paths of a ranking at `k ≥ j` are
//! the ranking at `j` (see [`nsigma_netlist::topo::k_longest_paths_by_with_csr`]).
//!
//! Read queries take `&self`, so many threads can query one session
//! concurrently (the server keeps a session per registered design behind
//! an `RwLock` and serves reads in parallel); ranked reads share the held
//! list's lock. Resizes take `&mut self` and recompute only the affected
//! timing cone.
//!
//! The legacy string-keyed implementation survives only as
//! [`crate::reference`], the oracle of the differential-equivalence suite;
//! every production caller routes through this module.

use crate::compiled::{Bound, CompiledDesign, GateUpdate};
use crate::sta::{NsigmaTimer, PathTiming};
use crate::stat_max::MergeRule;
use nsigma_mc::design::Design;
use nsigma_netlist::ir::{GateId, NetDriver, NetId};
use nsigma_netlist::topo::{Path, PathScratch};
use nsigma_stats::quantile::QuantileSet;
use std::borrow::Borrow;
use std::sync::{Arc, Mutex, PoisonError};

/// A typed query failure. Every fallible session operation returns one of
/// these instead of panicking, and [`QueryError::code`] gives the stable
/// wire code the server protocol reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The design uses a cell the timer has no calibration for.
    UnknownCell {
        /// Library cell name without a calibration.
        cell: String,
    },
    /// The design has no gates, so there is nothing to analyze.
    EmptyDesign,
    /// A gate named in the query does not exist in the design.
    UnknownGate {
        /// The gate instance name (or index) that failed to resolve.
        gate: String,
    },
    /// The library has no cell of the requested kind and strength.
    UnknownStrength {
        /// Cell-kind prefix (e.g. `NAND2`).
        kind: String,
        /// Requested drive strength.
        strength: u32,
    },
    /// A ranked-path query asked for a rank beyond the available paths.
    NoSuchPath {
        /// Zero-based rank that was requested.
        rank: usize,
        /// How many paths the design actually has.
        available: usize,
    },
    /// A query configuration parameter is out of range (e.g. a yield run
    /// with a non-positive confidence target or a zero sample cap).
    InvalidConfig {
        /// What was wrong with the configuration.
        reason: String,
    },
    /// An engine-side failure that is a bug rather than a caller mistake
    /// (e.g. a sampling worker thread panicked). Reported instead of
    /// propagating the panic so daemon request loops stay alive.
    Internal {
        /// What went wrong.
        reason: String,
    },
}

impl QueryError {
    /// The stable protocol error code the server reports for this error
    /// (`crates/server` maps typed query failures straight onto these).
    pub fn code(&self) -> &'static str {
        match self {
            QueryError::UnknownCell { .. } => "unknown_cell",
            QueryError::EmptyDesign => "bad_request",
            QueryError::UnknownGate { .. } => "not_found",
            QueryError::UnknownStrength { .. } => "bad_request",
            QueryError::NoSuchPath { .. } => "not_found",
            QueryError::InvalidConfig { .. } => "bad_request",
            QueryError::Internal { .. } => "internal",
        }
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::UnknownCell { cell } => {
                write!(f, "timer has no calibration for {cell}")
            }
            QueryError::EmptyDesign => write!(f, "design has no gates"),
            QueryError::UnknownGate { gate } => write!(f, "no gate named {gate}"),
            QueryError::UnknownStrength { kind, strength } => {
                write!(f, "library has no {kind}x{strength}")
            }
            QueryError::NoSuchPath { rank, available } => {
                write!(f, "no path of rank {rank} (design has {available})")
            }
            QueryError::InvalidConfig { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
            QueryError::Internal { reason } => {
                write!(f, "internal engine failure: {reason}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// A design bound to a timer for querying: the single production engine.
///
/// Generic over how the timer is held: borrow it for a scoped analysis
/// (`TimingSession::new(&timer, ...)`), or hand in an `Arc<NsigmaTimer>`
/// so a long-lived owner (the query daemon) can keep many sessions over
/// one shared timer without a lifetime tie.
pub struct TimingSession<B: Borrow<NsigmaTimer> = Arc<NsigmaTimer>> {
    timer: B,
    compiled: CompiledDesign,
    rule: MergeRule,
    /// Per-net arrival quantiles under `rule`: always equal to a full
    /// propagation of the current design (resizes update them
    /// cone-locally).
    arrival: Vec<QuantileSet>,
    slew: Vec<f64>,
    /// Persistent per-gate seed flags for [`TimingSession::recompute`];
    /// always all-false between calls.
    seed_gate: Vec<bool>,
    /// Persistent per-net dirty flags; always all-false between calls.
    dirty_net: Vec<bool>,
    /// Gates recomputed by the last resize.
    last_recompute: usize,
    /// The ranked worst-path list of the current design, built by the
    /// first ranked read after an edit.
    ranked: Mutex<HeldPaths>,
}

/// The ranked worst-path list a session holds between edits, with the DP
/// tables that built it.
#[derive(Debug, Default)]
struct HeldPaths {
    scratch: PathScratch,
    /// The `k` the list was ranked at.
    k: usize,
    /// The `k` worst paths (fewer if the design has fewer), or `None`
    /// until the first ranked read after an edit.
    paths: Option<Vec<Path>>,
}

impl HeldPaths {
    /// The `k` worst paths: a prefix of the held list when that holds
    /// them all (`k` within the held `k`, or the design ran out of paths
    /// below it), otherwise a fresh ranking at `k` that replaces it. A
    /// ranking never runs at more than the asked `k`, so one large query
    /// does not make later rebuilds expensive.
    fn ranked(&mut self, compiled: &CompiledDesign, k: usize) -> &[Path] {
        let held_k = self.k;
        if !self
            .paths
            .as_ref()
            .is_some_and(|p| k <= held_k || p.len() < held_k)
        {
            let fresh = compiled.ranked_paths(k, &mut self.scratch);
            self.k = k;
            self.paths = Some(fresh);
        }
        let paths = self.paths.as_deref().unwrap_or_default();
        &paths[..k.min(paths.len())]
    }
}

impl<B: Borrow<NsigmaTimer>> TimingSession<B> {
    /// Builds a session: validates that every cell the design uses is
    /// calibrated, compiles the design, and runs the initial full
    /// analysis under `rule`.
    ///
    /// # Errors
    ///
    /// [`QueryError::EmptyDesign`] for a gateless design and
    /// [`QueryError::UnknownCell`] when a cell has no calibration.
    pub fn new(timer: B, design: Design, rule: MergeRule) -> Result<Self, QueryError> {
        if design.netlist.num_gates() == 0 {
            return Err(QueryError::EmptyDesign);
        }
        let nets = design.netlist.num_nets();
        let gates = design.netlist.num_gates();
        let input_slew = timer.borrow().input_slew();
        let compiled = CompiledDesign::compile(timer.borrow(), design)?;
        let mut this = Self {
            timer,
            compiled,
            rule,
            arrival: vec![QuantileSet::default(); nets],
            slew: vec![input_slew; nets],
            seed_gate: vec![false; gates],
            dirty_net: vec![false; nets],
            last_recompute: 0,
            ranked: Mutex::default(),
        };
        this.recompute(true);
        Ok(this)
    }

    /// The shared timer.
    pub fn timer(&self) -> &NsigmaTimer {
        self.timer.borrow()
    }

    /// The analyzed design (read-only).
    pub fn design(&self) -> &Design {
        self.compiled.design()
    }

    /// The compiled timing graph the session runs over.
    pub fn compiled(&self) -> &CompiledDesign {
        &self.compiled
    }

    /// Runs `f` on the `k` worst paths, from the held list under its lock.
    /// A panic inside a ranking leaves the held `k` and list as they were,
    /// and every ranking rewrites its tables, so a poisoned lock still
    /// guards a valid list.
    fn with_ranked<T>(&self, k: usize, f: impl FnOnce(&[Path]) -> T) -> T {
        let mut held = self.ranked.lock().unwrap_or_else(PoisonError::into_inner);
        f(held.ranked(&self.compiled, k))
    }

    /// Block-based whole-design analysis under the session's merge rule:
    /// the worst primary-output arrival quantiles, read from the arrival
    /// state (current across resizes).
    pub fn analyze_design(&self) -> QuantileSet {
        self.compiled
            .merge_outputs(Bound::Late(self.rule), &self.arrival)
    }

    /// Early (hold-side) whole-design analysis: the earliest primary-output
    /// arrival quantiles, from a full propagation over fresh buffers.
    pub fn analyze_design_early(&self) -> QuantileSet {
        self.compiled
            .analyze_fresh(self.timer.borrow(), Bound::Early)
    }

    /// Analyzes one path (eq. 10): per-stage cell and wire quantiles summed
    /// with mean-slew propagation.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownGate`] if the path references a gate outside
    /// this design.
    pub fn analyze_path(&self, path: &Path) -> Result<PathTiming, QueryError> {
        let gates = self.design().netlist.num_gates();
        for &g in &path.gates {
            if g.index() >= gates {
                return Err(QueryError::UnknownGate {
                    gate: format!("#{}", g.index()),
                });
            }
        }
        Ok(self.compiled.analyze_path(self.timer.borrow(), path))
    }

    /// The `k` worst paths by nominal stage weights, worst first, copied
    /// from the held ranked list.
    pub fn worst_paths(&self, k: usize) -> Vec<Path> {
        self.with_ranked(k, <[Path]>::to_vec)
    }

    /// The path of the given zero-based `rank` (0 = worst) together with
    /// its N-sigma analysis.
    ///
    /// # Errors
    ///
    /// [`QueryError::NoSuchPath`] when the design has `rank` or fewer
    /// paths.
    pub fn path_by_rank(&self, rank: usize) -> Result<(Path, PathTiming), QueryError> {
        let path = self.with_ranked(rank.saturating_add(1), |paths| {
            paths.get(rank).cloned().ok_or(QueryError::NoSuchPath {
                rank,
                available: paths.len(),
            })
        })?;
        let timing = self.analyze_path(&path)?;
        Ok((path, timing))
    }

    /// Analyzes the nominal critical path: finds it over the compiled
    /// critical weights ([`CompiledDesign::critical_path`], the same path as
    /// [`nsigma_mc::path_sim::find_critical_path`]), then applies
    /// [`TimingSession::analyze_path`]. `None` for a pathless design.
    pub fn critical_path(&self) -> Option<(Path, PathTiming)> {
        let path = self.compiled.critical_path()?;
        let timing = self.analyze_path(&path).ok()?;
        Some((path, timing))
    }

    /// Resolves a gate instance name to its id.
    pub fn find_gate(&self, name: &str) -> Option<GateId> {
        let netlist = &self.design().netlist;
        netlist.gate_ids().find(|&g| netlist.gate(g).name == name)
    }

    /// Arrival quantiles at a net, from the arrival state.
    pub fn arrival(&self, net: NetId) -> &QuantileSet {
        &self.arrival[net.index()]
    }

    /// Gates recomputed by the most recent resize (diagnostics).
    pub fn last_recompute_count(&self) -> usize {
        self.last_recompute
    }

    /// SDF export of the whole design at the analysis operating point
    /// (see [`crate::sdf::write_sdf`]). Infallible here: the session
    /// validated every cell at build time.
    pub fn sdf(&self) -> String {
        crate::sdf::write_sdf(self)
    }

    /// The kernel's update of one gate evaluated at the current state —
    /// equal to the state itself, plus the cell quantiles at the resolved
    /// input slew.
    pub(crate) fn gate_update(&self, g: GateId) -> GateUpdate {
        self.compiled.propagate_gate(
            self.timer.borrow(),
            Bound::Late(self.rule),
            g,
            &self.arrival,
            &self.slew,
        )
    }

    /// Resizes a gate to a different strength of the same kind and updates
    /// the affected timing cone. Returns the new worst primary-output
    /// quantiles.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownStrength`] when the library lacks the strength
    /// and [`QueryError::UnknownCell`] when the timer has no calibration
    /// for the replacement cell.
    pub fn resize_gate(&mut self, gate: GateId, strength: u32) -> Result<QuantileSet, QueryError> {
        let design = self.compiled.design();
        if gate.index() >= design.netlist.num_gates() {
            return Err(QueryError::UnknownGate {
                gate: format!("#{}", gate.index()),
            });
        }
        let kind = {
            let g = design.netlist.gate(gate);
            design.lib.cell(g.cell).kind()
        };
        let cell =
            design
                .lib
                .find_kind(kind, strength)
                .ok_or_else(|| QueryError::UnknownStrength {
                    kind: kind.prefix().to_string(),
                    strength,
                })?;
        self.resize_gate_cell(gate, cell)
    }

    /// Resizes a gate to an explicit library cell and updates the affected
    /// timing cone. Returns the new worst primary-output quantiles.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownCell`] when the timer has no calibration for
    /// the replacement cell.
    pub fn resize_gate_cell(
        &mut self,
        gate: GateId,
        cell: nsigma_cells::CellId,
    ) -> Result<QuantileSet, QueryError> {
        self.compiled
            .resize_gate_cell(self.timer.borrow(), gate, cell)?;
        self.ranked
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .paths = None;

        // Seeds: the resized gate plus the drivers of its fanin nets (their
        // output load changed through the new pin capacitance).
        self.seed_gate[gate.index()] = true;
        let design = self.compiled.design();
        for &net in self.compiled.csr().fanins(gate.index()) {
            if let NetDriver::Gate(driver) =
                design.netlist.net(NetId::from_index(net as usize)).driver
            {
                self.seed_gate[driver.index()] = true;
            }
        }
        self.recompute(false);
        Ok(self.analyze_design())
    }

    /// Walks the topo order, recomputing any gate that is a seed or reads
    /// a dirty net (every gate when `full`), and marks an output net dirty
    /// exactly when the bits of its arrival or slew change. The seed/dirty
    /// flags are persistent vectors cleared on exit, so a resize allocates
    /// nothing.
    fn recompute(&mut self, full: bool) {
        let timer = self.timer.borrow();
        let bound = Bound::Late(self.rule);
        let mut count = 0;
        for &g in &self.compiled.csr().order {
            let gi = g.index();
            let needs = full
                || self.seed_gate[gi]
                || self
                    .compiled
                    .csr()
                    .fanins(gi)
                    .iter()
                    .any(|&i| self.dirty_net[i as usize]);
            if !needs {
                continue;
            }
            count += 1;
            let u = self
                .compiled
                .propagate_gate(timer, bound, g, &self.arrival, &self.slew);
            let changed = u.slew.to_bits() != self.slew[u.net].to_bits()
                || u.arrival.as_array().map(f64::to_bits)
                    != self.arrival[u.net].as_array().map(f64::to_bits);
            self.arrival[u.net] = u.arrival;
            self.slew[u.net] = u.slew;
            self.dirty_net[u.net] = changed;
        }
        // Restore the all-false invariant for the next edit.
        self.seed_gate.iter_mut().for_each(|f| *f = false);
        self.dirty_net.iter_mut().for_each(|f| *f = false);
        self.last_recompute = count;
    }
}

impl<B: Borrow<NsigmaTimer>> std::fmt::Debug for TimingSession<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimingSession")
            .field("gates", &self.compiled.order().len())
            .field("rule", &self.rule)
            .field("last_recompute", &self.last_recompute)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::sta::TimerConfig;
    use nsigma_cells::cell::{Cell, CellKind};
    use nsigma_cells::CellLibrary;
    use nsigma_netlist::generators::arith::ripple_adder;
    use nsigma_netlist::mapping::map_to_cells;
    use nsigma_process::Technology;
    use nsigma_stats::quantile::SigmaLevel;

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
        let netlist = map_to_cells(&ripple_adder(8), &lib).unwrap();
        let design = Design::with_generated_parasitics(tech.clone(), lib.clone(), netlist, 9);
        let mut cfg = TimerConfig::standard(13);
        cfg.char_samples = 800;
        cfg.wire.nets = 1;
        cfg.wire.samples = 400;
        let timer = NsigmaTimer::build(&tech, &lib, &cfg).unwrap();
        (timer, design)
    }

    #[test]
    fn initial_analysis_matches_batch() {
        let (timer, design) = setup();
        let batch = reference::analyze_design(&timer, &design);
        let session = TimingSession::new(&timer, design, MergeRule::Pessimistic).unwrap();
        assert_eq!(session.analyze_design().as_array(), batch.as_array());
    }

    #[test]
    fn resize_matches_fresh_analysis_and_touches_a_subset() {
        let (timer, design) = setup();
        let total_gates = design.netlist.num_gates();
        let mut session =
            TimingSession::new(&timer, design.clone(), MergeRule::Pessimistic).unwrap();

        // Upsize a gate in the middle of the carry chain.
        let victim = session.compiled().order()[total_gates / 2];
        let after = session.resize_gate(victim, 8).unwrap();

        // Fresh analysis on an identically-edited design agrees exactly.
        let mut fresh = design;
        let cell = fresh
            .lib
            .find_kind(fresh.lib.cell(fresh.netlist.gate(victim).cell).kind(), 8)
            .unwrap();
        fresh.replace_gate_cell(victim, cell);
        let batch = reference::analyze_design(&timer, &fresh);
        assert_eq!(after.as_array(), batch.as_array());
        // And the recompute stayed local.
        assert!(
            session.last_recompute_count() < total_gates,
            "recomputed {}/{} gates",
            session.last_recompute_count(),
            total_gates
        );
        assert!(session.last_recompute_count() >= 1);
    }

    #[test]
    fn upsizing_the_endpoint_driver_changes_timing() {
        let (timer, design) = setup();
        let mut session = TimingSession::new(&timer, design, MergeRule::Pessimistic).unwrap();
        let last = *session.compiled().order().last().unwrap();
        let before = session.analyze_design();
        let after = session.resize_gate(last, 8).unwrap();
        assert!(
            (after[SigmaLevel::PlusThree] - before[SigmaLevel::PlusThree]).abs() > 0.0,
            "resizing the endpoint driver must move the worst arrival"
        );
    }

    #[test]
    fn repeated_resizes_stay_consistent() {
        let (timer, design) = setup();
        let mut session =
            TimingSession::new(&timer, design.clone(), MergeRule::Pessimistic).unwrap();
        let order = session.compiled().order().to_vec();
        let mut edited = design;
        for (k, &g) in order.iter().step_by(7).enumerate() {
            let s = [2u32, 4, 8][k % 3];
            session.resize_gate(g, s).unwrap();
            let kind = edited.lib.cell(edited.netlist.gate(g).cell).kind();
            let cell = edited.lib.find_kind(kind, s).unwrap();
            edited.replace_gate_cell(g, cell);
        }
        let batch = reference::analyze_design(&timer, &edited);
        assert_eq!(session.analyze_design().as_array(), batch.as_array());
    }

    #[test]
    fn typed_errors_replace_panics() {
        let (timer, design) = setup();
        let mut session =
            TimingSession::new(&timer, design.clone(), MergeRule::Pessimistic).unwrap();

        let gate = GateId::from_index(0);
        let err = session.resize_gate(gate, 999).unwrap_err();
        assert!(matches!(
            err,
            QueryError::UnknownStrength { strength: 999, .. }
        ));
        assert_eq!(err.code(), "bad_request");

        let bogus = GateId::from_index(design.netlist.num_gates() + 7);
        let err = session.resize_gate(bogus, 2).unwrap_err();
        assert!(matches!(err, QueryError::UnknownGate { .. }));
        assert_eq!(err.code(), "not_found");

        let err = session.path_by_rank(usize::MAX - 1).unwrap_err();
        assert!(matches!(err, QueryError::NoSuchPath { .. }));

        // A design over a cell the timer never saw fails at build time.
        let mut big_lib = CellLibrary::new();
        for kind in [
            CellKind::Inv,
            CellKind::Buf,
            CellKind::Nand2,
            CellKind::Xor2,
            CellKind::Nor2,
        ] {
            for s in [1, 2, 4, 8] {
                big_lib.add(Cell::new(kind, s));
            }
        }
        let tech = Technology::synthetic_28nm();
        let nl = map_to_cells(&ripple_adder(2), &big_lib).unwrap();
        let foreign = Design::with_generated_parasitics(tech, big_lib, nl, 3);
        match TimingSession::new(&timer, foreign, MergeRule::Pessimistic) {
            Ok(_) => {} // mapping may avoid the uncalibrated kind entirely
            Err(e) => assert_eq!(e.code(), "unknown_cell"),
        }
    }

    #[test]
    fn session_queries_match_reference() {
        let (timer, design) = setup();
        let session = TimingSession::new(&timer, design.clone(), MergeRule::Pessimistic).unwrap();

        let late = session.analyze_design();
        let reference_late = reference::analyze_design(&timer, &design);
        assert_eq!(late.as_array(), reference_late.as_array());

        let early = session.analyze_design_early();
        let reference_early = reference::analyze_design_early(&timer, &design);
        assert_eq!(early.as_array(), reference_early.as_array());

        let (path, timing) = session.critical_path().unwrap();
        let reference_timing = reference::analyze_path(&timer, &design, &path);
        assert_eq!(timing, reference_timing);
    }
}
