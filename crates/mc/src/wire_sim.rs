//! Golden Monte-Carlo wire simulation.
//!
//! Per trial, the driver cell's sampled on-current sets a driver resistance,
//! every wire segment gets global + local R/C variation, and sampled load
//! pin capacitances land on the sinks.
//!
//! **Wire-delay definition.** The golden uses the delay-calculator
//! decomposition of SDF/LVF flows: the wire delay of a sink is the total
//! source→sink delay minus the driver cell's *model* delay at the lumped
//! total load. That residual carries the root→sink lag *and* the mismatch
//! between the lumped-C cell model and the true distributed charging
//! (resistive shielding, driver waveform shape) — which is precisely the
//! cell/wire interaction of the paper's title, and why its σ_w/μ_w depends
//! on the driver and load cells (eq. 5–7). The total source→sink delay is
//! measured by backward-Euler transient (reference) or by the driver-folded
//! two-pole model (fast circuit-scale mode).
//!
//! **The kernel.** [`WirePlan`] flattens each net once into parent-index,
//! R and C arrays; [`WirePlan::sample`] then draws one trial's factors into
//! a reusable [`WireScratch`] and computes the two-pole moments in place,
//! with the sampled driver resistance folded in as node 0's edge. Every
//! Monte-Carlo caller goes through it; [`sample_wire`] is a one-net wrapper.
//! The nominal callers use the same moment pass: [`WirePlan::nominal`]
//! evaluates the nominal parasitics at the nominal driver resistance, and
//! [`golden_scales`] and the wire model's `μ_w` mean are built on it.

use crate::result::McResult;
use nsigma_cells::Cell;
use nsigma_interconnect::metrics::two_pole_delay;
use nsigma_interconnect::rctree::RcTree;
use nsigma_interconnect::transient::{simulate_ramp, TransientConfig};
use nsigma_process::{GlobalSample, Technology, VariationModel};
use nsigma_stats::par;
use nsigma_stats::rng::SeedStream;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::time::Instant;

/// How the golden evaluates each sampled wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireGoldenMode {
    /// Backward-Euler transient — the reference, O(nodes × steps) per trial.
    Transient,
    /// Two-pole moment model with the driver folded in — ~10³× faster,
    /// within a few percent of the transient on tree nets.
    TwoPole,
}

/// Configuration of a wire Monte-Carlo run.
#[derive(Debug, Clone, PartialEq)]
pub struct WireMcConfig {
    /// Number of trials (paper: 10 000).
    pub samples: usize,
    /// Master seed.
    pub seed: u64,
    /// Input transition time at the driver (s).
    pub input_slew: f64,
    /// Evaluation mode.
    pub mode: WireGoldenMode,
}

impl WireMcConfig {
    /// 10 k transient-mode samples — the paper's wire-experiment setting.
    pub fn paper(seed: u64) -> Self {
        Self {
            samples: 10_000,
            seed,
            input_slew: 10e-12,
            mode: WireGoldenMode::Transient,
        }
    }
}

/// One sampled wire evaluation: per-sink delays plus the sampled total
/// capacitance (wire + load pins) the driver sees.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSample {
    /// Per-sink wire delay (s) under the delay-calculator decomposition,
    /// in `tree.sinks()` order.
    pub delays: Vec<f64>,
    /// Total sampled capacitance of the net (F).
    pub total_cap: f64,
    /// The effective capacitance (F) the cell model was evaluated at —
    /// the load the consistent path decomposition must hand the cell arc.
    pub c_eff: f64,
}

/// RC nets flattened once for the per-trial golden kernel.
///
/// Each slot holds one net's tree as parent-index, R and C arrays (node 0
/// is the driver pin, parents precede children), its sink node indices,
/// the nominal load-pin caps and golden scales in sink order, and the
/// driver's nominal `drive_resistance`. A slot without sinks is unwired:
/// the caller falls back to the driver's own output parasitic.
///
/// [`WirePlan::sample`] is the only implementation of the sampled-wire
/// physics; [`sample_wire`], the path walk and the circuit trial walk all
/// call it.
#[derive(Debug, Clone, Default)]
pub struct WirePlan {
    /// Offsets into the node arrays, one per slot plus a trailing entry.
    node_start: Vec<usize>,
    /// Parent of each node, local to its net (0 for the root).
    parent: Vec<u32>,
    /// Nominal segment resistance into each node (Ω; 0 for the root).
    res: Vec<f64>,
    /// Nominal grounded capacitance at each node (F).
    cap: Vec<f64>,
    /// Offsets into the sink arrays, one per slot plus a trailing entry.
    sink_start: Vec<usize>,
    /// Local node index of each sink.
    sink_node: Vec<u32>,
    /// Nominal input cap of the load pin at each sink (F).
    pin_cap: Vec<f64>,
    /// Golden transient/two-pole scale of each sink.
    scale: Vec<f64>,
    /// Nominal driver resistance per slot (Ω), for the shielding factor.
    rd_nom: Vec<f64>,
}

/// Per-worker buffers of the wire kernel, reused across nets and trials.
#[derive(Debug, Clone, Default)]
pub struct WireScratch {
    res: Vec<f64>,
    cap: Vec<f64>,
    down: Vec<f64>,
    m1: Vec<f64>,
    m2: Vec<f64>,
    delays: Vec<f64>,
}

impl WireScratch {
    /// Per-sink delays (s) of the last [`WirePlan::sample`] (unscaled) or
    /// [`WirePlan::nominal`] (unbaselined), in sink order.
    pub fn delays(&self) -> &[f64] {
        &self.delays
    }

    /// Grows every buffer to hold a net of `nodes` nodes and `sinks` sinks
    /// (a no-op once the largest net has been seen).
    fn fit(&mut self, nodes: usize, sinks: usize) {
        if self.res.len() < nodes {
            for buf in [
                &mut self.res,
                &mut self.cap,
                &mut self.down,
                &mut self.m1,
                &mut self.m2,
            ] {
                buf.resize(nodes, 0.0);
            }
        }
        self.delays.resize(sinks, 0.0);
    }
}

/// The sampled totals of one net evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetSample {
    /// Total sampled capacitance of the net, wire plus load pins (F).
    pub total_cap: f64,
    /// The shield-reduced effective load the driver's cell arc sees (F).
    pub c_eff: f64,
}

impl WirePlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self {
            node_start: vec![0],
            sink_start: vec![0],
            ..Self::default()
        }
    }

    /// Appends an unwired slot and returns its index.
    pub fn push_unwired(&mut self) -> usize {
        self.node_start.push(self.parent.len());
        self.sink_start.push(self.sink_node.len());
        self.rd_nom.push(0.0);
        self.rd_nom.len() - 1
    }

    /// Appends a net driven by `driver` into `loads` (one per sink, in sink
    /// order), with per-sink golden `scales` (1 when `None`), and returns
    /// its slot. A tree without sinks gives an unwired slot.
    ///
    /// # Panics
    ///
    /// Panics if `loads` (or `scales`) does not have one entry per sink.
    pub fn push_net(
        &mut self,
        tech: &Technology,
        tree: &RcTree,
        driver: &Cell,
        loads: &[&Cell],
        scales: Option<&[f64]>,
    ) -> usize {
        let sinks = tree.sinks();
        assert_eq!(loads.len(), sinks.len(), "one load cell per tree sink");
        for id in tree.topo_order() {
            self.parent
                .push(tree.parent(id).map_or(0, |p| p.index() as u32));
            self.res.push(tree.res(id));
            self.cap.push(tree.cap(id));
        }
        self.sink_node
            .extend(sinks.iter().map(|s| s.index() as u32));
        self.pin_cap.extend(loads.iter().map(|c| c.input_cap(tech)));
        match scales {
            Some(sc) => {
                assert_eq!(sc.len(), sinks.len(), "one golden scale per tree sink");
                self.scale.extend_from_slice(sc);
            }
            None => self.scale.extend(std::iter::repeat_n(1.0, sinks.len())),
        }
        self.node_start.push(self.parent.len());
        self.sink_start.push(self.sink_node.len());
        self.rd_nom.push(driver.drive_resistance(tech));
        self.rd_nom.len() - 1
    }

    /// True if the slot carries a net with at least one sink.
    pub fn is_wired(&self, slot: usize) -> bool {
        self.sink_start[slot + 1] > self.sink_start[slot]
    }

    /// Golden per-sink scales of a slot, in sink order.
    pub fn scales(&self, slot: usize) -> &[f64] {
        &self.scale[self.sink_start[slot]..self.sink_start[slot + 1]]
    }

    /// A scratch sized for the largest net in the plan.
    pub fn scratch(&self) -> WireScratch {
        let nodes = self.node_start.windows(2).map(|w| w[1] - w[0]);
        let sinks = self.sink_start.windows(2).map(|w| w[1] - w[0]);
        let mut scratch = WireScratch::default();
        scratch.fit(nodes.max().unwrap_or(0), sinks.max().unwrap_or(0));
        scratch
    }

    /// One sampled two-pole evaluation of a wired slot: draws the R, C and
    /// load-pin factors, then computes the driver-folded moments in place.
    /// The per-sink delays land in [`WireScratch::delays`].
    ///
    /// `driver` is the net's driver cell and `driver_dvth_local` its local
    /// threshold sample — the *same* one its cell arc uses; that shared
    /// sample is the cell/wire interaction the paper models. Draw order:
    /// one R factor per node, one C factor per node, one pin factor per
    /// sink. Allocation-free once `scratch` has seen the largest net.
    ///
    /// # Panics
    ///
    /// Panics on a slot from [`WirePlan::push_unwired`], which has no nodes;
    /// callers check [`WirePlan::is_wired`] first.
    #[allow(clippy::too_many_arguments)]
    pub fn sample<R: Rng + ?Sized>(
        &self,
        slot: usize,
        tech: &Technology,
        variation: &VariationModel,
        driver: &Cell,
        global: &GlobalSample,
        driver_dvth_local: f64,
        rng: &mut R,
        scratch: &mut WireScratch,
    ) -> NetSample {
        self.evaluate(
            slot,
            tech,
            variation,
            driver,
            global,
            driver_dvth_local,
            rng,
            scratch,
            0.0,
            WireGoldenMode::TwoPole,
        )
    }

    /// [`WirePlan::sample`] for the one sink at position `pos` (in sink
    /// order) that the caller reads: the same draws and moments, but only
    /// that sink's two-pole delay, which is returned unscaled. The other
    /// entries of [`WireScratch::delays`] are left stale.
    ///
    /// # Panics
    ///
    /// Panics on an unwired slot or if `pos` is not a sink of the slot.
    #[allow(clippy::too_many_arguments)]
    pub fn sample_sink<R: Rng + ?Sized>(
        &self,
        slot: usize,
        pos: usize,
        tech: &Technology,
        variation: &VariationModel,
        driver: &Cell,
        global: &GlobalSample,
        driver_dvth_local: f64,
        rng: &mut R,
        scratch: &mut WireScratch,
    ) -> (NetSample, f64) {
        let (rd, totals) = self.draw(
            slot,
            tech,
            variation,
            driver,
            global,
            driver_dvth_local,
            rng,
            scratch,
        );
        let lumped = core::f64::consts::LN_2 * (rd * totals.c_eff);
        self.two_pole(slot, rd, lumped, scratch, pos..pos + 1);
        (totals, scratch.delays[pos])
    }

    /// [`WirePlan::sample`] in either golden mode (`input_slew` only
    /// matters to the transient).
    #[allow(clippy::too_many_arguments)]
    fn evaluate<R: Rng + ?Sized>(
        &self,
        slot: usize,
        tech: &Technology,
        variation: &VariationModel,
        driver: &Cell,
        global: &GlobalSample,
        driver_dvth_local: f64,
        rng: &mut R,
        scratch: &mut WireScratch,
        input_slew: f64,
        mode: WireGoldenMode,
    ) -> NetSample {
        let (rd, totals) = self.draw(
            slot,
            tech,
            variation,
            driver,
            global,
            driver_dvth_local,
            rng,
            scratch,
        );
        // The subtracted baseline is the SAME driver resistance charging the
        // *effective* (shield-reduced, at nominal R_drv) lumped capacitance —
        // the delay-calculator picture of the cell driving its library load.
        // The sampled R_drv deviations appear in BOTH terms; their imperfect
        // cancellation across the real tree vs the lumped load is the
        // cell/wire interaction variability of the paper's eq. (7).
        let tau = rd * totals.c_eff;
        match mode {
            WireGoldenMode::TwoPole => {
                let sinks = self.sink_start[slot + 1] - self.sink_start[slot];
                let lumped = core::f64::consts::LN_2 * tau;
                self.two_pole(slot, rd, lumped, scratch, 0..sinks);
            }
            WireGoldenMode::Transient => self.transient(slot, tech, rd, tau, input_slew, scratch),
        }
        totals
    }

    /// Sampled R/C and pin caps into `scratch.res` / `scratch.cap`; returns
    /// the sampled driver resistance and the net's totals.
    #[allow(clippy::too_many_arguments)]
    fn draw<R: Rng + ?Sized>(
        &self,
        slot: usize,
        tech: &Technology,
        variation: &VariationModel,
        driver: &Cell,
        global: &GlobalSample,
        driver_dvth_local: f64,
        rng: &mut R,
        scratch: &mut WireScratch,
    ) -> (f64, NetSample) {
        let (n0, n1) = (self.node_start[slot], self.node_start[slot + 1]);
        let (s0, s1) = (self.sink_start[slot], self.sink_start[slot + 1]);
        let n = n1 - n0;
        scratch.fit(n, s1 - s0);

        // Driver resistance from the sampled on-current.
        let stack = driver.worst_stack();
        let i_on = stack.drive_current(tech, global.dvth + driver_dvth_local, global.mobility);
        let rd = tech.vdd / (2.0 * i_on);

        // Sampled parasitics: global corner × per-segment local jitter.
        let res = &mut scratch.res[..n];
        for (r, &nominal) in res.iter_mut().zip(&self.res[n0..n1]) {
            *r = nominal * (global.wire_res_scale * variation.sample_wire_local(rng));
        }
        let cap = &mut scratch.cap[..n];
        for (c, &nominal) in cap.iter_mut().zip(&self.cap[n0..n1]) {
            *c = nominal * (global.wire_cap_scale * variation.sample_wire_local(rng));
        }
        // Sampled load pin caps at the sinks.
        for (&node, &pin) in self.sink_node[s0..s1].iter().zip(&self.pin_cap[s0..s1]) {
            cap[node as usize] += pin * variation.sample_wire_local(rng);
        }
        (rd, self.totals(slot, scratch))
    }

    /// The nominal evaluation of a wired slot: the nominal R/C with the
    /// nominal load-pin caps at the sinks, driven through the driver's
    /// nominal resistance. Writes the *unbaselined* source→sink two-pole
    /// delays into [`WireScratch::delays`]; each caller subtracts its own
    /// lumped baseline, because the association of `ln2·R_drv·C_eff`
    /// changes the last bit of the result.
    ///
    /// # Panics
    ///
    /// Panics on a slot from [`WirePlan::push_unwired`].
    pub fn nominal(&self, slot: usize, scratch: &mut WireScratch) -> NetSample {
        let (n0, n1) = (self.node_start[slot], self.node_start[slot + 1]);
        let (s0, s1) = (self.sink_start[slot], self.sink_start[slot + 1]);
        let n = n1 - n0;
        scratch.fit(n, s1 - s0);
        scratch.res[..n].copy_from_slice(&self.res[n0..n1]);
        let cap = &mut scratch.cap[..n];
        cap.copy_from_slice(&self.cap[n0..n1]);
        for (&node, &pin) in self.sink_node[s0..s1].iter().zip(&self.pin_cap[s0..s1]) {
            cap[node as usize] += pin;
        }
        let totals = self.totals(slot, scratch);
        self.two_pole(slot, self.rd_nom[slot], 0.0, scratch, 0..s1 - s0);
        totals
    }

    /// Total capacitance of the slot's values in `scratch` and the
    /// effective load at the driver's nominal resistance.
    fn totals(&self, slot: usize, scratch: &WireScratch) -> NetSample {
        let n = self.node_start[slot + 1] - self.node_start[slot];
        let total_cap: f64 = scratch.cap[..n].iter().sum();
        let total_res: f64 = scratch.res[..n].iter().sum();
        let c_eff = shielded_cap(total_cap, total_res, self.rd_nom[slot]);
        NetSample { total_cap, c_eff }
    }

    /// Step-response source→sink two-pole delay minus the baseline `lumped`
    /// at the sinks in `sinks` (positions in sink order), from the R/C
    /// values in `scratch`.
    ///
    /// The moments are those of the tree with `rd` folded in as node 0's
    /// edge from an ideal source: `m1(i) = m1(parent) + R_i · C_down(i)`
    /// and the same recursion for m2 with node weights `C_k · m1(k)`.
    fn two_pole(
        &self,
        slot: usize,
        rd: f64,
        lumped: f64,
        scratch: &mut WireScratch,
        sinks: Range<usize>,
    ) {
        let (n0, n1) = (self.node_start[slot], self.node_start[slot + 1]);
        let sink_node =
            &self.sink_node[self.sink_start[slot]..self.sink_start[slot + 1]][sinks.clone()];
        let n = n1 - n0;
        let parent = &self.parent[n0..n1];
        let res = &scratch.res[..n];
        let cap = &scratch.cap[..n];
        let down = &mut scratch.down[..n];
        let m1 = &mut scratch.m1[..n];
        let m2 = &mut scratch.m2[..n];

        // m1: downstream caps leaves-first, then root-to-leaf accumulation.
        down.copy_from_slice(cap);
        for i in (1..n).rev() {
            down[parent[i] as usize] += down[i];
        }
        m1[0] = rd * down[0];
        for i in 1..n {
            m1[i] = m1[parent[i] as usize] + res[i] * down[i];
        }
        // m2: the same two passes with node weights C_k · m1(k).
        for i in 0..n {
            down[i] = cap[i] * m1[i];
        }
        for i in (1..n).rev() {
            down[parent[i] as usize] += down[i];
        }
        m2[0] = rd * down[0];
        for i in 1..n {
            m2[i] = m2[parent[i] as usize] + res[i] * down[i];
        }

        for (d, &node) in scratch.delays[sinks].iter_mut().zip(sink_node) {
            let k = node as usize;
            *d = two_pole_delay(m1[k].max(1e-18), m2[k].max(1e-33)) - lumped;
        }
    }

    /// Transient-mode delays: rebuilds the sampled tree from `scratch` and
    /// runs the ramp-driven backward-Euler reference, driven through `rd`,
    /// minus the lumped ramp crossing of time constant `tau`.
    fn transient(
        &self,
        slot: usize,
        tech: &Technology,
        rd: f64,
        tau: f64,
        input_slew: f64,
        scratch: &mut WireScratch,
    ) {
        let (n0, n1) = (self.node_start[slot], self.node_start[slot + 1]);
        let (s0, s1) = (self.sink_start[slot], self.sink_start[slot + 1]);
        let n = n1 - n0;
        let mut sampled = RcTree::new(scratch.cap[0]);
        let mut ids = Vec::with_capacity(n);
        ids.push(RcTree::root());
        for i in 1..n {
            let parent = ids[self.parent[n0 + i] as usize];
            ids.push(sampled.add_node(parent, scratch.res[i], scratch.cap[i]));
        }
        for &node in &self.sink_node[s0..s1] {
            sampled.mark_sink(ids[node as usize]);
        }
        // Ramp-driven: sink 50 % crossing minus the lumped-load 50 %
        // crossing under the same ramp.
        let lumped = lumped_t50_ramp(tau, input_slew);
        let cfg = TransientConfig::auto(&sampled, tech.vdd, input_slew, rd);
        let res = simulate_ramp(&sampled, &cfg);
        for (d, &c) in scratch.delays.iter_mut().zip(&res.sink_cross) {
            *d = c - lumped;
        }
    }
}

/// One sampled evaluation of a wire.
///
/// The driver's threshold sample should be the *same* one used for its cell
/// delay in path simulation — that shared sample is the cell/wire
/// interaction the paper models. This flattens `tree` into a one-slot
/// [`WirePlan`] and runs its kernel; per-trial loops should build the plan
/// once and call [`WirePlan::sample`] instead.
#[allow(clippy::too_many_arguments)]
pub fn sample_wire<R: Rng + ?Sized>(
    tech: &Technology,
    variation: &VariationModel,
    tree: &RcTree,
    driver: &Cell,
    loads: &[&Cell],
    input_slew: f64,
    global: &GlobalSample,
    driver_dvth_local: f64,
    rng: &mut R,
    mode: WireGoldenMode,
) -> WireSample {
    let mut plan = WirePlan::new();
    plan.push_net(tech, tree, driver, loads, None);
    let mut scratch = plan.scratch();
    let totals = plan.evaluate(
        0,
        tech,
        variation,
        driver,
        global,
        driver_dvth_local,
        rng,
        &mut scratch,
        input_slew,
        mode,
    );
    WireSample {
        delays: scratch.delays,
        total_cap: totals.total_cap,
        c_eff: totals.c_eff,
    }
}

/// 50 % crossing time (absolute, from ramp start) of a single RC with time
/// constant `tau` driven by a saturated 0→V ramp of duration `slew`.
///
/// Closed-form response: `v(t) = (t − τ(1−e^{−t/τ}))/S` during the ramp and
/// `v(t) = 1 − (τ/S)(1−e^{−S/τ})e^{−(t−S)/τ}` after it; the crossing is
/// found by bisection (60 iterations, exact to f64 noise).
fn lumped_t50_ramp(tau: f64, slew: f64) -> f64 {
    let tau = tau.max(1e-18);
    let slew = slew.max(1e-18);
    let v = |t: f64| {
        if t <= slew {
            (t - tau * (1.0 - (-t / tau).exp())) / slew
        } else {
            1.0 - (tau / slew) * (1.0 - (-slew / tau).exp()) * (-(t - slew) / tau).exp()
        }
    };
    let mut lo = 0.0;
    let mut hi = slew + 20.0 * tau;
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if v(mid) < 0.5 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// The effective capacitance the delay calculator hands the cell model:
/// the lumped total reduced by resistive shielding, with the shielding
/// factor evaluated at the driver's *nominal* resistance.
///
/// `C_eff = C_total · (1 − ½ · R_w/(R_w + 3·R_drv))` — the one-parameter
/// form of the classic 2-π effective-capacitance reduction: no shielding
/// for strong wires behind weak drivers, up to 50 % for resistive wires
/// behind strong drivers.
pub fn effective_cap(tech: &Technology, driver: &Cell, tree: &RcTree, total_cap: f64) -> f64 {
    shielded_cap(total_cap, tree.total_res(), driver.drive_resistance(tech))
}

/// [`effective_cap`] from the net's total wire resistance `rw` and the
/// driver's nominal resistance `rd_nom`.
fn shielded_cap(total_cap: f64, rw: f64, rd_nom: f64) -> f64 {
    let shield = rw / (rw + 3.0 * rd_nom);
    total_cap * (1.0 - 0.5 * shield)
}

/// Slew (s) of the ramp that drives the nominal transient of
/// [`golden_scales`].
const NOMINAL_SLEW: f64 = 10e-12;

/// Time steps of the nominal transient over its window (reduced from the
/// per-trial default: it runs once per net).
const NOMINAL_STEPS: f64 = 4000.0;

/// Per-sink golden calibration of a net driven by `driver` into `loads`
/// (one per sink): the nominal transient lag over the nominal two-pole lag,
/// both under the delay-calculator decomposition. Multiplying the fast
/// two-pole golden by this factor anchors it to the transient reference (a
/// control variate). Degenerate tiny wires get 1; the ratio is clamped to
/// `[0.3, 3]`.
///
/// # Panics
///
/// Panics if `loads` does not have one entry per sink.
pub fn golden_scales(tech: &Technology, tree: &RcTree, driver: &Cell, loads: &[&Cell]) -> Vec<f64> {
    let mut plan = WirePlan::new();
    let slot = plan.push_net(tech, tree, driver, loads, None);
    let mut scratch = plan.scratch();
    let totals = plan.nominal(slot, &mut scratch);
    let rd = plan.rd_nom[slot];
    let tau = rd * totals.c_eff;
    let mut loaded = tree.clone();
    for (k, &sink) in tree.sinks().iter().enumerate() {
        loaded.add_cap(sink, loads[k].input_cap(tech));
    }
    let mut cfg = TransientConfig::auto(&loaded, tech.vdd, NOMINAL_SLEW, rd);
    cfg.dt = (cfg.t_max / NOMINAL_STEPS).max(1e-16);
    let reference = simulate_ramp(&loaded, &cfg);
    let cell_ramp = lumped_t50_ramp(tau, NOMINAL_SLEW);
    let cell_step = core::f64::consts::LN_2 * tau;
    scratch
        .delays()
        .iter()
        .zip(&reference.sink_cross)
        .map(|(&two_pole, &cross)| {
            let tp = two_pole - cell_step;
            let tr = cross - cell_ramp;
            if tp.abs() < 0.02e-12 || tr.abs() < 0.02e-12 {
                1.0
            } else {
                (tr / tp).clamp(0.3, 3.0)
            }
        })
        .collect()
}

/// Runs the full wire Monte Carlo, returning one [`McResult`] per sink.
///
/// # Panics
///
/// Panics if `cfg.samples == 0` or loads don't match sinks.
///
/// # Examples
///
/// ```
/// use nsigma_cells::cell::{Cell, CellKind};
/// use nsigma_interconnect::rctree::RcTree;
/// use nsigma_mc::wire_sim::{simulate_wire_mc, WireGoldenMode, WireMcConfig};
/// use nsigma_process::Technology;
///
/// let tech = Technology::synthetic_28nm();
/// let mut tree = RcTree::new(0.05e-15);
/// let sink = tree.add_node(RcTree::root(), 300.0, 1.5e-15);
/// tree.mark_sink(sink);
/// let drv = Cell::new(CellKind::Inv, 4);
/// let load = Cell::new(CellKind::Inv, 4);
/// let cfg = WireMcConfig { samples: 200, seed: 1, input_slew: 10e-12,
///                          mode: WireGoldenMode::TwoPole };
/// let results = simulate_wire_mc(&tech, &tree, &drv, &[&load], &cfg);
/// assert!(results[0].moments.mean > 0.0);
/// ```
pub fn simulate_wire_mc(
    tech: &Technology,
    tree: &RcTree,
    driver: &Cell,
    loads: &[&Cell],
    cfg: &WireMcConfig,
) -> Vec<McResult> {
    assert!(cfg.samples > 0, "wire MC needs samples");
    let variation = VariationModel::new(tech);
    let seeds = SeedStream::new(cfg.seed);
    let start = Instant::now();
    let n_sinks = tree.sinks().len();
    let driver_sigma = driver.worst_stack().effective_local_sigma(tech);

    let mut plan = WirePlan::new();
    plan.push_net(tech, tree, driver, loads, None);

    // Per-trial tagged seeds keep the result independent of threading.
    let mut flat = vec![0.0f64; cfg.samples * n_sinks];
    let mut scratches: Vec<_> = (0..par::host_threads()).map(|_| plan.scratch()).collect();
    par::fill(&mut flat, n_sinks, &mut scratches, |trial, scratch, out| {
        let mut rng = SmallRng::seed_from_u64(seeds.tagged_seed(trial as u64));
        let global = variation.sample_global(&mut rng);
        let dloc = variation.sample_local_vth(&mut rng, driver_sigma);
        plan.evaluate(
            0,
            tech,
            &variation,
            driver,
            &global,
            dloc,
            &mut rng,
            scratch,
            cfg.input_slew,
            cfg.mode,
        );
        out.copy_from_slice(scratch.delays());
    })
    .expect("wire MC worker panicked");

    let elapsed = start.elapsed();
    (0..n_sinks)
        .map(|k| {
            let samples: Vec<f64> = (0..cfg.samples).map(|i| flat[i * n_sinks + k]).collect();
            McResult::from_samples(samples, elapsed)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsigma_cells::cell::CellKind;
    use nsigma_interconnect::elmore::{elmore_delay, moments_all};
    use nsigma_interconnect::generator::{generate_net, random_net, NetGenConfig};
    use nsigma_interconnect::rctree::NodeId;
    use proptest::prelude::*;

    /// Folds a driver resistance into a tree: returns the extended tree, the
    /// image of the original root, and the images of the original sinks.
    fn fold_driver(tree: &RcTree, driver_res: f64) -> (RcTree, NodeId, Vec<NodeId>) {
        let mut out = RcTree::new(1e-21);
        let mut map = Vec::with_capacity(tree.len());
        // Old root hangs off the new source through the driver resistance.
        let root_img = out.add_node(RcTree::root(), driver_res, tree.cap(RcTree::root()));
        map.push(root_img);
        for id in tree.topo_order().skip(1) {
            let parent_img = map[tree.parent(id).expect("non-root").index()];
            let img = out.add_node(parent_img, tree.res(id), tree.cap(id));
            map.push(img);
        }
        let sinks = tree.sinks().iter().map(|s| map[s.index()]).collect();
        (out, root_img, sinks)
    }

    /// The tree-based evaluation the flat kernel replaced: clone-and-scale
    /// the tree, fold the driver in as a new root edge, and take the moments
    /// of the folded tree. Kept as the bit-for-bit oracle of [`WirePlan`].
    #[allow(clippy::too_many_arguments)]
    fn oracle_sample_wire<R: Rng + ?Sized>(
        tech: &Technology,
        variation: &VariationModel,
        tree: &RcTree,
        driver: &Cell,
        loads: &[&Cell],
        input_slew: f64,
        global: &GlobalSample,
        driver_dvth_local: f64,
        rng: &mut R,
        mode: WireGoldenMode,
    ) -> WireSample {
        let stack = driver.worst_stack();
        let i_on = stack.drive_current(tech, global.dvth + driver_dvth_local, global.mobility);
        let rd = tech.vdd / (2.0 * i_on);
        let res_factors: Vec<f64> = (0..tree.len())
            .map(|_| global.wire_res_scale * variation.sample_wire_local(rng))
            .collect();
        let cap_factors: Vec<f64> = (0..tree.len())
            .map(|_| global.wire_cap_scale * variation.sample_wire_local(rng))
            .collect();
        let mut sampled = tree.scaled_with(
            |id, r| r * res_factors[id.index()],
            |id, c| c * cap_factors[id.index()],
        );
        for (k, &sink) in tree.sinks().iter().enumerate() {
            let pin = loads[k].input_cap(tech) * variation.sample_wire_local(rng);
            sampled.add_cap(sink, pin);
        }
        let total_cap = sampled.total_cap();
        let c_eff = effective_cap(tech, driver, &sampled, total_cap);
        let tau = rd * c_eff;
        let delays = match mode {
            WireGoldenMode::Transient => {
                let lumped = lumped_t50_ramp(tau, input_slew);
                let cfg = TransientConfig::auto(&sampled, tech.vdd, input_slew, rd);
                let res = simulate_ramp(&sampled, &cfg);
                res.sink_cross.iter().map(|&c| c - lumped).collect()
            }
            WireGoldenMode::TwoPole => {
                let lumped = core::f64::consts::LN_2 * tau;
                let (folded, _root_img, sink_imgs) = fold_driver(&sampled, rd);
                let (m1, m2) = moments_all(&folded);
                sink_imgs
                    .iter()
                    .map(|s| {
                        two_pole_delay(m1[s.index()].max(1e-18), m2[s.index()].max(1e-33)) - lumped
                    })
                    .collect()
            }
        };
        WireSample {
            delays,
            total_cap,
            c_eff,
        }
    }

    fn sample_bits(s: &WireSample) -> (Vec<u64>, u64, u64) {
        (
            s.delays.iter().map(|d| d.to_bits()).collect(),
            s.total_cap.to_bits(),
            s.c_eff.to_bits(),
        )
    }

    /// Runs the kernel and the oracle on the same draws and asserts equal
    /// bits, and that both consumed the same number of draws. In two-pole
    /// mode, [`WirePlan::sample_sink`] must also land on each sink's bits
    /// and consume the same draws, and [`WirePlan::nominal`] must match the
    /// driver-folded moments of the pin-loaded tree at nominal `rd` under
    /// both associations of the lumped baseline.
    fn assert_kernel_matches_oracle(tree: &RcTree, seed: u64, mode: WireGoldenMode) {
        let tech = Technology::synthetic_28nm();
        let variation = VariationModel::new(&tech);
        let kinds = [
            CellKind::Inv,
            CellKind::Nand2,
            CellKind::Nor2,
            CellKind::Aoi21,
        ];
        let cells: Vec<Cell> = (0..tree.sinks().len())
            .map(|k| Cell::new(kinds[k % kinds.len()], 1 << (k % 4)))
            .collect();
        let loads: Vec<&Cell> = cells.iter().collect();
        let driver = Cell::new(kinds[seed as usize % kinds.len()], 1 << (seed % 4));
        let mut rng_a = SmallRng::seed_from_u64(seed);
        let global = variation.sample_global(&mut rng_a);
        let dloc = variation.sample_local_vth(&mut rng_a, 0.02);
        let mut rng_b = rng_a.clone();
        let rng_start = rng_a.clone();
        let slew = 10e-12;
        let ours = sample_wire(
            &tech, &variation, tree, &driver, &loads, slew, &global, dloc, &mut rng_a, mode,
        );
        let oracle = oracle_sample_wire(
            &tech, &variation, tree, &driver, &loads, slew, &global, dloc, &mut rng_b, mode,
        );
        assert_eq!(
            sample_bits(&ours),
            sample_bits(&oracle),
            "{mode:?} seed {seed}"
        );
        let next_draw = rng_a.gen::<u64>();
        assert_eq!(next_draw, rng_b.gen::<u64>(), "draw count differs");
        if mode == WireGoldenMode::TwoPole {
            let mut plan = WirePlan::new();
            plan.push_net(&tech, tree, &driver, &loads, None);
            let mut scratch = plan.scratch();
            for (pos, delay) in ours.delays.iter().enumerate() {
                let mut rng = rng_start.clone();
                let (totals, one) = plan.sample_sink(
                    0,
                    pos,
                    &tech,
                    &variation,
                    &driver,
                    &global,
                    dloc,
                    &mut rng,
                    &mut scratch,
                );
                assert_eq!(one.to_bits(), delay.to_bits(), "sink {pos}, seed {seed}");
                assert_eq!(
                    (totals.total_cap.to_bits(), totals.c_eff.to_bits()),
                    (ours.total_cap.to_bits(), ours.c_eff.to_bits()),
                    "sink {pos}, seed {seed}"
                );
                assert_eq!(
                    rng.gen::<u64>(),
                    next_draw,
                    "sink {pos}: draw count differs"
                );
            }

            let rd = driver.drive_resistance(&tech);
            let mut loaded = tree.clone();
            for (k, &sink) in tree.sinks().iter().enumerate() {
                loaded.add_cap(sink, loads[k].input_cap(&tech));
            }
            let total_cap = loaded.total_cap();
            let c_eff = effective_cap(&tech, &driver, &loaded, total_cap);
            let (folded, _root_img, sink_imgs) = fold_driver(&loaded, rd);
            let (m1, m2) = moments_all(&folded);
            let totals = plan.nominal(0, &mut scratch);
            assert_eq!(
                (totals.total_cap.to_bits(), totals.c_eff.to_bits()),
                (total_cap.to_bits(), c_eff.to_bits()),
                "nominal totals, seed {seed}"
            );
            let ln2 = core::f64::consts::LN_2;
            for lumped in [ln2 * rd * c_eff, ln2 * (rd * c_eff)] {
                for (pos, (s, &delay)) in sink_imgs.iter().zip(scratch.delays()).enumerate() {
                    let k = s.index();
                    let oracle = two_pole_delay(m1[k].max(1e-18), m2[k].max(1e-33)) - lumped;
                    assert_eq!(
                        (delay - lumped).to_bits(),
                        oracle.to_bits(),
                        "nominal sink {pos}, seed {seed}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The flat two-pole kernel is bit-identical to the tree-based
        /// oracle on generated nets with 1–8 sinks.
        #[test]
        fn flat_kernel_matches_tree_oracle(sinks in 1usize..=8, seed in 0u64..1 << 20) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let cfg = NetGenConfig::default_28nm().with_fanout(sinks);
            assert_kernel_matches_oracle(&generate_net(&mut rng, &cfg), seed, WireGoldenMode::TwoPole);
            let random = random_net(&mut rng, sinks);
            assert_kernel_matches_oracle(&random, seed, WireGoldenMode::TwoPole);
        }
    }

    #[test]
    fn flat_kernel_matches_tree_oracle_on_edge_trees() {
        // A single-node tree whose root is its only sink.
        let mut single = RcTree::new(0.4e-15);
        single.mark_sink(RcTree::root());
        // A sink at the root beside a sink down a branch.
        let mut mixed = RcTree::new(0.1e-15);
        let a = mixed.add_node(RcTree::root(), 300.0, 0.7e-15);
        mixed.mark_sink(a);
        mixed.mark_sink(RcTree::root());
        for (i, tree) in [single, mixed, test_tree()].iter().enumerate() {
            for seed in 0..16 {
                assert_kernel_matches_oracle(tree, seed * 7 + i as u64, WireGoldenMode::TwoPole);
            }
        }
    }

    #[test]
    fn transient_mode_matches_tree_oracle() {
        let mut rng = SmallRng::seed_from_u64(3);
        for sinks in [1, 3] {
            let tree = generate_net(&mut rng, &NetGenConfig::default_28nm().with_fanout(sinks));
            for seed in 0..3 {
                assert_kernel_matches_oracle(&tree, seed, WireGoldenMode::Transient);
            }
        }
    }

    fn test_tree() -> RcTree {
        let mut t = RcTree::new(0.05e-15);
        let a = t.add_node(RcTree::root(), 250.0, 0.8e-15);
        let s = t.add_node(a, 350.0, 1.2e-15);
        t.mark_sink(s);
        t
    }

    fn cfg(mode: WireGoldenMode, samples: usize) -> WireMcConfig {
        WireMcConfig {
            samples,
            seed: 42,
            input_slew: 10e-12,
            mode,
        }
    }

    #[test]
    fn golden_mean_exceeds_plain_elmore() {
        // The paper's Fig. 7 observation: SPICE (with driver interaction and
        // variation) sits well above the nominal Elmore number.
        let tech = Technology::synthetic_28nm();
        let tree = test_tree();
        let drv = Cell::new(CellKind::Inv, 1);
        let load = Cell::new(CellKind::Inv, 4);
        let res = simulate_wire_mc(
            &tech,
            &tree,
            &drv,
            &[&load],
            &cfg(WireGoldenMode::TwoPole, 2000),
        );
        let elmore = elmore_delay(&tree, tree.sinks()[0]);
        assert!(
            res[0].moments.mean > elmore,
            "golden mean {} vs Elmore {}",
            res[0].moments.mean,
            elmore
        );
    }

    #[test]
    fn two_pole_tracks_transient_under_the_decomposition() {
        // With the delay-calculator decomposition (source→sink minus the
        // lumped baseline, same physics in both modes), the fast two-pole
        // golden agrees with the transient reference directly.
        let tech = Technology::synthetic_28nm();
        let tree = test_tree();
        let drv = Cell::new(CellKind::Inv, 4);
        let load = Cell::new(CellKind::Inv, 4);
        let fast = simulate_wire_mc(
            &tech,
            &tree,
            &drv,
            &[&load],
            &cfg(WireGoldenMode::TwoPole, 400),
        );
        let slow = simulate_wire_mc(
            &tech,
            &tree,
            &drv,
            &[&load],
            &cfg(WireGoldenMode::Transient, 400),
        );
        let rel = (fast[0].moments.mean - slow[0].moments.mean).abs() / slow[0].moments.mean;
        assert!(rel < 0.12, "two-pole vs transient mean differ by {rel}");
        let cv_fast = fast[0].moments.variability();
        let cv_slow = slow[0].moments.variability();
        assert!(
            (cv_fast - cv_slow).abs() / cv_slow < 0.30,
            "cv {cv_fast} vs {cv_slow}"
        );
    }

    #[test]
    fn weaker_driver_increases_wire_variability() {
        // Paper Fig. 8: σw/μw is inversely related to driver strength.
        let tech = Technology::synthetic_28nm();
        let tree = test_tree();
        let load = Cell::new(CellKind::Inv, 2);
        let weak = Cell::new(CellKind::Inv, 1);
        let strong = Cell::new(CellKind::Inv, 4);
        let rw = simulate_wire_mc(
            &tech,
            &tree,
            &weak,
            &[&load],
            &cfg(WireGoldenMode::TwoPole, 4000),
        );
        let rs = simulate_wire_mc(
            &tech,
            &tree,
            &strong,
            &[&load],
            &cfg(WireGoldenMode::TwoPole, 4000),
        );
        assert!(
            rw[0].moments.variability() > rs[0].moments.variability(),
            "weak {} vs strong {}",
            rw[0].moments.variability(),
            rs[0].moments.variability()
        );
    }

    #[test]
    fn results_are_deterministic_per_seed() {
        let tech = Technology::synthetic_28nm();
        let tree = test_tree();
        let drv = Cell::new(CellKind::Inv, 2);
        let load = Cell::new(CellKind::Inv, 1);
        let a = simulate_wire_mc(
            &tech,
            &tree,
            &drv,
            &[&load],
            &cfg(WireGoldenMode::TwoPole, 300),
        );
        let b = simulate_wire_mc(
            &tech,
            &tree,
            &drv,
            &[&load],
            &cfg(WireGoldenMode::TwoPole, 300),
        );
        assert_eq!(a[0].samples(), b[0].samples());
    }

    #[test]
    fn multi_sink_returns_one_result_per_sink() {
        let tech = Technology::synthetic_28nm();
        let mut tree = RcTree::new(0.05e-15);
        let a = tree.add_node(RcTree::root(), 200.0, 0.5e-15);
        let s1 = tree.add_node(a, 100.0, 0.4e-15);
        let s2 = tree.add_node(a, 800.0, 1.5e-15);
        tree.mark_sink(s1);
        tree.mark_sink(s2);
        let drv = Cell::new(CellKind::Inv, 2);
        let l1 = Cell::new(CellKind::Nand2, 1);
        let l2 = Cell::new(CellKind::Nor2, 2);
        let res = simulate_wire_mc(
            &tech,
            &tree,
            &drv,
            &[&l1, &l2],
            &cfg(WireGoldenMode::TwoPole, 500),
        );
        assert_eq!(res.len(), 2);
        assert!(res[1].moments.mean > res[0].moments.mean, "far sink slower");
    }

    #[test]
    fn fold_driver_preserves_structure() {
        let tree = test_tree();
        let (folded, root_img, sinks) = fold_driver(&tree, 1234.0);
        assert_eq!(folded.len(), tree.len() + 1);
        assert_eq!(folded.res(root_img), 1234.0);
        assert_eq!(sinks.len(), 1);
        assert!((folded.total_cap() - tree.total_cap() - 1e-21).abs() < 1e-22);
    }
}
