//! Backward-Euler transient simulation of an RC tree behind a resistive
//! driver — the "SPICE" of the wire experiments (Figs. 7, 8, 10) and the
//! reference the golden scales anchor to.
//!
//! The driver is modeled as a saturated-ramp voltage source (slew `S`, swing
//! `V_dd`) behind a resistance `R_drv` derived from the driving cell's
//! sampled on-current. Because the tree's conductance matrix is a tree, each
//! implicit step solves in O(n) with leaf-to-root elimination — no general
//! sparse solver needed. [`ramp_crossings`] is the solver, over the flat
//! arrays of the [`RcTree`] layout: [`simulate_ramp`] runs it on a tree,
//! the golden kernel on its scratch arrays.

use crate::rctree::{NodeId, RcTree};

/// Configuration of one transient run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientConfig {
    /// Supply swing (V).
    pub vdd: f64,
    /// Input ramp 0→V_dd transition time (s).
    pub input_slew: f64,
    /// Driver resistance in series with the source (Ω). Must be positive —
    /// an ideal source is approximated by a very small value.
    pub driver_res: f64,
    /// Time step (s). Choose ≲ min(RC)/5 for accuracy.
    pub dt: f64,
    /// Simulation horizon (s).
    pub t_max: f64,
}

impl TransientConfig {
    /// A reasonable configuration for a tree: `dt` from the Elmore scale of
    /// the tree, horizon long enough for the slowest sink.
    ///
    /// # Panics
    ///
    /// Panics if any of `vdd`, `driver_res` is non-positive.
    pub fn auto(tree: &RcTree, vdd: f64, input_slew: f64, driver_res: f64) -> Self {
        let (r, c) = (tree.total_res(), tree.total_cap());
        Self::for_totals(r, c, vdd, input_slew, driver_res)
    }

    /// [`TransientConfig::auto`] for a tree of total segment resistance
    /// `total_res` (Ω) and total capacitance `total_cap` (F).
    ///
    /// # Panics
    ///
    /// Panics if any of `vdd`, `driver_res` is non-positive.
    pub fn for_totals(
        total_res: f64,
        total_cap: f64,
        vdd: f64,
        input_slew: f64,
        driver_res: f64,
    ) -> Self {
        assert!(vdd > 0.0, "vdd must be positive");
        assert!(driver_res > 0.0, "driver_res must be positive");
        let tau = (driver_res + total_res) * total_cap;
        let horizon = 12.0 * tau + 2.0 * input_slew + 1e-12;
        Self {
            vdd,
            input_slew,
            driver_res,
            dt: (horizon / 20_000.0).max(1e-16),
            t_max: horizon,
        }
    }
}

/// Result of a transient run: 50 % crossing times (s, absolute from ramp
/// start) at the root and every sink. A sink's wire delay, the quantity
/// the paper's `T_w` measures, is its crossing minus the root's.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    /// Time the source ramp crosses 50 % (= slew/2).
    pub source_cross: f64,
    /// Time the root (driver output) node crosses 50 %.
    pub root_cross: f64,
    /// Crossing time per sink, in `tree.sinks()` order.
    pub sink_cross: Vec<f64>,
}

/// [`ramp_crossings`] on `tree`'s arrays and sinks.
pub fn simulate_ramp(tree: &RcTree, cfg: &TransientConfig) -> TransientResult {
    ramp_crossings(tree.parents(), tree.res(), tree.caps(), tree.sinks(), cfg)
}

/// The backward-Euler transient of the tree given by `parent`, `res` and
/// `cap` (the [`RcTree`] layout) driven by a saturated ramp behind
/// `cfg.driver_res`: the 50 % crossing times of the root and of `sinks`.
///
/// # Panics
///
/// Panics if a slice is shorter than `parent`, if a non-root segment
/// resistance is not positive, if `sinks` is empty, or if a sink fails to
/// cross 50 % within `t_max` (indicating a mis-sized horizon).
pub fn ramp_crossings(
    parent: &[u32],
    res: &[f64],
    cap: &[f64],
    sinks: &[NodeId],
    cfg: &TransientConfig,
) -> TransientResult {
    let n = parent.len();
    let (res, cap) = (&res[..n], &cap[..n]);
    assert!(!sinks.is_empty(), "tree has no sinks to measure");

    // Edge conductances; g[0] is the driver conductance into the root.
    let mut g = vec![0.0; n];
    g[0] = 1.0 / cfg.driver_res;
    for i in 1..n {
        assert!(
            res[i] > 0.0,
            "segment resistance must be positive for transient"
        );
        g[i] = 1.0 / res[i];
    }

    // Diagonal of A = G + C/dt: each node's C/dt and edge conductance, then
    // each child's edge conductance added into its parent; then the
    // leaf-to-root elimination, constant across steps.
    let dt = cfg.dt;
    let mut a: Vec<f64> = (0..n).map(|i| cap[i] / dt + g[i]).collect();
    for i in 1..n {
        a[parent[i] as usize] += g[i];
    }
    for i in (1..n).rev() {
        a[parent[i] as usize] -= g[i] * g[i] / a[i];
    }

    let half = 0.5 * cfg.vdd;
    let source = |t: f64| {
        if t <= 0.0 {
            0.0
        } else if t >= cfg.input_slew {
            cfg.vdd
        } else {
            cfg.vdd * t / cfg.input_slew
        }
    };

    let mut v = vec![0.0; n];
    let mut rhs = vec![0.0; n];
    let mut root_cross = f64::NAN;
    let mut sink_cross = vec![f64::NAN; sinks.len()];
    let mut crossed = 0usize;

    let steps = (cfg.t_max / dt).ceil() as usize;
    let mut prev_v0 = 0.0;
    let mut prev_sinks = vec![0.0; sinks.len()];
    let mut t = 0.0;
    for _ in 0..steps {
        let t_next = t + dt;
        // rhs = C/dt * v_prev (+ source injection at the root).
        for i in 0..n {
            rhs[i] = cap[i] / dt * v[i];
        }
        rhs[0] += g[0] * source(t_next);
        // Forward elimination (leaf to root).
        for i in (1..n).rev() {
            rhs[parent[i] as usize] += g[i] / a[i] * rhs[i];
        }
        // Back substitution (root to leaves).
        v[0] = rhs[0] / a[0];
        for i in 1..n {
            v[i] = (rhs[i] + g[i] * v[parent[i] as usize]) / a[i];
        }

        // Crossing detection with linear interpolation inside the step.
        if root_cross.is_nan() && prev_v0 < half && v[0] >= half {
            let frac = (half - prev_v0) / (v[0] - prev_v0);
            root_cross = t + frac * dt;
        }
        for (k, s) in sinks.iter().enumerate() {
            let vs = v[s.index()];
            if sink_cross[k].is_nan() && prev_sinks[k] < half && vs >= half {
                let frac = (half - prev_sinks[k]) / (vs - prev_sinks[k]);
                sink_cross[k] = t + frac * dt;
                crossed += 1;
            }
            prev_sinks[k] = vs;
        }
        prev_v0 = v[0];
        t = t_next;
        if crossed == sinks.len() && !root_cross.is_nan() {
            break;
        }
    }

    assert!(
        !root_cross.is_nan() && sink_cross.iter().all(|c| !c.is_nan()),
        "simulation horizon too short: a node never crossed 50%"
    );

    TransientResult {
        source_cross: 0.5 * cfg.input_slew,
        root_cross,
        sink_cross,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elmore::moments_all;
    use crate::metrics::{d2m_delay, two_pole_delay};

    fn wire_delay(res: &TransientResult, sink: usize) -> f64 {
        res.sink_cross[sink] - res.root_cross
    }

    fn single_rc(r: f64, c: f64) -> (RcTree, NodeId) {
        let mut t = RcTree::new(1e-18);
        let s = t.add_node(RcTree::root(), r, c);
        t.mark_sink(s);
        (t, s)
    }

    #[test]
    fn single_rc_step_matches_analytic() {
        // Tiny driver resistance + fast ramp ≈ ideal step at the root;
        // sink lags by ln2·RC.
        let (tree, _) = single_rc(1000.0, 2e-15);
        let cfg = TransientConfig {
            vdd: 0.6,
            input_slew: 1e-15,
            driver_res: 1.0,
            dt: 2e-12 / 3000.0,
            t_max: 40e-12,
        };
        let res = simulate_ramp(&tree, &cfg);
        let expected = core::f64::consts::LN_2 * 1000.0 * 2e-15;
        let measured = wire_delay(&res, 0);
        assert!(
            (measured - expected).abs() / expected < 0.02,
            "measured {measured} vs {expected}"
        );
    }

    #[test]
    fn two_pole_tracks_transient_on_ladder() {
        // The circuit-scale fast model (two-pole on m1/m2 with the driver
        // folded in) should sit within a few percent of the transient.
        let mut tree = RcTree::new(0.2e-15);
        let mut cur = RcTree::root();
        for _ in 0..8 {
            cur = tree.add_node(cur, 300.0, 0.6e-15);
        }
        tree.mark_sink(cur);

        let rd = 2000.0;
        let cfg = TransientConfig::auto(&tree, 0.6, 1e-15, rd);
        let res = simulate_ramp(&tree, &cfg);

        // Fold the driver into the tree for the moment computation.
        let mut with_drv = RcTree::new(1e-21);
        let mut map_cur = with_drv.add_node(RcTree::root(), rd, tree.caps()[0]);
        for i in 1..tree.len() {
            map_cur = with_drv.add_node(map_cur, tree.res()[i], tree.caps()[i]);
        }
        with_drv.mark_sink(map_cur);
        let (m1, m2) = moments_all(&with_drv);
        let tp_total = two_pole_delay(m1[map_cur.index()], m2[map_cur.index()]);
        // Compare against source→sink crossing from the transient.
        let measured_total = res.sink_cross[0] - res.source_cross;
        let rel = (tp_total - measured_total).abs() / measured_total;
        assert!(
            rel < 0.08,
            "two-pole {tp_total} vs transient {measured_total} (rel {rel})"
        );
        // And D2M lands in the same ballpark.
        let d2m = d2m_delay(m1[map_cur.index()], m2[map_cur.index()]);
        assert!((d2m - measured_total).abs() / measured_total < 0.25);
    }

    #[test]
    fn slower_input_slew_increases_absolute_crossings() {
        let (tree, _) = single_rc(500.0, 1e-15);
        let fast = simulate_ramp(&tree, &TransientConfig::auto(&tree, 0.6, 1e-12, 100.0));
        let slow = simulate_ramp(&tree, &TransientConfig::auto(&tree, 0.6, 50e-12, 100.0));
        assert!(slow.sink_cross[0] > fast.sink_cross[0]);
        assert_eq!(slow.source_cross, 25e-12);
    }

    #[test]
    fn bigger_driver_resistance_slows_the_root() {
        let (tree, _) = single_rc(500.0, 1e-15);
        let weak = simulate_ramp(&tree, &TransientConfig::auto(&tree, 0.6, 1e-12, 5000.0));
        let strong = simulate_ramp(&tree, &TransientConfig::auto(&tree, 0.6, 1e-12, 100.0));
        assert!(weak.root_cross > strong.root_cross);
    }

    #[test]
    fn branched_tree_both_sinks_measured() {
        let mut t = RcTree::new(0.1e-15);
        let trunk = t.add_node(RcTree::root(), 200.0, 0.4e-15);
        let near = t.add_node(trunk, 100.0, 0.5e-15);
        let far = t.add_node(trunk, 900.0, 1.5e-15);
        t.mark_sink(near);
        t.mark_sink(far);
        let res = simulate_ramp(&t, &TransientConfig::auto(&t, 0.6, 5e-12, 800.0));
        assert!(
            wire_delay(&res, 1) > wire_delay(&res, 0),
            "far sink is slower"
        );
        assert!(wire_delay(&res, 0) > 0.0);
    }

    #[test]
    #[should_panic(expected = "tree has no sinks")]
    fn requires_sinks() {
        let t = RcTree::new(1e-15);
        simulate_ramp(
            &t,
            &TransientConfig {
                vdd: 0.6,
                input_slew: 1e-12,
                driver_res: 100.0,
                dt: 1e-13,
                t_max: 1e-9,
            },
        );
    }
}
