//! RC-net generation — the place-and-route substitute.
//!
//! The paper extracts parasitics from IC Compiler. Here, nets are generated
//! from placement-like statistics: a trunk of wire segments with branches to
//! each fanout pin, segment R/C derived from a technology's per-length
//! constants, and segment lengths drawn from a log-normal "wirelength"
//! distribution. The paper's "five RC example circuits randomly chosen from
//! the parasitic files" (§V-C) map to [`random_net`] draws.

use crate::rctree::{NodeId, RcTree};
use nsigma_stats::rng::standard_normal;
use rand::Rng;

/// Parameters for net generation.
#[derive(Debug, Clone, PartialEq)]
pub struct NetGenConfig {
    /// Wire resistance per meter (Ω/m).
    pub res_per_m: f64,
    /// Wire capacitance per meter (F/m).
    pub cap_per_m: f64,
    /// Mean total wirelength (m). Typical intra-block nets: 5–200 µm.
    pub mean_length: f64,
    /// Relative sigma of the log-normal length draw.
    pub length_sigma: f64,
    /// Number of fanout branches (sinks).
    pub fanout: usize,
    /// Segments along the trunk.
    pub trunk_segments: usize,
    /// Segments along each branch.
    pub branch_segments: usize,
}

impl NetGenConfig {
    /// Defaults matching the synthetic 28 nm BEOL constants and a 12 µm net.
    pub fn default_28nm() -> Self {
        Self {
            res_per_m: 4.0e6,
            cap_per_m: 0.2e-9,
            mean_length: 12e-6,
            length_sigma: 0.4,
            fanout: 1,
            trunk_segments: 4,
            branch_segments: 2,
        }
    }

    /// Same configuration with a different fanout.
    pub fn with_fanout(mut self, fanout: usize) -> Self {
        self.fanout = fanout.max(1);
        self
    }

    /// Same configuration with a different mean length.
    pub fn with_mean_length(mut self, mean_length: f64) -> Self {
        self.mean_length = mean_length;
        self
    }
}

/// Generates one net: a trunk with `fanout` branches, each branch ending in
/// a sink.
///
/// Total length is drawn log-normally around `mean_length`, split across
/// trunk and branches, and discretized into π-like segments (R with the cap
/// lumped at the far node).
///
/// # Panics
///
/// Panics if `fanout == 0` or segment counts are zero.
///
/// # Examples
///
/// ```
/// use nsigma_interconnect::generator::{generate_net, NetGenConfig};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
/// let cfg = NetGenConfig::default_28nm().with_fanout(3);
/// let tree = generate_net(&mut rng, &cfg);
/// assert_eq!(tree.sinks().len(), 3);
/// assert!(tree.total_res() > 0.0);
/// ```
pub fn generate_net<R: Rng + ?Sized>(rng: &mut R, cfg: &NetGenConfig) -> RcTree {
    assert!(cfg.fanout > 0, "fanout must be at least 1");
    assert!(
        cfg.trunk_segments > 0 && cfg.branch_segments > 0,
        "segment counts must be positive"
    );

    // Log-normal total length, mean cfg.mean_length.
    let s2 = (1.0 + cfg.length_sigma * cfg.length_sigma).ln();
    let total_len = cfg.mean_length * (s2.sqrt() * standard_normal(rng) - 0.5 * s2).exp();

    // Split: 40% trunk, 60% divided across branches (with jitter).
    let trunk_len = 0.4 * total_len;
    let branch_len = 0.6 * total_len / cfg.fanout as f64;

    let mut tree = RcTree::new(0.02e-15); // small pin-landing cap at the root
    let mut cur = RcTree::root();
    let seg_len = trunk_len / cfg.trunk_segments as f64;
    for _ in 0..cfg.trunk_segments {
        let jitter = (0.8 + 0.4 * rng.gen::<f64>()) * seg_len;
        cur = tree.add_node(
            cur,
            (cfg.res_per_m * jitter).max(0.1),
            cfg.cap_per_m * jitter,
        );
    }
    let trunk_end = cur;

    for _ in 0..cfg.fanout {
        let mut b = trunk_end;
        let seg = branch_len / cfg.branch_segments as f64;
        for _ in 0..cfg.branch_segments {
            let jitter = (0.8 + 0.4 * rng.gen::<f64>()) * seg;
            b = tree.add_node(b, (cfg.res_per_m * jitter).max(0.1), cfg.cap_per_m * jitter);
        }
        tree.mark_sink(b);
    }
    tree
}

/// Draws a "random RC interconnect circuit" in the spirit of §V-C: 5–20
/// segments, per-segment R ∈ [50, 600] Ω and C ∈ [0.05, 0.6] fF, random tree
/// topology, one sink at the far end plus any additional leaves.
pub fn random_net<R: Rng + ?Sized>(rng: &mut R, sinks: usize) -> RcTree {
    let sinks = sinks.max(1);
    let n_internal = rng.gen_range(4..=14);
    let mut tree = RcTree::new(0.02e-15);
    let mut nodes: Vec<NodeId> = vec![RcTree::root()];
    for _ in 0..n_internal {
        let parent = nodes[rng.gen_range(0..nodes.len())];
        let r = rng.gen_range(50.0..600.0);
        let c = rng.gen_range(0.05e-15..0.6e-15);
        nodes.push(tree.add_node(parent, r, c));
    }
    // Attach each sink at the end of a fresh two-segment stub from a random
    // node so sinks never coincide with the root.
    for _ in 0..sinks {
        let parent = nodes[rng.gen_range(0..nodes.len())];
        let mid = tree.add_node(
            parent,
            rng.gen_range(50.0..600.0),
            rng.gen_range(0.05e-15..0.6e-15),
        );
        let sink = tree.add_node(
            mid,
            rng.gen_range(50.0..600.0),
            rng.gen_range(0.05e-15..0.6e-15),
        );
        tree.mark_sink(sink);
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elmore::elmore_delay;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = NetGenConfig::default_28nm().with_fanout(2);
        let a = generate_net(&mut SmallRng::seed_from_u64(3), &cfg);
        let b = generate_net(&mut SmallRng::seed_from_u64(3), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn longer_nets_have_larger_elmore() {
        let mut rng = SmallRng::seed_from_u64(1);
        let short = generate_net(
            &mut rng,
            &NetGenConfig::default_28nm().with_mean_length(10e-6),
        );
        let mut rng = SmallRng::seed_from_u64(1);
        let long = generate_net(
            &mut rng,
            &NetGenConfig::default_28nm().with_mean_length(100e-6),
        );
        let e_short = elmore_delay(&short, short.sinks()[0]);
        let e_long = elmore_delay(&long, long.sinks()[0]);
        assert!(
            e_long > e_short * 5.0,
            "Elmore grows superlinearly with length: {e_short} vs {e_long}"
        );
    }

    #[test]
    fn fanout_count_respected() {
        let mut rng = SmallRng::seed_from_u64(9);
        for f in 1..=6 {
            let t = generate_net(&mut rng, &NetGenConfig::default_28nm().with_fanout(f));
            assert_eq!(t.sinks().len(), f);
        }
    }

    #[test]
    fn random_net_has_positive_elements_and_sinks() {
        let mut rng = SmallRng::seed_from_u64(77);
        for k in 1..=4 {
            let t = random_net(&mut rng, k);
            assert_eq!(t.sinks().len(), k);
            assert!(t.res()[1..].iter().all(|&r| r > 0.0));
            assert!(t.caps()[1..].iter().all(|&c| c > 0.0));
            // Sinks are never the root.
            assert!(t.sinks().iter().all(|&s| s != RcTree::root()));
        }
    }

    #[test]
    fn magnitudes_are_interconnect_like() {
        // A ~30 µm net at 4 Ω/µm & 0.2 fF/µm: total R ~ 120 Ω, C ~ 6 fF.
        let mut rng = SmallRng::seed_from_u64(42);
        let mut rs = 0.0;
        let mut cs = 0.0;
        let n = 200;
        for _ in 0..n {
            let t = generate_net(&mut rng, &NetGenConfig::default_28nm());
            rs += t.total_res();
            cs += t.total_cap();
        }
        let mean_r = rs / n as f64;
        let mean_c = cs / n as f64;
        assert!(mean_r > 40.0 && mean_r < 400.0, "mean R = {mean_r}");
        assert!(mean_c > 2e-15 && mean_c < 12e-15, "mean C = {mean_c}");
    }
}
