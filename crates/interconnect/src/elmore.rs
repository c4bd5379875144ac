//! Impulse-response moments of RC trees: Elmore (m₁) and the second moment
//! (m₂) that the D2M metric and the two-pole golden model consume.
//!
//! The Elmore delay from the root to sink `pN` is the paper's eq. (4):
//! `T_Elmore = Σ_k R_pk · C_pk` — the first moment of the impulse response.
//! [`moments_into`] is the one moment pass: [`moments_all`] runs it on a
//! tree ([`elmore_all`] its m₁ half), the golden kernel's `WirePlan` on
//! each sampled net's arrays.

use crate::rctree::{NodeId, RcTree};

/// First moment (Elmore delay, s) of the impulse response at every node.
pub fn elmore_all(tree: &RcTree) -> Vec<f64> {
    let (mut down, mut m1) = (tree.caps().to_vec(), vec![0.0; tree.len()]);
    accumulate(tree.parents(), tree.res(), 0.0, &mut down, &mut m1);
    m1
}

/// Elmore delay (s) at one sink — the paper's `T_Elmore` for that wire.
///
/// # Examples
///
/// ```
/// use nsigma_interconnect::elmore::elmore_delay;
/// use nsigma_interconnect::rctree::RcTree;
///
/// // Single RC segment: Elmore = R*C.
/// let mut t = RcTree::new(0.0);
/// let sink = t.add_node(RcTree::root(), 1000.0, 1.0e-15);
/// t.mark_sink(sink);
/// assert!((elmore_delay(&t, sink) - 1e-12).abs() < 1e-24);
/// ```
pub fn elmore_delay(tree: &RcTree, sink: NodeId) -> f64 {
    elmore_all(tree)[sink.index()]
}

/// First two impulse-response moments `(m1, m2)` at every node.
pub fn moments_all(tree: &RcTree) -> (Vec<f64>, Vec<f64>) {
    let n = tree.len();
    let (mut down, mut m1, mut m2) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    moments_into(
        tree.parents(),
        tree.res(),
        tree.caps(),
        0.0,
        &mut down,
        &mut m1,
        &mut m2,
    );
    (m1, m2)
}

/// `m1` and `m2` at every node of the tree given by `parent`, `res` and
/// `cap` (the [`RcTree`] layout), with `driver_res` as node 0's edge from
/// an ideal source (0 for the tree alone); `down` is scratch. Two O(n)
/// passes per moment: subtree sums of the node weights (`C_k`, then
/// `C_k · m1(k)`) leaves-first, then `m(i) = m(parent) + R_i · down(i)`.
///
/// # Panics
///
/// Panics if a slice is shorter than `parent`.
pub fn moments_into(
    parent: &[u32],
    res: &[f64],
    cap: &[f64],
    driver_res: f64,
    down: &mut [f64],
    m1: &mut [f64],
    m2: &mut [f64],
) {
    let n = parent.len();
    let (res, cap) = (&res[..n], &cap[..n]);
    let (down, m1, m2) = (&mut down[..n], &mut m1[..n], &mut m2[..n]);
    down.copy_from_slice(cap);
    accumulate(parent, res, driver_res, down, m1);
    for i in 0..n {
        down[i] = cap[i] * m1[i];
    }
    accumulate(parent, res, driver_res, down, m2);
}

/// One moment from the node weights in `down`: subtree sums leaves-first
/// (in place), then the root-first accumulation into `m`.
fn accumulate(parent: &[u32], res: &[f64], driver_res: f64, down: &mut [f64], m: &mut [f64]) {
    let n = parent.len();
    let (res, down, m) = (&res[..n], &mut down[..n], &mut m[..n]);
    for i in (1..n).rev() {
        down[parent[i] as usize] += down[i];
    }
    m[0] = driver_res * down[0];
    for i in 1..n {
        m[i] = m[parent[i] as usize] + res[i] * down[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Resistance along the path from the root to `node` (Ω).
    fn path_res(tree: &RcTree, node: usize) -> f64 {
        let (mut r, mut cur) = (0.0, node);
        while cur != 0 {
            r += tree.res()[cur];
            cur = tree.parents()[cur] as usize;
        }
        r
    }

    /// Hand-checkable ladder: root -R1- a -R2- b with caps C0, C1, C2.
    fn ladder() -> (RcTree, NodeId, NodeId) {
        let mut t = RcTree::new(1e-15);
        let a = t.add_node(RcTree::root(), 100.0, 2e-15);
        let b = t.add_node(a, 200.0, 3e-15);
        t.mark_sink(b);
        (t, a, b)
    }

    #[test]
    fn elmore_matches_hand_computation() {
        let (t, a, b) = ladder();
        // m1(a) = R1*(C1+C2) = 100 * 5e-15 = 0.5 ps
        // m1(b) = m1(a) + R2*C2 = 0.5e-12 + 200*3e-15 = 1.1 ps
        assert!((elmore_delay(&t, a) - 0.5e-12).abs() < 1e-24);
        assert!((elmore_delay(&t, b) - 1.1e-12).abs() < 1e-24);
    }

    #[test]
    fn elmore_is_paper_eq4_for_a_chain() {
        // For a chain, eq. (4): sum over nodes of (path resistance to that
        // node) * (cap at that node).
        let mut t = RcTree::new(0.5e-15);
        let mut cur = RcTree::root();
        for i in 0..5 {
            cur = t.add_node(cur, 50.0 + 10.0 * i as f64, (1.0 + i as f64) * 1e-15);
        }
        t.mark_sink(cur);
        let direct: f64 = (0..t.len())
            .map(|k| path_res(&t, k).min(path_res(&t, cur.index())) * t.caps()[k])
            .sum();
        assert!((elmore_delay(&t, cur) - direct).abs() / direct < 1e-12);
    }

    #[test]
    fn driver_resistance_is_node_zero_edge() {
        // Folding R_d in as node 0's edge adds R_d · C_total to every m1.
        let (t, _, b) = ladder();
        let n = t.len();
        let (mut down, mut m1, mut m2) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        moments_into(
            t.parents(),
            t.res(),
            t.caps(),
            1000.0,
            &mut down,
            &mut m1,
            &mut m2,
        );
        let shift = 1000.0 * t.total_cap();
        assert!((m1[0] - shift).abs() < 1e-24);
        assert!((m1[b.index()] - (elmore_delay(&t, b) + shift)).abs() < 1e-24);
        assert!(m2[b.index()] > moments_all(&t).1[b.index()]);
    }

    #[test]
    fn branch_shielding_reduces_downstream_contribution() {
        // A side branch adds to the trunk Elmore only through shared
        // resistance.
        let mut trunk_only = RcTree::new(0.0);
        let s1 = trunk_only.add_node(RcTree::root(), 100.0, 1e-15);
        let sink1 = trunk_only.add_node(s1, 100.0, 1e-15);
        trunk_only.mark_sink(sink1);

        let mut with_branch = trunk_only.clone();
        let br = with_branch.add_node(s1, 500.0, 4e-15);
        with_branch.mark_sink(br);

        let e_plain = elmore_delay(&trunk_only, sink1);
        let e_branch = elmore_delay(&with_branch, sink1);
        // Branch cap contributes through shared R (100Ω) only:
        assert!((e_branch - e_plain - 100.0 * 4e-15).abs() < 1e-24);
    }

    #[test]
    fn second_moment_positive_and_larger_scale() {
        let (t, _, b) = ladder();
        let (m1, m2) = moments_all(&t);
        assert!(m2[b.index()] > 0.0);
        // m2 has units s²; for a single pole m2 = m1², tree gives m2 ≤ m1²·k.
        assert!(m2[b.index()] < m1[b.index()] * m1[b.index()] * 10.0);
    }

    #[test]
    fn single_segment_m2_is_m1_squared_times_rc() {
        // Single RC: impulse response exp(-t/RC)/RC: m1 = RC, m2 = R*C*m1 = (RC)^2.
        let mut t = RcTree::new(0.0);
        let s = t.add_node(RcTree::root(), 1000.0, 1e-15);
        t.mark_sink(s);
        let (m1, m2) = moments_all(&t);
        let rc = 1e-12;
        assert!((m1[s.index()] - rc).abs() < 1e-24);
        assert!((m2[s.index()] - rc * rc).abs() < 1e-36);
    }
}
