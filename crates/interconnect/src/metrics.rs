//! Closed-form wire delay metrics built on impulse-response moments:
//! Elmore (m₁), D2M, and the two-pole 50 %-crossing estimate the golden
//! simulator uses at circuit scale.

/// D2M ("delay with two moments") estimate of the 50 % step delay:
/// `ln 2 · m1² / √m2`.
///
/// # Panics
///
/// Panics if `m2 <= 0`.
///
/// # Examples
///
/// ```
/// use nsigma_interconnect::metrics::d2m_delay;
///
/// // Single pole: m1 = RC, m2 = (RC)² → D2M = ln2·RC, the exact answer.
/// let rc = 1e-12;
/// let d = d2m_delay(rc, rc * rc);
/// assert!((d - core::f64::consts::LN_2 * rc).abs() < 1e-24);
/// ```
pub fn d2m_delay(m1: f64, m2: f64) -> f64 {
    assert!(m2 > 0.0, "m2 must be positive, got {m2}");
    core::f64::consts::LN_2 * m1 * m1 / m2.sqrt()
}

/// Two-pole 50 % step-response delay from `(m1, m2)`.
///
/// Matches the expansion `H(s) = 1 − m1·s + m2·s² − …` to
/// `1/((1+sτ₁)(1+sτ₂))`, i.e. `τ₁+τ₂ = m1`, `τ₁τ₂ = m1² − m2`, then solves
/// the step response for the 50 % crossing by bisection. Falls back to the
/// single-pole answer `ln2·m1` when the fitted poles would be complex
/// (`m2 < ¾·m1²`) or degenerate.
///
/// # Panics
///
/// Panics if `m1 <= 0` or `m2 <= 0`.
pub fn two_pole_delay(m1: f64, m2: f64) -> f64 {
    assert!(m1 > 0.0 && m2 > 0.0, "moments must be positive");
    let prod = m1 * m1 - m2;
    let disc = m1 * m1 - 4.0 * prod;
    if prod <= 0.0 || disc < 0.0 {
        // Complex or non-physical pole pair: single-pole fallback.
        return core::f64::consts::LN_2 * m1;
    }
    let sq = disc.sqrt();
    let tau1 = 0.5 * (m1 + sq);
    let tau2 = 0.5 * (m1 - sq);
    if tau2 <= 0.0 || (tau1 - tau2) < 1e-18 * tau1 {
        return core::f64::consts::LN_2 * m1;
    }
    // v(t) = 1 − (τ1·e^{−t/τ1} − τ2·e^{−t/τ2})/(τ1 − τ2); solve v(t) = 0.5.
    let v = |t: f64| 1.0 - (tau1 * (-t / tau1).exp() - tau2 * (-t / tau2).exp()) / (tau1 - tau2);
    let mut lo = 0.0;
    let mut hi = 20.0 * m1;
    for _ in 0..200 {
        if v(hi) >= 0.5 {
            break;
        }
        hi *= 2.0;
    }
    // At most 80 halvings; stop at the first one that leaves `(lo, hi)`
    // unchanged. Each step is a pure function of `(lo, hi)`, so every later
    // step would repeat it and the answer is bit-identical to running all 80.
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        let (next_lo, next_hi) = if v(mid) < 0.5 { (mid, hi) } else { (lo, mid) };
        if next_lo.to_bits() == lo.to_bits() && next_hi.to_bits() == hi.to_bits() {
            break;
        }
        lo = next_lo;
        hi = next_hi;
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elmore::moments_all;
    use crate::rctree::RcTree;

    #[test]
    fn single_pole_all_metrics_agree() {
        let rc = 2e-12;
        let m1 = rc;
        let m2 = rc * rc;
        let exact = core::f64::consts::LN_2 * rc;
        assert!((d2m_delay(m1, m2) - exact).abs() < 1e-20);
        assert!((two_pole_delay(m1, m2) - exact).abs() / exact < 1e-6);
    }

    #[test]
    fn distinct_two_pole_case() {
        // τ1 = 3ps, τ2 = 1ps → m1 = 4ps, m2 = m1² − τ1τ2 = 13 ps².
        let tau1 = 3e-12;
        let tau2 = 1e-12;
        let m1 = tau1 + tau2;
        let m2 = m1 * m1 - tau1 * tau2;
        let d = two_pole_delay(m1, m2);
        // Exact crossing computed independently:
        let v =
            |t: f64| 1.0 - (tau1 * (-t / tau1).exp() - tau2 * (-t / tau2).exp()) / (tau1 - tau2);
        assert!((v(d) - 0.5).abs() < 1e-9);
        // With separated poles the 50% crossing lies between the optimistic
        // single-pole ln2·m1 and the pessimistic Elmore m1.
        assert!(d > core::f64::consts::LN_2 * m1);
        assert!(d < m1);
        // And D2M lands within a few percent of the exact crossing here.
        let d2m = d2m_delay(m1, m2);
        assert!((d2m - d).abs() / d < 0.05, "d2m {d2m} vs exact {d}");
    }

    #[test]
    fn tree_metrics_ordering() {
        // On a distributed line the 50% estimates order as
        // ln2·m1 ≤ two-pole ≈ D2M ≤ m1: Elmore (m1) is pessimistic at 50%,
        // the single-pole ln2·m1 is optimistic, D2M/two-pole sit between.
        let mut t = RcTree::new(0.1e-15);
        let mut cur = RcTree::root();
        for _ in 0..10 {
            cur = t.add_node(cur, 100.0, 0.5e-15);
        }
        t.mark_sink(cur);
        let (m1s, m2s) = moments_all(&t);
        let m1 = m1s[cur.index()];
        let m2 = m2s[cur.index()];
        let d2m = d2m_delay(m1, m2);
        let tp = two_pole_delay(m1, m2);
        let ln2m1 = core::f64::consts::LN_2 * m1;
        assert!(d2m >= ln2m1 * 0.999, "d2m {d2m} vs ln2·m1 {ln2m1}");
        assert!(d2m <= m1 * 1.001, "d2m {d2m} vs m1 {m1}");
        assert!(tp >= ln2m1 * 0.999 && tp <= m1 * 1.001, "tp {tp}");
    }

    #[test]
    fn complex_pole_fallback() {
        // m2 < 0.75 m1² forces the fallback branch.
        let m1 = 1e-12;
        let m2 = 0.5e-24;
        assert!((two_pole_delay(m1, m2) - core::f64::consts::LN_2 * m1).abs() < 1e-24);
    }

    /// The bisection as it ran before the early exit: always 80 halvings.
    fn two_pole_delay_fixed_80(m1: f64, m2: f64) -> f64 {
        let prod = m1 * m1 - m2;
        let disc = m1 * m1 - 4.0 * prod;
        if prod <= 0.0 || disc < 0.0 {
            return core::f64::consts::LN_2 * m1;
        }
        let sq = disc.sqrt();
        let tau1 = 0.5 * (m1 + sq);
        let tau2 = 0.5 * (m1 - sq);
        if tau2 <= 0.0 || (tau1 - tau2) < 1e-18 * tau1 {
            return core::f64::consts::LN_2 * m1;
        }
        let v =
            |t: f64| 1.0 - (tau1 * (-t / tau1).exp() - tau2 * (-t / tau2).exp()) / (tau1 - tau2);
        let mut lo = 0.0;
        let mut hi = 20.0 * m1;
        for _ in 0..200 {
            if v(hi) >= 0.5 {
                break;
            }
            hi *= 2.0;
        }
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if v(mid) < 0.5 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    #[test]
    fn early_exit_matches_the_fixed_80_step_bisection() {
        // m2/m1² spans every branch: complex poles (< 0.75), the coincident-
        // pole edge (= 0.75 and just above), distinct real poles, and the
        // non-physical m2 ≥ m1² fallback.
        let mut ratios = vec![0.3, 0.5, 0.7499999, 0.75, 0.75 + 1e-15, 0.7500001];
        ratios.extend((0..=200).map(|i| 0.75 + 0.25 * i as f64 / 200.0));
        ratios.extend([0.999_999_999, 1.0, 1.000_000_1, 1.5, 3.0]);
        let mut branches = [false; 3];
        for e in -16..=-8 {
            for mantissa in [1.0, 1.37, 2.9, 7.3] {
                let m1 = mantissa * 10f64.powi(e);
                for &r in &ratios {
                    let m2 = r * m1 * m1;
                    let fast = two_pole_delay(m1, m2);
                    let fixed = two_pole_delay_fixed_80(m1, m2);
                    assert_eq!(fast.to_bits(), fixed.to_bits(), "m1 {m1:e}, m2/m1² {r}");
                    let two_pole = fast != core::f64::consts::LN_2 * m1;
                    if r < 0.75 {
                        branches[0] = true;
                    } else if r >= 1.0 {
                        branches[1] = true;
                    } else if two_pole {
                        branches[2] = true;
                    }
                }
            }
        }
        assert_eq!(branches, [true, true, true], "grid must reach every branch");
    }

    #[test]
    #[should_panic(expected = "m2 must be positive")]
    fn d2m_validates() {
        d2m_delay(1e-12, 0.0);
    }
}
