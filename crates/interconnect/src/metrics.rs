//! Closed-form wire delay metrics built on impulse-response moments:
//! Elmore (m₁), D2M, and the two-pole 50 %-crossing estimate the golden
//! simulator uses at circuit scale.
//!
//! The two-pole crossing is the slow pole's closed form wherever the fast
//! pole is negligible, and a safeguarded Newton root otherwise. Its tests
//! hold it to a fixed 80-step bisection of the same fitted response: within
//! that response's rounding-error bound, and within a few ulps where c432's
//! sinks lie.

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
/// `1/((1+sτ₁)(1+sτ₂))`, i.e. `τ₁+τ₂ = m1`, `τ₁τ₂ = m1² − m2`, and returns
/// the step response's 50 % crossing. Falls back to the single-pole answer
/// `ln2·m1` when the fitted poles would be complex (`m2 < ¾·m1²`) or
/// degenerate.
///
/// When the fast pole's term is negligible at the slow pole's own crossing,
/// that closed form `τ₁·ln(2τ₁/(τ₁−τ₂))` is the answer: one `ln`, no `exp`.
/// Otherwise a safeguarded Newton iteration from `ln2·m1` runs until its
/// step is below what the computed response can resolve. The result is
/// not bit-identical to bisecting the computed response; it lies within
/// the response's rounding-error bound of that root (DESIGN.md §9).
///
/// # Panics
///
/// Panics if `m1 <= 0` or `m2 <= 0`.
pub fn two_pole_delay(m1: f64, m2: f64) -> f64 {
    assert!(m1 > 0.0 && m2 > 0.0, "moments must be positive");
    match StepResponse::fit(m1, m2) {
        Some(step) => step
            .slow_pole_root()
            .unwrap_or_else(|| step.newton_root(m1, core::f64::consts::LN_2 * m1).0),
        None => core::f64::consts::LN_2 * m1,
    }
}

/// Evaluations of `v` after which [`StepResponse::newton_root`] returns its
/// current iterate: enough for the safeguard to bisect `[0, 20·m1]` down to
/// an ulp of the root.
const MAX_EVALS: u32 = 100;

/// The fitted two-pole step response
/// `v(t) = 1 − (τ1·e^{−t/τ1} − τ2·e^{−t/τ2})/(τ1 − τ2)`, strictly
/// increasing from 0 to 1 for `τ1 > τ2 > 0`.
struct StepResponse {
    tau1: f64,
    tau2: f64,
    /// `τ1 − τ2` as computed once; every evaluation divides by this value.
    spread: f64,
}

impl StepResponse {
    /// The two real poles matching `(m1, m2)`, or `None` when they would be
    /// complex, non-physical (`m2 ≥ m1²`) or degenerate.
    fn fit(m1: f64, m2: f64) -> Option<Self> {
        let prod = m1 * m1 - m2;
        let disc = m1 * m1 - 4.0 * prod;
        if prod <= 0.0 || disc < 0.0 {
            return None;
        }
        let sq = disc.sqrt();
        let tau1 = 0.5 * (m1 + sq);
        let tau2 = 0.5 * (m1 - sq);
        if tau2 <= 0.0 || (tau1 - tau2) < 1e-18 * tau1 {
            return None;
        }
        Some(Self {
            tau1,
            tau2,
            spread: tau1 - tau2,
        })
    }

    /// `v(t)` and its slope `v′(t) = (e^{−t/τ1} − e^{−t/τ2})/(τ1 − τ2)`,
    /// both from one pair of `exp` calls.
    fn eval(&self, t: f64) -> (f64, f64) {
        let e1 = (-t / self.tau1).exp();
        let e2 = (-t / self.tau2).exp();
        let v = 1.0 - (self.tau1 * e1 - self.tau2 * e2) / self.spread;
        (v, (e1 - e2) / self.spread)
    }

    /// The slow pole's closed-form 50 % crossing `r = τ1·ln(2τ1/(τ1−τ2))`,
    /// the root of `1 − τ1·e^{−t/τ1}/(τ1−τ2) = ½`, or `None` unless the fast
    /// pole's term is negligible there: `r/τ2 − r/τ1 ≥ 41`.
    ///
    /// Then `τ2·e^{−r/τ2} ≤ (τ2/τ1)·e^{−41}·τ1·e^{−r/τ1} <
    /// 2^{−59}·τ1·e^{−r/τ1}`, below a quarter ulp of the slow term, so the
    /// computed `v` near `r` is the slow pole's expression and `r` is its
    /// root up to the rounding of `ln` and `exp`.
    fn slow_pole_root(&self) -> Option<f64> {
        let root = self.tau1 * (2.0 * self.tau1 / self.spread).ln();
        (root / self.tau2 - root / self.tau1 >= 41.0).then_some(root)
    }

    /// `E = 64·u·m1/(τ1−τ2) + 4·u` (`u = ε/2`): the computed `v(t)` is
    /// within `E` of the same expression in exact arithmetic on the
    /// computed `τ1`, `τ2` and `τ1 − τ2`, at every `t > 0`.
    ///
    /// Proof sketch, with libm `exp` within 8 ulp: the `exp` argument's
    /// rounding costs at most `x·e^{−x}·u ≤ u/e` per term; the products, the
    /// difference and the division add a few `u` of terms bounded by
    /// `m1/(τ1−τ2)`. The bound keeps about 3× slack.
    fn rounding_error(&self, m1: f64) -> f64 {
        let u = f64::EPSILON / 2.0;
        64.0 * u * m1 / self.spread + 4.0 * u
    }

    /// The 50 % crossing by Newton from `start`, and the number of
    /// evaluations of `v` it took.
    ///
    /// [`two_pole_delay`] starts at `ln2·m1`: `v` is concave there (past the
    /// impulse response's peak) and below ½, so the iterates rise toward
    /// the root. Newton stops once its step is under `max(4ε·t, E/v′)`
    /// with `E` from [`StepResponse::rounding_error`]: a smaller step is
    /// noise the computed `v` cannot resolve. The last step is taken before
    /// returning. Every evaluation narrows a bracket `(lo, hi)` around the
    /// root, starting from `(0, 20·m1)`; an iterate that leaves it, or a
    /// slope that is not positive, is replaced by the bracket's midpoint.
    fn newton_root(&self, m1: f64, start: f64) -> (f64, u32) {
        let err = self.rounding_error(m1);
        let (mut lo, mut hi) = (0.0, 20.0 * m1);
        let mut t = start;
        for evals in 1..=MAX_EVALS {
            let (v, slope) = self.eval(t);
            if v < 0.5 {
                lo = t;
            } else {
                hi = t;
            }
            if slope > 0.0 {
                let step = (0.5 - v) / slope;
                if step.abs() <= (4.0 * f64::EPSILON * t).max(err / slope) {
                    return (t + step, evals);
                }
                if t + step > lo && t + step < hi {
                    t += step;
                    continue;
                }
            }
            t = 0.5 * (lo + hi);
        }
        (t, MAX_EVALS)
    }
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

    /// The bisection the closed form and Newton replaced, always 80
    /// halvings: the accuracy oracle for [`two_pole_delay`].
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

    /// The rounding-error bound `E` of the computed response fitted to
    /// `(m1, m2)`, or `None` on the fallback branches.
    fn error_bound(m1: f64, m2: f64) -> Option<f64> {
        StepResponse::fit(m1, m2).map(|step| step.rounding_error(m1))
    }

    /// Distance in ulps between two positive doubles.
    fn ulps(a: f64, b: f64) -> u64 {
        (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs()
    }

    /// Checks `two_pole_delay(m1, m2)` against the fixed 80-step oracle,
    /// exact bits on the fallback branches and within `E·oracle` on a fit,
    /// and returns both.
    fn check_against_oracle(m1: f64, m2: f64) -> (f64, f64) {
        let d = two_pole_delay(m1, m2);
        let oracle = two_pole_delay_fixed_80(m1, m2);
        match error_bound(m1, m2) {
            None => assert_eq!(
                d.to_bits(),
                oracle.to_bits(),
                "fallback m1 {m1:e}, m2 {m2:e}"
            ),
            Some(err) => assert!(
                (d - oracle).abs() <= err * oracle,
                "m1 {m1:e}, m2 {m2:e}: {d:e} vs {oracle:e}, E = {err:e}"
            ),
        }
        (d, oracle)
    }

    #[test]
    fn grid_stays_within_the_error_bound_of_the_fixed_80_step_bisection() {
        // m2/m1² spans every branch: complex poles (< 0.75), the coincident-
        // pole edge (= 0.75 and just above), distinct real poles, and the
        // non-physical m2 ≥ m1² fallback.
        let mut ratios = vec![0.3, 0.5, 0.7499999, 0.75, 0.75 + 1e-15, 0.7500001];
        ratios.extend((0..=200).map(|i| 0.75 + 0.25 * i as f64 / 200.0));
        ratios.extend([0.999_999_999, 1.0, 1.000_000_1, 1.5, 3.0]);
        let mut branches = [false; 4];
        for e in -16..=-8 {
            for mantissa in [1.0, 1.37, 2.9, 7.3] {
                let m1 = mantissa * 10f64.powi(e);
                for &r in &ratios {
                    let m2 = r * m1 * m1;
                    check_against_oracle(m1, m2);
                    match StepResponse::fit(m1, m2) {
                        None if r < 0.75 => branches[0] = true,
                        None if r >= 1.0 => branches[1] = true,
                        None => {}
                        Some(step) if step.slow_pole_root().is_some() => branches[2] = true,
                        Some(_) => branches[3] = true,
                    }
                }
            }
        }
        assert_eq!(branches, [true; 4], "grid must reach every branch");
    }

    /// SplitMix64 → uniform in [0, 1): a seeded stream for the sweep below.
    fn uniform(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn sweep_stays_within_the_error_bound_of_the_fixed_80_step_bisection() {
        // m1 log-uniform over 1e-16…1e-8; m2/m1² clustered at the
        // near-coincident edge (0.75 + 1e-14, 0.75 + 1e-6), at a far second
        // pole (1 − 1e-9), uniform over every branch, and uniform over the
        // c432 sinks' range [0.98, 1.0001], where the closed form starts.
        let mut state = 0x5eed_2023_u64;
        let (mut closed_form, mut newton, mut most_evals) = (0u32, 0u32, 0u32);
        for i in 0..300_000u32 {
            let m1 = 10f64.powf(-16.0 + 8.0 * uniform(&mut state));
            let jitter = 1.0 + uniform(&mut state);
            let stratum = i % 5;
            let ratio = match stratum {
                0 => 0.75 + 1e-14 * jitter,
                1 => 0.75 + 1e-6 * jitter,
                2 => 1.0 - 1e-9 * jitter,
                3 => 0.7 + 0.35 * uniform(&mut state),
                _ => 0.98 + 0.0201 * uniform(&mut state),
            };
            let m2 = ratio * m1 * m1;
            let (d, oracle) = check_against_oracle(m1, m2);
            if stratum == 2 || stratum == 4 {
                assert!(
                    ulps(d, oracle) <= 8,
                    "m1 {m1:e}, m2/m1² {ratio}: {d:e} vs {oracle:e}"
                );
            }
            if let Some(step) = StepResponse::fit(m1, m2) {
                match step.slow_pole_root() {
                    Some(_) => closed_form += 1,
                    None => {
                        newton += 1;
                        let (_, evals) = step.newton_root(m1, core::f64::consts::LN_2 * m1);
                        most_evals = most_evals.max(evals);
                    }
                }
            }
        }
        assert!(closed_form >= 100_000, "closed-form cases: {closed_form}");
        assert!(newton >= 50_000, "Newton cases: {newton}");
        // Newton settles in a few evaluations everywhere, the near-coincident
        // strata included, where only the `E/v′` stop keeps it from stalling.
        assert!(most_evals <= 8, "{most_evals} evaluations of v in one call");
    }

    #[test]
    fn c432_like_sinks_take_the_slow_pole_closed_form() {
        // Every c432 sink with a fit has m2/m1² ≥ 0.9955; at 0.996 the
        // answer is the slow pole's closed form, computed with one `ln` and
        // no evaluation of the response.
        for m1 in [1e-15, 3e-12, 7.7e-10] {
            let m2 = 0.996 * m1 * m1;
            let step = StepResponse::fit(m1, m2).expect("distinct real poles");
            let closed = step.tau1 * (2.0 * step.tau1 / (step.tau1 - step.tau2)).ln();
            let d = two_pole_delay(m1, m2);
            assert_eq!(d.to_bits(), closed.to_bits(), "m1 {m1:e}");
            assert!(ulps(d, two_pole_delay_fixed_80(m1, m2)) <= 8, "m1 {m1:e}");
        }
    }

    #[test]
    fn distinct_poles_take_at_most_6_newton_evaluations() {
        let (tau1, tau2) = (3e-12, 1e-12);
        let m1 = tau1 + tau2;
        let m2 = m1 * m1 - tau1 * tau2;
        let step = StepResponse::fit(m1, m2).expect("distinct real poles");
        assert!(
            step.slow_pole_root().is_none(),
            "the fast pole is not negligible"
        );
        let (d, evals) = step.newton_root(m1, core::f64::consts::LN_2 * m1);
        assert_eq!(d.to_bits(), two_pole_delay(m1, m2).to_bits());
        assert!(evals <= 6, "{evals} evaluations of v");
        check_against_oracle(m1, m2);
    }

    #[test]
    fn safeguard_bisects_from_starts_newton_cannot_use() {
        // Far right of the root the slope is tiny and the Newton step
        // leaves the bracket; near t = 0 the slope rounds to zero. Both
        // starts must bisect into Newton's basin and land within the bound.
        for (tau1, tau2) in [(3e-12, 1e-12), (1e-9, 0.5e-9), (2e-15, 1.9e-15)] {
            let m1 = tau1 + tau2;
            let m2 = m1 * m1 - tau1 * tau2;
            let step = StepResponse::fit(m1, m2).expect("distinct real poles");
            let oracle = two_pole_delay_fixed_80(m1, m2);
            let err = error_bound(m1, m2).expect("a fit");
            for start in [19.0 * m1, 1e-30 * m1] {
                let (d, evals) = step.newton_root(m1, start);
                assert!(evals < MAX_EVALS, "no convergence from {start:e}");
                assert!(
                    (d - oracle).abs() <= err * oracle,
                    "{d:e} vs {oracle:e} from {start:e}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "m2 must be positive")]
    fn d2m_validates() {
        d2m_delay(1e-12, 0.0);
    }
}
