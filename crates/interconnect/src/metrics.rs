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
/// The bisection only evaluates the step response where its outcome is
/// not yet proven: a root estimate plus a rounding-error bound certify a
/// window around the root, and every bisection point outside it takes the
/// branch the bound proves. When the fast pole's term provably rounds away
/// on the whole window, the root estimate is the slow pole's closed form
/// and each evaluation costs one `exp` instead of two. The `lo`/`hi`
/// sequence, and so the result, is bit-identical to evaluating every step.
///
/// # Panics
///
/// Panics if `m1 <= 0` or `m2 <= 0`.
pub fn two_pole_delay(m1: f64, m2: f64) -> f64 {
    assert!(m1 > 0.0 && m2 > 0.0, "moments must be positive");
    match StepResponse::fit(m1, m2) {
        Some(step) => step.crossing(m1, CertifiedWindow::find(&step, m1)),
        None => core::f64::consts::LN_2 * m1,
    }
}

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

    /// The 50 % crossing by bracket doubling from `20·m1`, then bisection.
    /// Points outside `window` take its proven branch; every other point
    /// evaluates `v`, so the bracket sequence is the same with or without
    /// a window.
    fn crossing(&self, m1: f64, window: Option<CertifiedWindow>) -> f64 {
        let slow_pole = window.is_some_and(|w| w.slow_pole);
        let mut lo = 0.0;
        let mut hi = 20.0 * m1;
        for _ in 0..200 {
            let reached = match window.and_then(|w| w.below_half(hi)) {
                Some(below) => !below,
                None => self.v(hi, slow_pole) >= 0.5,
            };
            if reached {
                break;
            }
            hi *= 2.0;
        }
        // At most 80 halvings; stop at the first one that leaves `(lo, hi)`
        // unchanged. Each step is a pure function of `(lo, hi)`, so every later
        // step would repeat it and the answer is bit-identical to running all 80.
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            let below = window
                .and_then(|w| w.below_half(mid))
                .unwrap_or_else(|| self.v(mid, slow_pole) < 0.5);
            let (next_lo, next_hi) = if below { (mid, hi) } else { (lo, mid) };
            if next_lo.to_bits() == lo.to_bits() && next_hi.to_bits() == hi.to_bits() {
                break;
            }
            lo = next_lo;
            hi = next_hi;
        }
        0.5 * (lo + hi)
    }

    /// `v(t)` and its slope `v′(t) = (e^{−t/τ1} − e^{−t/τ2})/(τ1 − τ2)`,
    /// both from one pair of `exp` calls. The only two-pole expression for
    /// `v` in this module, so every caller rounds it the same way.
    fn eval(&self, t: f64) -> (f64, f64) {
        #[cfg(test)]
        tests::count_eval(2);
        let e1 = (-t / self.tau1).exp();
        let e2 = (-t / self.tau2).exp();
        let v = 1.0 - (self.tau1 * e1 - self.tau2 * e2) / self.spread;
        (v, (e1 - e2) / self.spread)
    }

    /// `v(t)`; with `slow_pole`, from the slow pole's `exp` alone. That is
    /// [`StepResponse::eval`]'s expression with the `τ2·e^{−t/τ2}` term
    /// dropped, and bit-identical to it wherever a
    /// [`StepResponse::slow_pole_root`] certificate holds: there the dropped
    /// term is below a quarter ulp of `τ1·e^{−t/τ1}`, so the subtraction
    /// returns `τ1·e^{−t/τ1}` unchanged.
    fn v(&self, t: f64, slow_pole: bool) -> f64 {
        if !slow_pole {
            return self.eval(t).0;
        }
        #[cfg(test)]
        tests::count_eval(1);
        let e1 = (-t / self.tau1).exp();
        1.0 - (self.tau1 * e1) / self.spread
    }

    /// The slow pole's closed-form 50 % crossing `r = τ1·ln(2τ1/(τ1−τ2))`
    /// and the window half-width `δ = 4E·2τ1` (`2τ1` is `1/v′(r)` there),
    /// or `None` unless the fast pole's term provably rounds away on the
    /// widest window `[a, b] = r ∓ 64δ` the certification may try.
    ///
    /// The certificate `a/τ2 − b/τ1 ≥ 41`. For `t` in `[a, b]`,
    /// `t/τ2 − t/τ1 ≥ a/τ2 − b/τ1`, so
    /// `τ2·e^{−t/τ2} ≤ (τ2/τ1)·e^{−41}·τ1·e^{−t/τ1} < 2^{−59}·τ1·e^{−t/τ1}`.
    /// Below `2^{−55}·x`, a term is under a quarter ulp of `x` and under
    /// half the spacing below `x` even when `x` is a power of two, so
    /// `fl(x − y) = x`. The 2^4 of slack covers `exp`'s error, the rounding
    /// of the `exp` arguments and products, and the rounding of the
    /// certificate itself.
    fn slow_pole_root(&self, err: f64) -> Option<(f64, f64)> {
        let root = self.tau1 * (2.0 * self.tau1 / self.spread).ln();
        let half_width = 8.0 * err * self.tau1;
        let reach = half_width * 4f64.powi(WIDENINGS as i32);
        let (a, b) = (root - reach, root + reach);
        (a / self.tau2 - b / self.tau1 >= 41.0).then_some((root, half_width))
    }

    /// The 50 % crossing by Newton from `ln2·m1` and the window half-width
    /// `4E/v′` there, or `None` when the slope is unusable or Newton does
    /// not settle.
    fn newton_root(&self, m1: f64, err: f64) -> Option<(f64, f64)> {
        // v is concave at ln2·m1 (past the impulse response's peak) and
        // ln2·m1 lies left of the root, so the iterates rise toward it.
        // Near a root, Newton's next error is about `|v″/2v′|·step² ≤
        // step²/m1`; stop once that is a sixteenth of the window's
        // half-width.
        let mut t = core::f64::consts::LN_2 * m1;
        for _ in 0..12 {
            let (v, slope) = self.eval(t);
            if slope.is_nan() || slope <= 0.0 {
                return None;
            }
            let newton = (0.5 - v) / slope;
            t += newton;
            let half_width = 4.0 * err / slope;
            if newton * newton <= m1 * half_width / 16.0 {
                return Some((t, half_width));
            }
        }
        None
    }
}

/// How many times [`CertifiedWindow::find`] widens a failing side 4×.
const WIDENINGS: u32 = 3;

/// An interval `(below, above)` outside which the computed `v(t) < 0.5`
/// test has a proven outcome: true for every `t ≤ below`, false for every
/// `t ≥ above`.
///
/// Proof sketch. Let `v*` be `v` in exact arithmetic on the computed `τ1`,
/// `τ2` and `τ1 − τ2`; it is strictly increasing. With `u = ε/2` and libm
/// `exp` within 8 ulp, the computed `v` differs from `v*` by at most
/// `E = 64·u·m1/(τ1−τ2) + 4·u` at every `t > 0` (the `exp` argument's
/// rounding costs at most `x·e^{−x}·u ≤ u/e` per term; the rest is a few
/// roundings of terms bounded by `m1/(τ1−τ2)`). If the computed
/// `v(below) < 0.5 − 2E`, then `v*(t) ≤ v*(below) < 0.5 − E` for all
/// `t ≤ below`, so the computed `v(t) < 0.5`; symmetrically for `above`.
/// The slack in `E` covers the rounding of `E` and of `0.5 ± 2E`.
#[derive(Clone, Copy, Debug)]
struct CertifiedWindow {
    below: f64,
    above: f64,
    /// The window came from [`StepResponse::slow_pole_root`]: every `v`
    /// inside it is evaluated with one `exp`.
    slow_pole: bool,
}

impl CertifiedWindow {
    /// Certifies a window around the 50 % crossing, or returns `None`
    /// when the poles are so close that `v` is known to fewer than half
    /// its digits (`E > √ε`), when Newton does not settle, or when a side
    /// fails to certify after a few widenings. `None` means every
    /// bisection step evaluates `v`, exactly as without a window.
    fn find(step: &StepResponse, m1: f64) -> Option<Self> {
        let u = f64::EPSILON / 2.0;
        let err = 64.0 * u * m1 / step.spread + 4.0 * u;
        if err.is_nan() || err > f64::EPSILON.sqrt() {
            return None;
        }
        let (t, half_width, slow_pole) = match step.slow_pole_root(err) {
            Some((t, half_width)) => (t, half_width, true),
            None => {
                let (t, half_width) = step.newton_root(m1, err)?;
                (t, half_width, false)
            }
        };
        if !(t > 0.0 && t < 20.0 * m1) {
            return None;
        }
        let mut below = None;
        let mut above = None;
        let mut delta = half_width;
        for _ in 0..=WIDENINGS {
            if below.is_none() && step.v(t - delta, slow_pole) < 0.5 - 2.0 * err {
                below = Some(t - delta);
            }
            if above.is_none() && step.v(t + delta, slow_pole) >= 0.5 + 2.0 * err {
                above = Some(t + delta);
            }
            if let (Some(below), Some(above)) = (below, above) {
                return Some(Self {
                    below,
                    above,
                    slow_pole,
                });
            }
            delta *= 4.0;
        }
        None
    }

    /// The proven outcome of the computed `v(t) < 0.5`, or `None` when `t`
    /// lies inside the window and `v` must be evaluated.
    fn below_half(self, t: f64) -> Option<bool> {
        if t <= self.below {
            Some(true)
        } else if t >= self.above {
            Some(false)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elmore::moments_all;
    use crate::rctree::RcTree;
    use std::cell::Cell;

    thread_local! {
        /// Evaluations of `v` on this thread: `[one-exp, two-exp]`.
        static EVALS: Cell<[u64; 2]> = const { Cell::new([0; 2]) };
    }

    /// Counts one evaluation of `v` that called `exp` `exps` (1 or 2) times.
    pub(super) fn count_eval(exps: usize) {
        EVALS.with(|n| {
            let mut counts = n.get();
            counts[exps - 1] += 1;
            n.set(counts);
        });
    }

    /// `f()` and the `[one-exp, two-exp]` evaluations of `v` it made.
    fn counted_by_kind(f: impl FnOnce() -> f64) -> (f64, [u64; 2]) {
        EVALS.with(|n| n.set([0; 2]));
        let d = f();
        (d, EVALS.with(Cell::get))
    }

    /// `f()` and the number of `v` evaluations it made.
    fn counted(f: impl FnOnce() -> f64) -> (f64, u64) {
        let (d, [one, two]) = counted_by_kind(f);
        (d, one + two)
    }

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

    /// SplitMix64 → uniform in [0, 1): a seeded stream for the sweep below.
    fn uniform(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn certified_bisection_matches_the_fixed_80_step_bisection_on_random_moments() {
        // m1 log-uniform over 1e-16…1e-8; m2/m1² clustered at the
        // near-coincident edge (0.75 + 1e-14, 0.75 + 1e-6), at a far second
        // pole (1 − 1e-9), uniform over every branch, and uniform over the
        // c432 sinks' range [0.98, 1.0001], where the certified slow-pole
        // branch starts.
        let mut state = 0x5eed_2023_u64;
        let (mut slow_pole, mut two_exp, mut unwindowed) = (0u32, 0u32, 0u32);
        for i in 0..300_000u32 {
            let m1 = 10f64.powf(-16.0 + 8.0 * uniform(&mut state));
            let jitter = 1.0 + uniform(&mut state);
            let ratio = match i % 5 {
                0 => 0.75 + 1e-14 * jitter,
                1 => 0.75 + 1e-6 * jitter,
                2 => 1.0 - 1e-9 * jitter,
                3 => 0.7 + 0.35 * uniform(&mut state),
                _ => 0.98 + 0.0201 * uniform(&mut state),
            };
            let m2 = ratio * m1 * m1;
            let fast = two_pole_delay(m1, m2);
            let fixed = two_pole_delay_fixed_80(m1, m2);
            assert_eq!(fast.to_bits(), fixed.to_bits(), "m1 {m1:e}, m2 {m2:e}");
            if let Some(step) = StepResponse::fit(m1, m2) {
                match CertifiedWindow::find(&step, m1) {
                    Some(w) if w.slow_pole => slow_pole += 1,
                    Some(_) => two_exp += 1,
                    None => unwindowed += 1,
                }
            }
        }
        assert!(slow_pole > 100_000, "slow-pole windows: {slow_pole}");
        assert!(two_exp > 50_000, "two-exp windows: {two_exp}");
        assert!(unwindowed > 0, "the no-window fallback was never reached");
    }

    #[test]
    fn c432_like_sinks_evaluate_only_the_slow_pole() {
        // Every c432 sink with a fit has m2/m1² ≥ 0.994; at 0.996 the
        // closed-form root certifies at once and the bisection needs no
        // second exp.
        for m1 in [1e-15, 3e-12, 7.7e-10] {
            let m2 = 0.996 * m1 * m1;
            let (d, [one_exp, two_exp]) = counted_by_kind(|| two_pole_delay(m1, m2));
            assert_eq!(d.to_bits(), two_pole_delay_fixed_80(m1, m2).to_bits());
            assert!(one_exp <= 16, "{one_exp} one-exp evaluations at m1 {m1:e}");
            assert_eq!(two_exp, 0, "two-exp evaluations at m1 {m1:e}");
        }
    }

    #[test]
    fn distinct_poles_take_at_most_24_evaluations() {
        let (tau1, tau2) = (3e-12, 1e-12);
        let m1 = tau1 + tau2;
        let m2 = m1 * m1 - tau1 * tau2;
        let (d, evals) = counted(|| two_pole_delay(m1, m2));
        assert_eq!(d.to_bits(), two_pole_delay_fixed_80(m1, m2).to_bits());
        assert!(evals <= 24, "{evals} evaluations of v");
        // Without a window every doubling-loop check and bisection step
        // evaluates v, and lands on the same bits.
        let step = StepResponse::fit(m1, m2).expect("distinct real poles");
        let (plain, plain_evals) = counted(|| step.crossing(m1, None));
        assert_eq!(plain.to_bits(), d.to_bits());
        assert!(
            plain_evals >= 50,
            "{plain_evals} evaluations without a window"
        );
    }

    #[test]
    #[should_panic(expected = "m2 must be positive")]
    fn d2m_validates() {
        d2m_delay(1e-12, 0.0);
    }
}
