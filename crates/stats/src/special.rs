//! Special functions used throughout the statistics substrate.
//!
//! Everything here is implemented from scratch so the workspace has no
//! dependency on an external special-function crate. Accuracy targets are
//! stated per function; they are comfortably sufficient for fitting delay
//! models to 10 k-sample Monte-Carlo data where sampling noise dominates.

// Cody's rational Chebyshev coefficients for erf/erfc (W. J. Cody,
// "Rational Chebyshev approximation for the error function", Math. Comp.
// 1969; the same coefficients used by netlib's CALERF). Relative error is
// below ~1.2e-16 over the whole real line.
const CODY_A: [f64; 5] = [
    3.161_123_743_870_565_6e0,
    1.138_641_541_510_501_6e2,
    3.774_852_376_853_02e2,
    3.209_377_589_138_469_4e3,
    1.857_777_061_846_031_5e-1,
];
const CODY_B: [f64; 4] = [
    2.360_129_095_234_412_1e1,
    2.440_246_379_344_441_7e2,
    1.282_616_526_077_372_3e3,
    2.844_236_833_439_171e3,
];
const CODY_C: [f64; 9] = [
    5.641_884_969_886_701e-1,
    8.883_149_794_388_375,
    6.611_919_063_714_163e1,
    2.986_351_381_974_001e2,
    8.819_522_212_417_69e2,
    1.712_047_612_634_070_6e3,
    2.051_078_377_826_071_5e3,
    1.230_339_354_797_997_2e3,
    2.153_115_354_744_038_5e-8,
];
const CODY_D: [f64; 8] = [
    1.574_492_611_070_983_5e1,
    1.176_939_508_913_125e2,
    5.371_811_018_620_099e2,
    1.621_389_574_566_690_2e3,
    3.290_799_235_733_459_6e3,
    4.362_619_090_143_247e3,
    3.439_367_674_143_721_6e3,
    1.230_339_354_803_749_4e3,
];
const CODY_P: [f64; 6] = [
    3.053_266_349_612_323_4e-1,
    3.603_448_999_498_044_4e-1,
    1.257_817_261_112_292_5e-1,
    1.608_378_514_874_228e-2,
    6.587_491_615_298_378e-4,
    1.631_538_713_730_209_8e-2,
];
const CODY_Q: [f64; 5] = [
    2.568_520_192_289_822,
    1.872_952_849_923_460_4e0,
    5.279_051_029_514_284e-1,
    6.051_834_131_244_132e-2,
    2.335_204_976_268_691_8e-3,
];
const SQRPI: f64 = 5.641_895_835_477_563e-1; // 1/sqrt(pi)

/// `erfc(x)·exp(x²)` for `x ≥ 0.46875` (the scaled tail used internally).
fn erfcx_tail(y: f64) -> f64 {
    if y <= 4.0 {
        let mut xnum = CODY_C[8] * y;
        let mut xden = y;
        for i in 0..7 {
            xnum = (xnum + CODY_C[i]) * y;
            xden = (xden + CODY_D[i]) * y;
        }
        (xnum + CODY_C[7]) / (xden + CODY_D[7])
    } else {
        let z = 1.0 / (y * y);
        let mut xnum = CODY_P[5] * z;
        let mut xden = z;
        for i in 0..4 {
            xnum = (xnum + CODY_P[i]) * z;
            xden = (xden + CODY_Q[i]) * z;
        }
        let r = z * (xnum + CODY_P[4]) / (xden + CODY_Q[4]);
        (SQRPI - r) / y
    }
}

/// Splits `exp(-y²)` into two factors exactly as CALERF does, to preserve
/// precision for large `y`.
fn exp_neg_sq(y: f64) -> f64 {
    let ysq = (y * 16.0).trunc() / 16.0;
    let del = (y - ysq) * (y + ysq);
    (-ysq * ysq).exp() * (-del).exp()
}

/// Error function `erf(x)`, relative error below ~1.2e-16 (Cody's rational
/// Chebyshev approximation).
///
/// # Examples
///
/// ```
/// let e = nsigma_stats::special::erf(1.0);
/// assert!((e - 0.8427007929497149).abs() < 1e-14);
/// ```
pub fn erf(x: f64) -> f64 {
    let y = x.abs();
    if y <= 0.46875 {
        let z = if y > 1.11e-16 { y * y } else { 0.0 };
        let mut xnum = CODY_A[4] * z;
        let mut xden = z;
        for i in 0..3 {
            xnum = (xnum + CODY_A[i]) * z;
            xden = (xden + CODY_B[i]) * z;
        }
        x * (xnum + CODY_A[3]) / (xden + CODY_B[3])
    } else {
        let v = 1.0 - exp_neg_sq(y) * erfcx_tail(y);
        if x < 0.0 {
            -v
        } else {
            v
        }
    }
}

/// Complementary error function `erfc(x) = 1 − erf(x)`, accurate in the far
/// tail (no cancellation for large positive `x`).
fn erfc(x: f64) -> f64 {
    let y = x.abs();
    if y <= 0.46875 {
        1.0 - erf(x)
    } else if y > 26.5 {
        if x > 0.0 {
            0.0
        } else {
            2.0
        }
    } else {
        let v = exp_neg_sq(y) * erfcx_tail(y);
        if x < 0.0 {
            2.0 - v
        } else {
            v
        }
    }
}

/// Standard normal cumulative distribution function Φ(x).
///
/// # Examples
///
/// ```
/// assert!((nsigma_stats::special::norm_cdf(0.0) - 0.5).abs() < 1e-12);
/// ```
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / core::f64::consts::SQRT_2)
}

/// Standard normal probability density function φ(x).
pub fn norm_pdf(x: f64) -> f64 {
    const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
    INV_SQRT_2PI * (-0.5 * x * x).exp()
}

/// Inverse of the standard normal CDF (the probit function), Φ⁻¹(p).
///
/// Implements Peter Acklam's rational approximation followed by one step of
/// Halley refinement, giving a relative error below ~1e-13 across the open
/// interval `(0, 1)`.
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)`.
///
/// # Examples
///
/// ```
/// let z = nsigma_stats::special::norm_quantile(0.9986501019683699);
/// assert!((z - 3.0).abs() < 1e-9);
/// ```
pub fn norm_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "norm_quantile requires p in (0,1), got {p}"
    );

    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];

    const P_LOW: f64 = 0.02425;
    const P_HIGH: f64 = 1.0 - P_LOW;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step.
    let e = norm_cdf(x) - p;
    let u = e * (2.0 * core::f64::consts::PI).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

/// Natural log of the gamma function, via the Lanczos approximation
/// (g = 7, n = 9 coefficients). Accurate to ~1e-13 for `x > 0`.
///
/// # Panics
///
/// Panics if `x <= 0`.
fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];

    if x < 0.5 {
        // Reflection formula
        let pi = core::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * core::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// The gamma function Γ(x) for `x > 0`.
pub fn gamma(x: f64) -> f64 {
    ln_gamma(x).exp()
}

/// The beta function B(a, b) = Γ(a)Γ(b)/Γ(a+b).
pub fn beta(a: f64, b: f64) -> f64 {
    (ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)).exp()
}

/// Owen's T function `T(h, a)`, used by the skew-normal CDF.
///
/// Computed by adaptive Simpson integration of
/// `T(h,a) = 1/(2π) ∫₀ᵃ exp(-h²(1+x²)/2)/(1+x²) dx`,
/// which is plenty accurate (≤1e-10) for the |a| ≤ ~40 range used here.
pub fn owen_t(h: f64, a: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    // Symmetries: T(h,a) = T(-h,a); T(h,-a) = -T(h,a)
    let h = h.abs();
    let sign = if a < 0.0 { -1.0 } else { 1.0 };
    let a = a.abs();

    // For large a, T(h, a) -> T(h, inf) = 0.5*Phi(-h) - use identity to keep
    // the integration domain modest:
    // T(h, a) = 0.5*(Phi(h) + Phi(a*h)) - Phi(h)*Phi(a*h) - T(a*h, 1/a)
    if a > 1.0 {
        let phi_h = norm_cdf(h);
        let phi_ah = norm_cdf(a * h);
        let t = 0.5 * (phi_h + phi_ah) - phi_h * phi_ah - owen_t(a * h, 1.0 / a);
        return sign * t;
    }

    let f = |x: f64| (-0.5 * h * h * (1.0 + x * x)).exp() / (1.0 + x * x);
    let integral = adaptive_simpson(&f, 0.0, a, 1e-12, 24);
    sign * integral / (2.0 * core::f64::consts::PI)
}

/// Adaptive Simpson quadrature on `[a, b]` with absolute tolerance `tol`.
fn adaptive_simpson(f: &dyn Fn(f64) -> f64, a: f64, b: f64, tol: f64, depth: u32) -> f64 {
    let c = 0.5 * (a + b);
    let fa = f(a);
    let fb = f(b);
    let fc = f(c);
    let whole = (b - a) / 6.0 * (fa + 4.0 * fc + fb);
    simpson_rec(f, a, b, fa, fb, fc, whole, tol, depth)
}

#[allow(clippy::too_many_arguments)]
fn simpson_rec(
    f: &dyn Fn(f64) -> f64,
    a: f64,
    b: f64,
    fa: f64,
    fb: f64,
    fc: f64,
    whole: f64,
    tol: f64,
    depth: u32,
) -> f64 {
    let c = 0.5 * (a + b);
    let d = 0.5 * (a + c);
    let e = 0.5 * (c + b);
    let fd = f(d);
    let fe = f(e);
    let left = (c - a) / 6.0 * (fa + 4.0 * fd + fc);
    let right = (b - c) / 6.0 * (fc + 4.0 * fe + fb);
    if depth == 0 || (left + right - whole).abs() <= 15.0 * tol {
        left + right + (left + right - whole) / 15.0
    } else {
        simpson_rec(f, a, c, fa, fc, fd, left, tol * 0.5, depth - 1)
            + simpson_rec(f, c, b, fc, fb, fe, right, tol * 0.5, depth - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-12);
        assert!((erf(1.0) - 0.842_700_79).abs() < 2e-7);
        assert!((erf(2.0) - 0.995_322_27).abs() < 2e-7);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 2e-7);
    }

    #[test]
    fn erfc_large_argument_positive() {
        // erfc(5) ~ 1.537e-12; naive 1-erf underflows to 0 with our erf.
        let v = erfc(5.0);
        assert!(v > 0.0);
        assert!((v - 1.537e-12).abs() / 1.537e-12 < 0.05);
    }

    #[test]
    fn erfc_far_tail_is_accurate() {
        let v = erfc(5.0);
        assert!((v - 1.537_459_794_428_035e-12).abs() / v < 1e-12);
    }

    #[test]
    fn norm_cdf_symmetry() {
        for &x in &[0.1, 0.5, 1.0, 2.0, 3.0] {
            assert!((norm_cdf(x) + norm_cdf(-x) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn norm_quantile_roundtrip() {
        for &p in &[0.0014, 0.0228, 0.1587, 0.5, 0.8413, 0.9772, 0.9986] {
            let z = norm_quantile(p);
            assert!((norm_cdf(z) - p).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn norm_quantile_sigma_levels() {
        // The seven sigma levels of Table I in the paper.
        assert!((norm_quantile(0.5)).abs() < 1e-12);
        assert!((norm_quantile(0.841_344_746_068_543) - 1.0).abs() < 1e-8);
        assert!((norm_quantile(0.977_249_868_051_821) - 2.0).abs() < 1e-8);
        assert!((norm_quantile(0.998_650_101_968_37) - 3.0).abs() < 1e-8);
    }

    #[test]
    #[should_panic(expected = "norm_quantile requires p in (0,1)")]
    fn norm_quantile_rejects_zero() {
        norm_quantile(0.0);
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Gamma(n) = (n-1)!
        assert!((gamma(1.0) - 1.0).abs() < 1e-10);
        assert!((gamma(2.0) - 1.0).abs() < 1e-10);
        assert!((gamma(5.0) - 24.0).abs() < 1e-8);
        assert!((gamma(0.5) - core::f64::consts::PI.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn beta_symmetric() {
        assert!((beta(2.0, 3.0) - beta(3.0, 2.0)).abs() < 1e-12);
        assert!((beta(2.0, 3.0) - 1.0 / 12.0).abs() < 1e-10);
    }

    #[test]
    fn owen_t_special_cases() {
        // T(h, 1) = 0.5*Phi(h)*(1 - Phi(h))
        for &h in &[0.0, 0.5, 1.0, 2.0] {
            let expected = 0.5 * norm_cdf(h) * (1.0 - norm_cdf(h));
            assert!((owen_t(h, 1.0) - expected).abs() < 1e-9, "h={h}");
        }
        // T(0, a) = atan(a)/(2*pi)
        for &a in &[0.2f64, 0.7, 1.0, 3.0] {
            let expected = a.atan() / (2.0 * core::f64::consts::PI);
            assert!((owen_t(0.0, a) - expected).abs() < 1e-9, "a={a}");
        }
        // Antisymmetric in a
        assert!((owen_t(1.0, 0.5) + owen_t(1.0, -0.5)).abs() < 1e-12);
    }
}
