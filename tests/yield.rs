//! Integration tests of the yield engine against the full stack: a
//! fixed-seed c432 tail regression (the paper's 99.86 % sign-off
//! quantile), thread-schedule determinism at the session API, and a
//! property test that importance sampling and plain Monte Carlo agree
//! within their confidence intervals on small circuits.

use nsigma::cells::CellLibrary;
use nsigma::core::sta::{NsigmaTimer, TimerConfig};
use nsigma::core::{MergeRule, TimingSession};
use nsigma::mc::design::Design;
use nsigma::mc::path_sim::{find_critical_path, simulate_path_mc, PathMcConfig};
use nsigma::netlist::generators::arith::ripple_adder;
use nsigma::netlist::generators::random_dag::Iscas85;
use nsigma::netlist::mapping::map_to_cells;
use nsigma::process::Technology;
use nsigma::stats::quantile::SigmaLevel;
use nsigma::yield_engine::{YieldAnalysis, YieldConfig, DEFAULT_IS_SHIFT};
use proptest::prelude::*;
use std::sync::OnceLock;

const SEED: u64 = 11;
const PARASITIC_SEED: u64 = 7;

/// Pinned +3σ (99.86 %) empirical tail quantile of c432 under the shared
/// timer at the fixed seed below, in ps. Regression guard: a change to
/// the sampling kernel, the RNG streams or the characterization that
/// moves the tail by more than 2 % must be deliberate. Re-pinned from
/// 3399.7 ps when the ziggurat replaced the polar normal sampler; the new
/// value lies inside the polar run's own order-statistic interval for the
/// 99.865 % quantile, [3254.1, 3470.0] ps (8th-largest to largest of its
/// 2048 trials, 93 % coverage).
const C432_TAIL_PS: f64 = 3440.3;

/// Pinned Monte-Carlo yield of c432 at its analytic +3σ quantile (from a
/// long fixed-seed run); the importance-sampled CI must cover it.
const C432_YIELD_AT_3SIGMA: f64 = 0.998;

fn shared_timer() -> &'static NsigmaTimer {
    static TIMER: OnceLock<NsigmaTimer> = OnceLock::new();
    TIMER.get_or_init(|| {
        let tech = Technology::synthetic_28nm();
        let lib = CellLibrary::standard();
        let mut cfg = TimerConfig::standard(SEED);
        cfg.char_samples = 300;
        cfg.wire.nets = 1;
        cfg.wire.samples = 200;
        NsigmaTimer::build(&tech, &lib, &cfg).expect("timer builds")
    })
}

fn session_for(design: Design) -> TimingSession<&'static NsigmaTimer> {
    TimingSession::new(shared_timer(), design, MergeRule::Pessimistic).expect("session")
}

fn c432_session() -> TimingSession<&'static NsigmaTimer> {
    let tech = Technology::synthetic_28nm();
    let lib = CellLibrary::standard();
    let netlist = map_to_cells(&Iscas85::C432.generate(), &lib).expect("mapping");
    session_for(Design::with_generated_parasitics(
        tech,
        lib,
        netlist,
        PARASITIC_SEED,
    ))
}

#[test]
fn c432_tail_quantile_regression() {
    let session = c432_session();

    // Fixed 2048-trial plain run (the tiny half-width disables early
    // stopping) pins the empirical sign-off quantile.
    let run = session
        .yield_run(&YieldConfig {
            ci_half_width: 1e-12,
            max_samples: 2048,
            chunk: 2048,
            seed: SEED,
            ..YieldConfig::default()
        })
        .expect("plain run");
    assert_eq!(run.report.samples, 2048);
    let tail_ps = run.report.mc_quantiles[SigmaLevel::PlusThree] * 1e12;
    assert!(
        (tail_ps - C432_TAIL_PS).abs() < 0.02 * C432_TAIL_PS,
        "c432 +3σ tail drifted: {tail_ps:.1} ps vs pinned {C432_TAIL_PS} ps"
    );

    // Importance sampling at the analytic +3σ target: converges to the
    // requested half-width and its interval covers the pinned yield.
    let is = session
        .yield_analysis(&YieldConfig {
            ci_half_width: 0.005,
            chunk: 64,
            max_samples: 8192,
            importance: Some(DEFAULT_IS_SHIFT),
            seed: SEED,
            ..YieldConfig::default()
        })
        .expect("importance run");
    assert!(is.converged, "IS must converge within the cap");
    assert!(is.estimate.half_width() <= 0.005 + 1e-12);
    assert!(
        (is.analytic_yield - 0.99865).abs() < 1e-3,
        "analytic yield at its own +3σ quantile must be the textbook level"
    );
    assert!(
        is.estimate.ci_lo - 0.005 <= C432_YIELD_AT_3SIGMA
            && C432_YIELD_AT_3SIGMA <= is.estimate.ci_hi + 0.005,
        "IS interval [{:.5}, {:.5}] must cover the pinned yield {C432_YIELD_AT_3SIGMA}",
        is.estimate.ci_lo,
        is.estimate.ci_hi
    );
}

#[test]
fn yield_is_independent_of_thread_schedule() {
    let session = c432_session();
    let cfg = |threads: usize| YieldConfig {
        ci_half_width: 1e-12,
        max_samples: 512,
        chunk: 128,
        threads,
        seed: SEED,
        importance: Some(DEFAULT_IS_SHIFT),
        ..YieldConfig::default()
    };
    let one = session.yield_analysis(&cfg(1)).expect("1 thread");
    let three = session.yield_analysis(&cfg(3)).expect("3 threads");
    assert_eq!(
        one.estimate.value.to_bits(),
        three.estimate.value.to_bits(),
        "trial-indexed RNG streams must make the estimate schedule-invariant"
    );
    assert_eq!(one.ess.to_bits(), three.ess.to_bits());
    assert_eq!(
        one.mc_quantiles.as_array().map(f64::to_bits),
        three.mc_quantiles.as_array().map(f64::to_bits)
    );
}

#[test]
fn invalid_configs_are_bad_requests() {
    let session = c432_session();
    for cfg in [
        YieldConfig {
            ci_half_width: -1.0,
            ..YieldConfig::default()
        },
        YieldConfig {
            importance: Some(99.0),
            ..YieldConfig::default()
        },
        YieldConfig {
            target_period: Some(f64::NAN),
            ..YieldConfig::default()
        },
    ] {
        let err = session.yield_analysis(&cfg).expect_err("must reject");
        assert_eq!(err.code(), "bad_request", "{err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// On small adders, the importance-sampled yield and the plain
    /// Monte-Carlo yield at the same deadline agree to within their
    /// combined confidence intervals (plus a floor for the coarse
    /// sample counts a property test can afford).
    #[test]
    fn importance_sampling_agrees_with_plain_mc(width in 2usize..5, seed in 0u64..512) {
        let tech = Technology::synthetic_28nm();
        let lib = CellLibrary::standard();
        let netlist = map_to_cells(&ripple_adder(width), &lib).expect("mapping");
        let session = session_for(Design::with_generated_parasitics(
            tech, lib, netlist, PARASITIC_SEED,
        ));
        let base = YieldConfig {
            ci_half_width: 1e-12,
            max_samples: 1024,
            chunk: 1024,
            seed,
            ..YieldConfig::default()
        };
        let plain = session.yield_analysis(&base).expect("plain");
        let is = session.yield_analysis(&YieldConfig {
            importance: Some(2.0),
            ..base
        }).expect("importance");
        let tol = 2.0 * (plain.estimate.half_width() + is.estimate.half_width()) + 0.01;
        prop_assert!(
            (plain.estimate.value - is.estimate.value).abs() <= tol,
            "plain {} vs IS {} beyond tolerance {tol}",
            plain.estimate.value,
            is.estimate.value
        );
    }
}

/// `u64` bits of the first eight plain-MC c432 trials (seed [`SEED`], one
/// thread). The per-trial delays do not depend on the timer, only on the
/// design, the RNG streams and the golden kernel, so any change to the
/// kernel's arithmetic or draw order shows here bit for bit. Re-pinned
/// when the ziggurat replaced the polar normal sampler: every deviate, and
/// the generated parasitics, moved.
const C432_FIRST_TRIALS: [u64; 8] = [
    0x3e22_d107_8543_7cdb,
    0x3e24_ec84_837a_3e5d,
    0x3e23_27b2_de21_4a4e,
    0x3e23_3bb9_c02e_2f71,
    0x3e21_d55e_e8ad_b823,
    0x3e25_5c6b_e6a8_6c6c,
    0x3e23_210e_661f_0637,
    0x3e22_11dd_b999_cfb8,
];

/// `u64` bits of the first eight golden path-MC samples on c432's nominal
/// critical path (seed [`SEED`]), pinned and re-pinned for the same reason.
const C432_FIRST_PATH_TRIALS: [u64; 8] = [
    0x3e22_cef4_a0db_94d4,
    0x3e22_4a53_b963_8858,
    0x3e20_330b_de5c_fc51,
    0x3e25_2aeb_b9fd_3c3d,
    0x3e20_e227_603b_4cb8,
    0x3e21_b5cc_8b18_b9e4,
    0x3e23_2d18_0344_e21e,
    0x3e23_68e7_215c_5ce0,
];

/// [`C432_FIRST_TRIALS`] as the kernel computed them on the Marsaglia
/// polar normal sampler, before the ziggurat. Kept so that the bisection
/// drift bound below still compares two kernels on the same stream.
const C432_FIRST_TRIALS_POLAR: [u64; 8] = [
    0x3e1f_f8c6_3487_23f2,
    0x3e21_80c7_ae7e_ea3e,
    0x3e23_17cd_f533_2787,
    0x3e23_f995_d410_14e9,
    0x3e22_7c2e_3a0b_eeb1,
    0x3e25_801b_3a88_c5a8,
    0x3e22_067f_11a1_1c1f,
    0x3e27_33a2_d038_d868,
];

/// [`C432_FIRST_PATH_TRIALS`] on the polar sampler, kept for the same
/// reason.
const C432_FIRST_PATH_TRIALS_POLAR: [u64; 8] = [
    0x3e25_5a07_c6fe_9888,
    0x3e25_7fac_c6c0_c10b,
    0x3e22_f214_147a_203b,
    0x3e23_0876_9fba_3ac9,
    0x3e22_06f4_d489_e1a6,
    0x3e1f_1432_da61_e022,
    0x3e20_c1cb_8d4b_adb0,
    0x3e21_16ba_615c_1398,
];

/// [`C432_FIRST_TRIALS_POLAR`] as the kernel computed them when
/// `two_pole_delay` bisected the fitted response for its 50 % crossing,
/// before the closed-form/Newton crossing replaced it. Kept to bound the
/// drift that replacement caused.
const C432_FIRST_TRIALS_BISECTION: [u64; 8] = [
    0x3e1f_f8c6_3487_23f2,
    0x3e21_80c7_ae7e_ea3e,
    0x3e23_17cd_f533_2787,
    0x3e23_f995_d410_14ea,
    0x3e22_7c2e_3a0b_eeb1,
    0x3e25_801b_3a88_c5a9,
    0x3e22_067f_11a1_1c1f,
    0x3e27_33a2_d038_d868,
];

/// [`C432_FIRST_PATH_TRIALS_POLAR`] under the bisection, kept for the same
/// reason.
const C432_FIRST_PATH_TRIALS_BISECTION: [u64; 8] = [
    0x3e25_5a07_c6fe_9888,
    0x3e25_7fac_c6c0_c10b,
    0x3e22_f214_147a_203b,
    0x3e23_0876_9fba_3ac8,
    0x3e22_06f4_d489_e1a6,
    0x3e1f_1432_da61_e022,
    0x3e20_c1cb_8d4b_adb0,
    0x3e21_16ba_615c_1398,
];

/// Asserts that every pinned sample is within `1e-12` relative of the
/// bisection's: the closed-form crossing may move only the last bits.
fn assert_within_drift_bound(pinned: &[u64; 8], bisection: &[u64; 8]) {
    for (k, (&new, &old)) in pinned.iter().zip(bisection).enumerate() {
        let (new, old) = (f64::from_bits(new), f64::from_bits(old));
        assert!(
            (new - old).abs() <= 1e-12 * old.abs(),
            "sample {k}: {new:e} drifted from the bisection's {old:e}"
        );
    }
}

#[test]
fn pinned_samples_stay_within_1e12_of_the_bisection_kernel() {
    assert_within_drift_bound(&C432_FIRST_TRIALS_POLAR, &C432_FIRST_TRIALS_BISECTION);
    assert_within_drift_bound(
        &C432_FIRST_PATH_TRIALS_POLAR,
        &C432_FIRST_PATH_TRIALS_BISECTION,
    );
}

#[test]
fn c432_plain_trials_are_bit_pinned() {
    let session = c432_session();
    let run = session
        .yield_run(&YieldConfig {
            ci_half_width: 1e-12,
            max_samples: C432_FIRST_TRIALS.len(),
            chunk: C432_FIRST_TRIALS.len(),
            threads: 1,
            seed: SEED,
            ..YieldConfig::default()
        })
        .expect("plain run");
    let bits: Vec<u64> = run.delays().iter().map(|d| d.to_bits()).collect();
    assert_eq!(bits, C432_FIRST_TRIALS, "yield_run trial delays moved");
}

#[test]
fn c432_path_mc_samples_are_bit_pinned() {
    let session = c432_session();
    let design = session.design();
    let path = find_critical_path(design).expect("c432 has a critical path");
    let golden = simulate_path_mc(
        design,
        &path,
        &PathMcConfig {
            samples: C432_FIRST_PATH_TRIALS.len(),
            seed: SEED,
            input_slew: YieldConfig::default().input_slew,
        },
    );
    let bits: Vec<u64> = golden.samples().iter().map(|d| d.to_bits()).collect();
    assert_eq!(
        bits, C432_FIRST_PATH_TRIALS,
        "simulate_path_mc samples moved"
    );
}
