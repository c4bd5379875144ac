//! The sampling core: parallel, chunked, confidence-bounded graph-level
//! Monte Carlo over a [`TimingSession`]'s compiled design.
//!
//! A run builds one [`CircuitPlan`] — the golden whole-circuit trial
//! kernel of `nsigma_mc::trial` — over the compiled CSR adjacency:
//! per-gate cells and mismatch sigmas, and every gate's output net
//! flattened once into parent-index/R/C arrays. A trial
//! draws the (possibly mean-shifted) die corner, then one pull-down and
//! one pull-up threshold deviate per gate, then walks the gates in
//! topological order; each wired net is sampled by the in-place two-pole
//! kernel with the driver's own threshold sample folded in.
//!
//! Each chunk is one [`nsigma_stats::par::fill`] over its trials, with the
//! run's persistent [`TrialScratch`]es as the worker states, so a trial
//! makes no heap allocation. Trial `t` always draws from counter-based
//! stream `t` ([`CounterRng`]), so the result vector depends on the trial
//! index only: bit-identical at any thread count or chunk schedule.

use crate::config::YieldConfig;
use crate::importance::{likelihood_ratio, WeightTally};
use crate::report::{CurvePoint, YieldEstimate, YieldReport};
use crate::stopping::Z95;
use nsigma_core::{NsigmaTimer, QueryError, TimingSession, YieldCurve};
use nsigma_mc::{CircuitPlan, TrialScratch};
use nsigma_stats::moments::Moments;
use nsigma_stats::par;
use nsigma_stats::quantile::{QuantileSet, SigmaLevel};
use nsigma_stats::rng::CounterRng;
use rand::Rng;
use std::borrow::Borrow;
use std::time::Instant;

/// A finished run: the summary [`YieldReport`] plus the raw per-trial
/// samples, for callers (the experiment binaries) that evaluate the
/// empirical yield at their own thresholds.
#[derive(Debug, Clone)]
pub struct YieldRun {
    /// The summary report.
    pub report: YieldReport,
    delays: Vec<f64>,
    weights: Vec<f64>,
}

impl YieldRun {
    /// Per-trial worst-PO delays (s), in trial order.
    pub fn delays(&self) -> &[f64] {
        &self.delays
    }

    /// The empirical yield estimate at an arbitrary deadline, from the
    /// stored samples.
    pub fn yield_at(&self, period: f64) -> YieldEstimate {
        let weighted = self.report.importance_shift > 0.0;
        threshold_estimate(&self.delays, &self.weights, period, weighted)
    }
}

/// One trial: draws the (possibly shifted) die corner, runs the shared
/// golden circuit walk under it, and returns `(worst PO delay, importance
/// weight)`.
fn sample_once<R: Rng + ?Sized>(
    plan: &CircuitPlan<'_>,
    shift: f64,
    scratch: &mut TrialScratch,
    rng: &mut R,
) -> (f64, f64) {
    let (global, z) = plan.variation().sample_global_shifted(rng, shift);
    (
        plan.trial(&global, scratch, rng),
        likelihood_ratio(z, shift),
    )
}

/// Runs the yield engine against a session's design. The analytic target
/// and the yield-curve periods are the session's whole-design answer
/// ([`TimingSession::analyze_design`]).
///
/// See the crate docs for the sampling, importance and stopping design;
/// [`crate::YieldAnalysis`] is the ergonomic entry point.
///
/// # Errors
///
/// * [`QueryError::InvalidConfig`] — out-of-range configuration.
/// * [`QueryError::EmptyDesign`] — gateless design.
/// * [`QueryError::Internal`] — a sampling worker panicked (a bug, not a
///   caller mistake).
pub fn run_yield<B: Borrow<NsigmaTimer>>(
    session: &TimingSession<B>,
    cfg: &YieldConfig,
) -> Result<YieldRun, QueryError> {
    cfg.validate()?;
    let design = session.design();
    if design.netlist.num_gates() == 0 {
        return Err(QueryError::EmptyDesign);
    }

    let analytic = session.analyze_design();
    let target = cfg.target_period.unwrap_or(analytic[SigmaLevel::PlusThree]);
    if !(target.is_finite() && target > 0.0) {
        return Err(QueryError::InvalidConfig {
            reason: format!("derived target period {target} is not a positive time"),
        });
    }

    let threads = if cfg.threads == 0 {
        par::host_threads()
    } else {
        cfg.threads
    };

    let shift = cfg.shift();
    let plan = CircuitPlan::new(design, session.compiled().csr(), cfg.input_slew);
    let weighted = shift > 0.0;
    let mut scratches: Vec<TrialScratch> = (0..threads).map(|_| plan.scratch()).collect();

    let start = Instant::now();
    let mut delays: Vec<f64> = Vec::with_capacity(cfg.chunk);
    let mut weights: Vec<f64> = Vec::with_capacity(cfg.chunk);
    let mut tally = WeightTally::default();
    let mut buf: Vec<(f64, f64)> = Vec::new();
    let mut converged = false;

    while delays.len() < cfg.max_samples {
        let this_chunk = cfg.chunk.min(cfg.max_samples - delays.len());
        let base = delays.len();
        buf.clear();
        buf.resize(this_chunk, (0.0, 0.0));

        par::fill(&mut buf, 1, &mut scratches, |i, scratch, out| {
            let mut rng = CounterRng::new(cfg.seed, (base + i) as u64);
            out[0] = sample_once(&plan, shift, scratch, &mut rng);
        })
        .map_err(|_| QueryError::Internal {
            reason: "a yield sampling worker panicked".into(),
        })?;

        for &(d, w) in &buf {
            delays.push(d);
            weights.push(w);
            tally.push(w, d > target);
        }

        let interval = tally.yield_interval(weighted, Z95);
        if interval.half_width() <= cfg.ci_half_width {
            converged = true;
            break;
        }
    }
    let elapsed = start.elapsed();

    let interval = tally.yield_interval(weighted, Z95);
    let estimate = YieldEstimate {
        value: interval.estimate,
        ci_lo: interval.lo,
        ci_hi: interval.hi,
    };
    let mc_quantiles = weighted_quantiles(&delays, &weights);
    let curve = SigmaLevel::ALL
        .iter()
        .map(|&lvl| CurvePoint {
            period: analytic[lvl],
            analytic_yield: lvl.probability(),
            mc: threshold_estimate(&delays, &weights, analytic[lvl], weighted),
        })
        .collect();

    let report = YieldReport {
        target_period: target,
        analytic_quantiles: analytic,
        analytic_yield: analytic_yield_at(&analytic, target),
        estimate,
        converged,
        samples: delays.len(),
        ess: tally.ess(),
        importance_shift: shift,
        mc_quantiles,
        moments: weighted_moments(&delays, &weights),
        curve,
        threads,
        elapsed,
    };
    Ok(YieldRun {
        report,
        delays,
        weights,
    })
}

/// The analytic model's yield at deadline `t`: the z-space-interpolated
/// [`YieldCurve`] when the quantiles are strictly increasing, a step
/// function over the levels otherwise (a degenerate ladder — e.g. a
/// near-deterministic toy design — has no continuous curve).
fn analytic_yield_at(q: &QuantileSet, t: f64) -> f64 {
    if q.as_array().windows(2).all(|w| w[0] < w[1]) {
        return YieldCurve::new(q).yield_at(t);
    }
    SigmaLevel::ALL
        .iter()
        .rev()
        .find(|&&lvl| q[lvl] <= t)
        .map(|lvl| lvl.probability())
        .unwrap_or(0.0)
}

/// Weighted empirical yield at one threshold, with its Wilson (unit
/// weights) or CLT (importance weights) interval.
fn threshold_estimate(
    delays: &[f64],
    weights: &[f64],
    period: f64,
    weighted: bool,
) -> YieldEstimate {
    let mut tally = WeightTally::default();
    for (&d, &w) in delays.iter().zip(weights) {
        tally.push(w, d > period);
    }
    let iv = tally.yield_interval(weighted, Z95);
    YieldEstimate {
        value: iv.estimate,
        ci_lo: iv.lo,
        ci_hi: iv.hi,
    }
}

/// Weight-corrected sigma-level quantiles: sort by delay, then take the
/// smallest delay whose normalized cumulative weight reaches each level's
/// probability (the self-normalized IS estimate of the quantile).
fn weighted_quantiles(delays: &[f64], weights: &[f64]) -> QuantileSet {
    let mut idx: Vec<usize> = (0..delays.len()).collect();
    idx.sort_by(|&a, &b| delays[a].total_cmp(&delays[b]));
    let total: f64 = weights.iter().sum();
    QuantileSet::from_fn(|lvl| {
        let want = lvl.probability() * total;
        let mut cum = 0.0;
        for &i in &idx {
            cum += weights[i];
            if cum >= want {
                return delays[i];
            }
        }
        idx.last().map(|&i| delays[i]).unwrap_or(0.0)
    })
}

/// Weight-corrected first four moments (self-normalized IS estimates).
fn weighted_moments(delays: &[f64], weights: &[f64]) -> Moments {
    let total: f64 = weights.iter().sum();
    let mean = delays.iter().zip(weights).map(|(d, w)| d * w).sum::<f64>() / total;
    let (mut m2, mut m3, mut m4) = (0.0, 0.0, 0.0);
    for (&d, &w) in delays.iter().zip(weights) {
        let e = d - mean;
        m2 += w * e * e;
        m3 += w * e * e * e;
        m4 += w * e * e * e * e;
    }
    m2 /= total;
    m3 /= total;
    m4 /= total;
    let std = m2.sqrt();
    Moments {
        mean,
        std,
        skewness: if m2 > 0.0 { m3 / (m2 * std) } else { 0.0 },
        kurtosis: if m2 > 0.0 { m4 / (m2 * m2) } else { 0.0 },
        n: delays.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::YieldAnalysis;
    use nsigma_cells::CellLibrary;
    use nsigma_core::{MergeRule, TimerConfig};
    use nsigma_netlist::generators::arith::ripple_adder;
    use nsigma_netlist::map_to_cells;
    use nsigma_process::Technology;
    use std::sync::OnceLock;

    fn shared() -> &'static (NsigmaTimer, Technology, CellLibrary) {
        static CELL: OnceLock<(NsigmaTimer, Technology, CellLibrary)> = OnceLock::new();
        CELL.get_or_init(|| {
            let tech = Technology::synthetic_28nm();
            let lib = CellLibrary::standard();
            let mut cfg = TimerConfig::standard(13);
            cfg.char_samples = 400;
            cfg.wire.nets = 1;
            cfg.wire.samples = 200;
            let timer = NsigmaTimer::build(&tech, &lib, &cfg).expect("timer builds");
            (timer, tech, lib)
        })
    }

    fn adder_session() -> TimingSession<&'static NsigmaTimer> {
        let (timer, tech, lib) = shared();
        let nl = map_to_cells(&ripple_adder(6), lib).expect("mapping succeeds");
        let design = nsigma_mc::Design::with_generated_parasitics(tech.clone(), lib.clone(), nl, 5);
        TimingSession::new(timer, design, MergeRule::Pessimistic).expect("session builds")
    }

    #[test]
    fn results_are_independent_of_thread_count_and_chunking() {
        let session = adder_session();
        let base = YieldConfig {
            max_samples: 600,
            chunk: 600,
            ci_half_width: 1e-9, // force the full cap
            threads: 1,
            ..YieldConfig::default()
        };
        let a = session.yield_run(&base).expect("run a");
        let b = session
            .yield_run(&YieldConfig {
                threads: 4,
                chunk: 128,
                ..base.clone()
            })
            .expect("run b");
        assert_eq!(a.delays(), b.delays());
        assert_eq!(a.weights, b.weights);
        assert_eq!(
            a.report.mc_quantiles.as_array(),
            b.report.mc_quantiles.as_array()
        );
    }

    #[test]
    fn plain_mc_converges_and_brackets_the_analytic_yield() {
        let session = adder_session();
        let report = session
            .yield_analysis(&YieldConfig {
                ci_half_width: 0.02,
                max_samples: 20_000,
                ..YieldConfig::default()
            })
            .expect("plain run");
        assert!(report.converged, "ran {} samples", report.samples);
        assert!(report.estimate.half_width() <= 0.02);
        assert!((report.ess - report.samples as f64).abs() < 1e-6);
        assert_eq!(report.importance_shift, 0.0);
        assert_eq!(report.curve.len(), 7);
        // At the +3σ target the MC yield should be high (the analytic
        // model and the golden sampler agree to within a few percent).
        assert!(
            report.estimate.value > 0.95,
            "yield {}",
            report.estimate.value
        );
        assert!(report.moments.mean > 0.0 && report.moments.std > 0.0);
    }

    #[test]
    fn importance_sampling_agrees_with_plain_mc_and_boosts_the_tail() {
        let session = adder_session();
        let plain = session
            .yield_run(&YieldConfig {
                ci_half_width: 1e-9,
                max_samples: 4096,
                chunk: 4096,
                ..YieldConfig::default()
            })
            .expect("plain");
        let is = session
            .yield_run(&YieldConfig {
                ci_half_width: 1e-9,
                max_samples: 4096,
                chunk: 4096,
                importance: Some(crate::DEFAULT_IS_SHIFT),
                ..YieldConfig::default()
            })
            .expect("is");
        // Unbiasedness: both estimate the same yield within their CIs.
        let tol = plain.report.estimate.half_width() + is.report.estimate.half_width() + 0.01;
        assert!(
            (plain.report.estimate.value - is.report.estimate.value).abs() <= tol,
            "plain {} vs IS {}",
            plain.report.estimate.value,
            is.report.estimate.value
        );
        // The shifted proposal actually visits the failure region.
        let target = is.report.target_period;
        let is_fails = is.delays().iter().filter(|&&d| d > target).count();
        let plain_fails = plain.delays().iter().filter(|&&d| d > target).count();
        assert!(
            is_fails > 10 * plain_fails.max(1),
            "IS fails {is_fails} vs plain {plain_fails}"
        );
        // Weights are genuine: ESS collapses far below n at shift 3
        // (Kish ESS ~ n·e^{-shift²} for lognormal weights).
        assert!(is.report.ess < 0.1 * is.report.samples as f64);
        assert!(is.report.ess > 0.0);
    }

    #[test]
    fn importance_converges_much_faster_on_the_tail() {
        let session = adder_session();
        let cfg = YieldConfig {
            ci_half_width: 0.005,
            chunk: 64,
            max_samples: 32_768,
            importance: Some(crate::DEFAULT_IS_SHIFT),
            ..YieldConfig::default()
        };
        let is = session.yield_analysis(&cfg).expect("is run");
        let plain = session
            .yield_analysis(&YieldConfig {
                importance: None,
                ..cfg
            })
            .expect("plain run");
        assert!(is.converged);
        assert!(
            is.samples * 5 <= plain.samples,
            "IS used {} samples, plain used {}",
            is.samples,
            plain.samples
        );
    }

    #[test]
    fn empty_weights_and_bad_configs_are_typed_errors() {
        let session = adder_session();
        let err = session
            .yield_analysis(&YieldConfig {
                chunk: 0,
                ..YieldConfig::default()
            })
            .expect_err("invalid config");
        assert_eq!(err.code(), "bad_request");
        let err = session
            .yield_analysis(&YieldConfig {
                target_period: Some(-1.0),
                ..YieldConfig::default()
            })
            .expect_err("negative target");
        assert_eq!(err.code(), "bad_request");
    }

    #[test]
    fn analytic_yield_handles_degenerate_quantiles() {
        let q = QuantileSet::from_values([1.0; 7]);
        assert_eq!(analytic_yield_at(&q, 0.5), 0.0);
        let p = analytic_yield_at(&q, 2.0);
        assert!((p - SigmaLevel::PlusThree.probability()).abs() < 1e-12);
        let rising = QuantileSet::from_fn(|l| 10.0 + l.n() as f64);
        assert!((analytic_yield_at(&rising, 10.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn weighted_quantiles_match_plain_quantiles_for_unit_weights() {
        let delays: Vec<f64> = (0..1000).map(|i| (i as f64) * 1e-12).collect();
        let weights = vec![1.0; 1000];
        let wq = weighted_quantiles(&delays, &weights);
        let pq = QuantileSet::from_samples(&delays);
        for lvl in SigmaLevel::ALL {
            assert!(
                (wq[lvl] - pq[lvl]).abs() < 2e-12,
                "{lvl:?}: {} vs {}",
                wq[lvl],
                pq[lvl]
            );
        }
    }
}
