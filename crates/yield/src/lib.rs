//! # nsigma-yield
//!
//! A parallel, importance-sampled timing-yield engine over the compiled
//! timing graph of *“A Novel Delay Calibration Method Considering
//! Interaction between Cells and Wires”* (Jin et al., DATE 2023).
//!
//! The analytic timer answers "what is the ±3σ delay?" per eq. 10; this
//! crate answers the complementary sign-off question — "what fraction of
//! dies meets a clock period T?" — by graph-level Monte Carlo through the
//! golden trial kernel of [`nsigma_mc::trial`], and scores
//! the analytic quantiles against the statistical oracle with confidence
//! intervals.
//!
//! Three mechanisms make that affordable:
//!
//! * **Parallel sampling over the compiled graph.** Each chunk of trials
//!   is one [`nsigma_stats::par::fill`], the workspace's one fan-out. Each
//!   trial walks [`nsigma_core::CompiledDesign`]'s CSR adjacency with a
//!   per-worker [`nsigma_mc::TrialScratch`], reused across trials and
//!   chunks, so trials do not allocate. Trial `t` draws from
//!   counter-based stream `t` of [`nsigma_stats::rng::CounterRng`], so
//!   results depend on the trial index only: bit-identical at any thread
//!   count or chunk schedule.
//! * **Mean-shifted importance sampling** (à la ISLE, Bayrakci et al.):
//!   the die-wide threshold deviate is drawn from `N(shift, 1)` and each
//!   trial is reweighted by the Gaussian likelihood ratio
//!   `exp(-shift·z + shift²/2)`, concentrating samples on the slow tail
//!   that plain MC almost never visits. Effective-sample-size
//!   diagnostics come with the estimate.
//! * **Confidence-bounded stopping.** Sampling proceeds in chunks until
//!   the Wilson (plain) or CLT (weighted) 95 % interval on the target
//!   yield is tighter than the requested half-width, under a hard sample
//!   cap.
//!
//! The entry point is the [`YieldAnalysis`] extension trait, which gives
//! every [`nsigma_core::TimingSession`] a
//! `session.yield_analysis(&YieldConfig)` query returning a typed
//! [`YieldReport`] (no panics — failures are
//! [`nsigma_core::QueryError`]s). The server's `yield_design` endpoint,
//! the CLI `yield` subcommand and the `yield_load`/`yield_curve` benches
//! all sit on this crate.
//!
//! Module map: [`config`] (run parameters + validation), [`engine`]
//! (sampling core), [`importance`] (likelihood-ratio tally + ESS),
//! [`stopping`] (Wilson/CLT intervals), [`report`] (results + the
//! yield-vs-period curve).

#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod importance;
pub mod report;
pub mod stopping;

pub use config::{YieldConfig, DEFAULT_IS_SHIFT};
pub use engine::{run_yield, YieldRun};
pub use importance::{likelihood_ratio, WeightTally};
pub use report::{CurvePoint, YieldEstimate, YieldReport};
pub use stopping::{clt_fail_interval, wilson_interval, Interval, Z95};

use nsigma_core::sta::NsigmaTimer;
use nsigma_core::{QueryError, TimingSession};
use std::borrow::Borrow;

/// Extension trait wiring the yield engine into
/// [`nsigma_core::TimingSession`].
///
/// Lives here (not in `nsigma-core`) because the engine depends on the
/// core crate; importing the trait gives sessions the natural
/// `session.yield_analysis(&cfg)` call syntax.
pub trait YieldAnalysis {
    /// Runs the Monte-Carlo yield engine and returns the summary report.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidConfig`] for out-of-range configuration and
    /// [`QueryError::EmptyDesign`] for a gateless design.
    fn yield_analysis(&self, cfg: &YieldConfig) -> Result<YieldReport, QueryError>;

    /// Like [`YieldAnalysis::yield_analysis`], but keeps the per-trial
    /// delay/weight samples for callers that evaluate the empirical yield
    /// at their own thresholds (the experiment binaries).
    fn yield_run(&self, cfg: &YieldConfig) -> Result<YieldRun, QueryError>;
}

impl<B: Borrow<NsigmaTimer>> YieldAnalysis for TimingSession<B> {
    fn yield_analysis(&self, cfg: &YieldConfig) -> Result<YieldReport, QueryError> {
        self.yield_run(cfg).map(|run| run.report)
    }

    fn yield_run(&self, cfg: &YieldConfig) -> Result<YieldRun, QueryError> {
        run_yield(self, cfg)
    }
}
