//! # nsigma-server
//!
//! A concurrent timing-query daemon over the N-sigma timer of
//! *“A Novel Delay Calibration Method Considering Interaction between
//! Cells and Wires”* (Jin et al., DATE 2023).
//!
//! The expensive artifact of the method — the calibrated timer, built by
//! Monte-Carlo characterization of the cell library plus the wire
//! variability fit — is constructed **once** at startup (or reloaded from
//! the Fig. 5 coefficients file) and then shared immutably by the
//! connection threads, each of which runs the requests it reads. Each
//! registered design becomes a [`nsigma_core::TimingSession`]
//! in the design store, so every endpoint runs the same compiled query
//! engine as the library and CLI, and query failures arrive as typed
//! [`nsigma_core::QueryError`]s mapped onto the protocol's error codes
//! (including `unknown_cell`) rather than panics. Clients register
//! designs and issue timing queries over a newline-delimited JSON protocol
//! on TCP:
//!
//! ```text
//! > {"cmd":"register_design","name":"c432","iscas":"c432","seed":7}
//! < {"ok":true,"design":"c432","gates":160,"worst_quantiles":[...]}
//! > {"cmd":"worst_paths","design":"c432","k":2}
//! < {"ok":true,"design":"c432","paths":[{"gates":[...],"stages":17,"quantiles":[...]}, ...]}
//! > {"cmd":"quantile","design":"c432","path":0,"sigma":4.5}
//! < {"ok":true,"design":"c432","path":0,"sigma":4.5,"delay":1.23e-9}
//! > {"cmd":"eco_resize","design":"c432","gate":"g17","strength":8}
//! < {"ok":true,"design":"c432","gate":"g17","strength":8,"recomputed_gates":9,"worst_quantiles":[...]}
//! > {"cmd":"yield_design","design":"c432","ci":0.005,"importance":true}
//! < {"ok":true,"design":"c432","yield":0.9984,"ci_lo":...,"ci_hi":...,"converged":true,"samples":2048,"ess":...,"curve":[...]}
//! ```
//!
//! Design notes:
//!
//! * **Bit-for-bit answers.** Numbers are serialized with Rust's shortest
//!   round-trip formatting, and the stage model is a pure function of
//!   `(cell, slew, load)` — so a remote answer equals an in-process
//!   [`nsigma_core::NsigmaTimer`] answer under `==`.
//! * **Backpressure, not buffering.** A request runs on its connection's
//!   thread once it holds a slot of one admission gate (`std` `Mutex` +
//!   `Condvar`): at most [`ServerConfig::threads`] run at once and at most
//!   [`ServerConfig::queue_capacity`] wait. The next one answers
//!   `overloaded` at once, and a wait longer than the deadline answers
//!   `deadline` instead of running. A connection beyond `threads +
//!   queue_capacity` gets one `overloaded` line and is closed. A request
//!   line longer than [`MAX_REQUEST_BYTES`] answers `bad_request` and
//!   closes its connection.
//! * **Graceful shutdown.** The listener stops accepting, and every
//!   connection answers the request it is running or waiting for before
//!   it closes and the process exits.
//! * **Monte-Carlo yield on demand.** `yield_design` runs the
//!   `nsigma-yield` engine — parallel graph-level sampling, optional
//!   mean-shifted importance sampling, confidence-bounded stopping —
//!   against a registered session, and the `stats` endpoint reports the
//!   cumulative trials drawn (`yield_samples_drawn`) next to the
//!   per-endpoint request counters.
//! * **Linted registration.** `register_design` runs the `nsigma-lint`
//!   static-analysis pass and rejects designs carrying error-severity
//!   findings with a typed `lint_failed` error naming the diagnostic
//!   codes; `"lint": false` (or [`ServerConfig::lint_on_register`]) opts
//!   out, and the `lint_design` endpoint re-runs the pass on demand.
//!
//! Module map: [`json`] (hand-rolled parser/writer), [`protocol`]
//! (request/response schema), [`store`] (design registry), [`metrics`]
//! (counters + latency histograms), [`server`] (engine, admission gate and
//! lifecycle), [`client`] (blocking test/CLI client).

#![warn(missing_docs)]

pub mod client;
pub mod json;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod store;

pub use client::Client;
pub use json::Value;
pub use protocol::{parse_request, Generator, ProtoError, Request};
pub use server::{
    yield_report_fields, Engine, Server, ServerConfig, ServerHandle, MAX_REQUEST_BYTES,
};
