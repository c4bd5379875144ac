//! # nsigma-interconnect
//!
//! RC-tree interconnect substrate for the `nsigma` workspace (reproduction
//! of Jin et al., DATE 2023).
//!
//! * [`rctree`] — the parasitic tree as flat parent/R/C arrays (driver
//!   root, sink pins);
//! * [`elmore`] — impulse-response moments: Elmore m₁ (the paper's eq. 4)
//!   and m₂, one pass over those arrays;
//! * [`metrics`] — D2M and the two-pole 50 % metric used by the golden
//!   simulator at circuit scale;
//! * [`transient`] — backward-Euler transient solver (the wire "SPICE" of
//!   Figs. 7/8/10) over the same arrays, O(n) per step via tree
//!   elimination;
//! * [`spef`] — SPEF-lite parasitic exchange text format;
//! * [`generator`] — placement-statistics net generation (the IC Compiler
//!   substitute).
//!
//! # Examples
//!
//! ```
//! use nsigma_interconnect::elmore::elmore_delay;
//! use nsigma_interconnect::rctree::RcTree;
//!
//! let mut t = RcTree::new(0.1e-15);
//! let sink = t.add_node(RcTree::root(), 250.0, 2.0e-15);
//! t.mark_sink(sink);
//! assert!(elmore_delay(&t, sink) > 0.0);
//! ```

#![warn(missing_docs)]

pub mod elmore;
pub mod generator;
pub mod metrics;
pub mod rctree;
pub mod spef;
pub mod transient;

pub use elmore::{elmore_all, elmore_delay, moments_all};
pub use generator::{generate_net, random_net, NetGenConfig};
pub use metrics::{d2m_delay, two_pole_delay};
pub use rctree::{NodeId, RcTree};
pub use spef::SpefNet;
pub use transient::{simulate_ramp, TransientConfig, TransientResult};
