//! Traffic workloads for the wormsim reproduction.
//!
//! Greenberg & Guan's model derives every per-channel rate from one
//! assumption: Poisson sources with uniformly random destinations. This
//! crate makes the traffic pattern a first-class, *shared* input to both
//! the analytical model and the simulator:
//!
//! * [`pattern::DestinationPattern`] — spatial distributions (uniform,
//!   bit-complement, half-shift, parameterized hot-spot, transpose,
//!   tornado, nearest-neighbor) with exact probabilities for the model and
//!   sampling for the simulator;
//! * [`arrival::ArrivalProcess`] — Poisson or a two-state MMPP bursty
//!   source, parameterized by peak-to-mean ratio, duty cycle and burst
//!   length;
//! * [`flow::FlowVector`] — the routing-induced per-channel flow vector
//!   `λ_c`, computed by pushing the source→destination flow matrix through
//!   [`flow::FlowRouting::route`], the one routing decision that the
//!   simulator's engine also makes at every hop, over any
//!   `wormsim-topology` channel graph.
//!
//! The simulator's `TrafficConfig` carries one pattern and one arrival
//! process, and the model's flow vector takes the same pattern.
//!
//! # Example
//!
//! ```
//! use wormsim_workload::flow::FlowVector;
//! use wormsim_workload::pattern::DestinationPattern;
//! use wormsim_topology::bft::{BftParams, ButterflyFatTree};
//!
//! let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
//! let flows = FlowVector::build(&tree, &DestinationPattern::hot_spot()).unwrap();
//! // The hot PE's ejection channel carries far more than a cold one's.
//! let hot = flows.unit_flow(tree.network().processors()[0].eject);
//! let cold = flows.unit_flow(tree.network().processors()[42].eject);
//! assert!(hot > 5.0 * cold);
//! // Flow conservation: Σ λ_c = N · D̄ at unit per-PE rate.
//! let n_dbar = flows.num_pes() as f64 * flows.avg_distance();
//! assert!((flows.sum_unit_flows() - n_dbar).abs() < 1e-9 * n_dbar);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod arrival;
pub mod error;
pub mod flow;
pub mod pattern;

pub use arrival::{ArrivalProcess, MmppProfile};
pub use error::WorkloadError;
pub use flow::{member_allowed, FlowRouting, FlowVector, Route};
pub use pattern::DestinationPattern;

/// Result alias for workload computations.
pub type Result<T> = std::result::Result<T, WorkloadError>;
