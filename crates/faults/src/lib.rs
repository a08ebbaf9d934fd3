//! Deterministic fault injection and graceful degradation for wormsim.
//!
//! Real fabrics run degraded; the paper's model assumes a pristine one.
//! This crate closes that gap with three pieces:
//!
//! * [`FaultSpec`] / [`FaultPlan`] — validated, seed-derived link and
//!   switch knockouts over any [`ChannelNetwork`], plus explicit
//!   single-element knockouts for targeted experiments. The same spec
//!   and network shape always produce the same plan.
//! * [`FaultedBft`] — fault-aware butterfly fat-tree routing: adaptive
//!   up-bundles shrink to their surviving useful members, broken descents
//!   detour through alternate parents, and unroutability is decided
//!   once, at injection time, from precomputed exact reachability —
//!   never by a stranded worm.
//! * a [`FlowRouting`](wormsim_workload::FlowRouting) implementation so
//!   the analytical model re-prices the degraded fabric through the
//!   ordinary flow-vector pipeline, with
//!   [`FaultPlan::alive_servers`] feeding the surviving M/G/m server
//!   counts.
//!
//! The simulator consumes plans through its routers
//! (`wormsim-sim::router`: `FaultedBftRouter`, and the mesh and
//! hypercube routers, which own a plan that is empty unless built
//! `with_faults`); with an empty plan every consumer is bit-for-bit the
//! un-faulted system.
//!
//! ```
//! use wormsim_faults::{FaultPlan, FaultSpec, FaultedBft};
//! use wormsim_topology::bft::{BftParams, ButterflyFatTree};
//!
//! let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
//! let spec = FaultSpec::links(0.05, 7).unwrap();
//! let plan = FaultPlan::build(tree.network(), &spec);
//! assert_eq!(plan.dead_channel_count(), 4); // 5% of 96 fabric links
//! let degraded = FaultedBft::new(&tree, plan).unwrap();
//! assert!(degraded.fully_connected());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod bft;
pub mod error;
pub mod plan;

pub use bft::{DegradedChoice, FaultedBft};
pub use error::FaultError;
pub use plan::{FaultPlan, FaultSpec};

use wormsim_topology::graph::ChannelNetwork;

/// Convenience: realize a seeded link-knockout plan over a network.
///
/// # Errors
///
/// [`FaultError::InvalidFraction`] on a bad fraction.
pub fn link_faults(
    net: &ChannelNetwork,
    fraction: f64,
    seed: u64,
) -> Result<FaultPlan, FaultError> {
    Ok(FaultPlan::build(net, &FaultSpec::links(fraction, seed)?))
}

#[cfg(test)]
mod crate_tests {
    use super::*;
    use wormsim_topology::bft::{BftParams, ButterflyFatTree};

    #[test]
    fn doc_example_holds() {
        let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
        let plan = link_faults(tree.network(), 0.05, 7).unwrap();
        assert_eq!(plan.dead_channel_count(), 4);
        assert!(link_faults(tree.network(), 1.5, 7).is_err());
    }
}
