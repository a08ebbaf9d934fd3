//! Interconnection-network topologies for wormhole-routing studies.
//!
//! The centerpiece is the **butterfly fat-tree** of Greenberg & Guan
//! (ICPP 1997, §3.1), generalized from the paper's `(4, 2)` instance — four
//! children and two parents per switch — to any `(c, p)` with `c ≥ 2`,
//! `p ≥ 1`. The crate also provides the binary **hypercube** and the
//! **k-ary n-mesh** used by the baseline models the paper compares against,
//! all expressed in one common [`graph::ChannelNetwork`] representation
//! consumed by both the analytical model (`wormsim-core`) and the
//! flit-level simulator (`wormsim-sim`).
//!
//! # Representation
//!
//! * A **node** is a processing element (PE) or a routing element (switch).
//! * A **channel** is a unidirectional link between two nodes, carrying one
//!   flit per cycle.
//! * A **station** is the unit of output arbitration: a group of `m ≥ 1`
//!   channels leaving the same switch that are interchangeable for routing
//!   purposes. In the butterfly fat-tree the `p` up-links of a switch form
//!   one `p`-server station (the paper's "multiple-server channel"); every
//!   other channel is its own single-server station.
//! * A **class** labels symmetric channels (e.g. all up-links from level
//!   `l` to `l+1`), used to aggregate statistics and to state the model's
//!   per-level equations.
//!
//! # Example
//!
//! ```
//! use wormsim_topology::bft::{BftParams, ButterflyFatTree};
//!
//! // The paper's 64-processor network of Figure 2.
//! let params = BftParams::paper(64).unwrap();
//! let tree = ButterflyFatTree::new(params);
//! assert_eq!(tree.num_processors(), 64);
//! assert_eq!(tree.num_levels(), 3);
//! assert_eq!(tree.switches_at_level(1), 16);
//! assert_eq!(tree.switches_at_level(3), 4);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod bft;
pub mod distance;
pub mod graph;
pub mod hypercube;
pub mod ids;
pub mod mesh;
pub mod render;

pub use graph::{ChannelClass, ChannelNetwork};
pub use hypercube::HypercubeError;
pub use ids::{ChannelId, NodeId, StationId};
pub use mesh::MeshError;

#[cfg(test)]
mod crate_tests {
    #[test]
    fn doc_example_holds() {
        use crate::bft::{BftParams, ButterflyFatTree};
        let params = BftParams::paper(64).unwrap();
        let tree = ButterflyFatTree::new(params);
        assert_eq!(tree.num_processors(), 64);
        assert_eq!(tree.num_levels(), 3);
        assert_eq!(tree.switches_at_level(1), 16);
        assert_eq!(tree.switches_at_level(3), 4);
    }
}
