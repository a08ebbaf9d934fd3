//! The analytical wormhole-routing performance model of Greenberg & Guan
//! (ICPP 1997).
//!
//! Two implementations of the model live here and are cross-validated
//! against each other in the test suite:
//!
//! * [`framework`] — the **general model** of paper §2: any wormhole
//!   network described as symmetric channel classes with forwarding
//!   probabilities is solved by resolving channel service times backwards
//!   from ejection channels (Eq. 11), using M/G/m waiting times with the
//!   wormhole variance surrogate (Eq. 5) and the blocking-probability
//!   correction (Eq. 10).
//! * [`bft`] — the **closed-form butterfly fat-tree instantiation** of
//!   paper §3: per-level arrival rates (Eq. 14), the down-chain and
//!   up-chain service-time recurrences (Eqs. 16–24), average latency
//!   (Eq. 25) and saturation throughput (Eq. 26).
//!
//! [`hypercube`] instantiates the general framework on the binary
//! hypercube with e-cube routing (a Draper–Ghosh-style baseline, derived
//! by hand from per-dimension symmetry); [`flows`] builds the framework
//! spec *mechanically* for any network and **any workload**: a
//! `wormsim-workload` flow vector (any destination pattern pushed through
//! the router) becomes a per-station §2 model with one class per
//! arbitration station, preserving the M/G/p up-link bundles — this is
//! also how asymmetric networks like meshes are modeled; and
//! [`throughput`] hosts the saturation-point search shared by all models.
//!
//! Both implementations take each paper formula from one place: the
//! station wait (Eqs. 5, 6 and 8) is `wormsim_queueing::wormhole::station_wait`,
//! Eq. 10 is `wormsim_queueing::blocking::blocking_probability` and Eq. 25
//! is [`bft::LatencyBreakdown::new`]; the models only choose the server
//! count, rates and probabilities they feed in.
//!
//! Load sweeps re-solve the same network at many rates; the framework
//! supports **warm starting** them: [`framework::WarmStart`] threads each
//! point's converged service-time vector into the next solve (with
//! adaptive damping and verified Aitken Δ² acceleration on cyclic class
//! graphs such as [`framework::ring_spec`]), and
//! [`flows::FlowModelSweep`] applies the same idea to workload-driven
//! per-station models, rebuilding nothing but the class rates per point.
//!
//! # Ablations
//!
//! [`options::ModelOptions`] exposes the paper's two novel ingredients as
//! switches so their contribution can be measured:
//!
//! * `multi_server_up = false` degrades the up-link pair treatment from one
//!   M/G/2 station to independent M/G/1 queues (pre-paper state of the art).
//! * `blocking_correction = false` drops the Eq. 10 correction
//!   (`P(i|j) = 1`), i.e. applies raw Poisson-arrival waiting everywhere.
//!
//! # Example
//!
//! ```
//! use wormsim_core::bft::BftModel;
//! use wormsim_topology::bft::BftParams;
//!
//! let model = BftModel::new(BftParams::paper(1024).unwrap(), 32.0);
//! let lat = model.latency_at_flit_load(0.02).unwrap();
//! // Zero-load latency is s + D̄ − 1 ≈ 40.3 cycles; at 0.02 flits/cycle/PE
//! // the network is moderately loaded and latency sits above that.
//! assert!(lat.total > 40.0 && lat.total < 120.0);
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
pub mod flows;
pub mod framework;
pub mod hypercube;
pub mod options;
pub mod throughput;

pub use error::ModelError;
pub use options::ModelOptions;

/// Result alias for model computations.
pub type Result<T> = std::result::Result<T, ModelError>;

#[cfg(test)]
mod crate_tests {
    #[test]
    fn doc_example_holds() {
        use crate::bft::BftModel;
        use wormsim_topology::bft::BftParams;
        let model = BftModel::new(BftParams::paper(1024).unwrap(), 32.0);
        let lat = model.latency_at_flit_load(0.02).unwrap();
        assert!(lat.total > 40.0 && lat.total < 120.0);
    }
}
