//! Queueing-theory substrate for wormhole-routing performance models.
//!
//! This crate provides the analytical building blocks used by the
//! Greenberg–Guan (ICPP 1997) wormhole-routing model and its baselines:
//!
//! * [`mg1`] — the M/G/1 queue (Pollaczek–Khinchine mean waiting time,
//!   paper Eq. 4/6).
//! * [`mmm`] — the M/M/m queue solved exactly (Erlang B and Erlang C).
//! * [`mgm`] — M/G/m approximations: Hokstad's two-server closed form
//!   (paper Eq. 7/8) and the Lee–Longton style scaling of the exact M/M/m
//!   wait by `(1 + C_b²)/2`, which coincides with Hokstad at `m = 2` and
//!   realizes the paper's "extendable to more than two servers" remark.
//! * [`wormhole`] — the Draper–Ghosh service-variance surrogate
//!   `C_b² = (x̄ − s/f)²/x̄²` (paper Eq. 5) and the station wait the models
//!   evaluate, [`wormhole::station_wait`]: the M/G/m wait with Eq. 5
//!   substituted (paper Eq. 6 at one server, Eq. 8 at two).
//! * [`blocking`] — the blocking-probability correction of paper Eq. 10 in
//!   its per-channel form `P(i|j) = 1 − (λᵢ/λ_channel)·R(i|j)`, which adapts
//!   Poisson-arrival queueing results to wormhole routing.
//! * [`gg1`] — the Kingman / Allen–Cunneen G/G/1 correction for
//!   non-Poisson (bursty MMPP) arrivals, used by the workload extension.
//! * [`lanes`] — the multi-lane (virtual-channel) flit-multiplexing
//!   residence stretch used by the `wormsim-core` framework, which prices
//!   lane *availability* through M/G/(m·L) lane-slot waits
//!   ([`wormhole::station_wait`] at `m·L` servers); an exact no-op at
//!   `L = 1`.
//! * [`solver`] — damped and accelerated fixed-point iteration, used to
//!   resolve cyclic channel dependencies.
//!
//! # Conventions
//!
//! Time is measured in router cycles (the paper's "clock steps"); rates are
//! events per cycle. Unless stated otherwise, `lambda` is the **total**
//! Poisson arrival rate offered to a queueing station (for a multi-server
//! station this is the combined rate over all servers), `mean_service` is
//! the mean service time `x̄` of one server, and the offered load in erlangs
//! is `a = λ·x̄` with per-server utilization `ρ = a/m`.
//!
//! All checked entry points return [`QueueingError::Saturated`] when the
//! stability condition `ρ < 1` fails. Only [`gg1`] also offers an
//! `*_or_inf` variant, returning `f64::INFINITY` instead for the bursty
//! experiment's saturation scans.
//!
//! # Example
//!
//! ```
//! use wormsim_queueing::wormhole::station_wait;
//!
//! // A wormhole channel serving 16-flit worms with mean service time 20
//! // cycles, fed at 0.01 worms/cycle (Eq. 6).
//! let w1 = station_wait(1, 0.01, 20.0, 16.0).unwrap();
//!
//! // The same per-link traffic pooled onto a pair of redundant up-links
//! // (Eq. 8, at the combined rate).
//! let w2 = station_wait(2, 0.02, 20.0, 16.0).unwrap();
//! assert!(w2 < w1, "pooling two servers must not increase waiting");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod blocking;
pub mod error;
pub mod gg1;
pub mod lanes;
pub mod mg1;
pub mod mgm;
pub mod mmm;
pub mod solver;
pub mod wormhole;

pub use blocking::blocking_probability;
pub use error::QueueingError;
pub use solver::{FixedPointConfig, FixedPointOutcome};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, QueueingError>;

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn prelude_reexports_are_usable() {
        assert_eq!(blocking_probability(0.3, 0.3, 0.25), 0.75);
        assert_eq!(FixedPointConfig::default().damping, 0.5);
        let err = QueueingError::Saturated { utilization: 1.5 };
        assert!(err.to_string().contains("saturated"));
    }

    #[test]
    fn doc_example_holds() {
        let w1 = wormhole::station_wait(1, 0.01, 20.0, 16.0).unwrap();
        let w2 = wormhole::station_wait(2, 0.02, 20.0, 16.0).unwrap();
        assert!(w2 < w1);
        let scv = wormhole::wormhole_scv(20.0, 16.0);
        let hokstad = mgm::hokstad_mg2_waiting_time(0.02, 20.0, scv).unwrap();
        assert!((w2 - hokstad).abs() < 1e-12);
    }
}
