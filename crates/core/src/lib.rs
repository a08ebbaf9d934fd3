//! The analytical wormhole-routing performance model of Greenberg & Guan
//! (ICPP 1997).
//!
//! * [`framework`] — the **general model** of paper §2: any wormhole
//!   network described as symmetric channel classes with forwarding
//!   probabilities is solved by resolving channel service times backwards
//!   from ejection channels (Eq. 11), using M/G/m waiting times with the
//!   wormhole variance surrogate (Eq. 5) and the blocking-probability
//!   correction (Eq. 10).
//! * [`bft`] — the **butterfly fat-tree instantiation** of paper §3: the
//!   per-level class spec ([`framework::bft_spec`]) with the arrival
//!   rates of Eq. 14, whose solve is the down-chain and up-chain
//!   service-time recurrences (Eqs. 16–24), plus average latency (Eq. 25)
//!   and saturation throughput (Eq. 26).
//!
//! [`hypercube`] instantiates the general framework on the binary
//! hypercube with e-cube routing (a Draper–Ghosh-style baseline, derived
//! by hand from per-dimension symmetry); [`flows`] builds the framework
//! spec *mechanically* for any network and **any workload**: a
//! `wormsim-workload` flow vector (any destination pattern pushed through
//! the router) becomes a per-station §2 model,
//! [`flows::FlowModelSweep`], with one class per arbitration station,
//! preserving the M/G/p up-link bundles — this is also how asymmetric
//! networks like meshes are modeled; and
//! [`throughput`] hosts the Eq. 26 saturation-point search (doubling, then
//! halving the bracket) shared by the fat-tree and cube models.
//!
//! Every model is solved by the one §2 solver, which takes each paper
//! formula from one place: the station wait (Eqs. 5, 6 and 8) is
//! `wormsim_queueing::wormhole::station_wait`, Eq. 10 is
//! `wormsim_queueing::blocking::blocking_probability` and Eq. 25 is
//! [`bft::LatencyBreakdown::new`]; the models only choose the server
//! count, rates and probabilities they feed in.
//!
//! Every spec is built **per unit source rate** and every solve takes the
//! source rate `λ₀`: a class runs at its unit rate times `λ₀` (the routing
//! factor of Eqs. 14–15 does not depend on the load), so one spec serves a
//! whole load sweep, knee bracket or Eq. 26 search and nothing is rebuilt
//! per point. The framework also supports **warm starting** sweeps:
//! [`framework::WarmStart`] threads each point's converged service-time
//! vector into the next solve (with adaptive damping and verified Aitken
//! Δ² acceleration on cyclic class graphs such as
//! [`framework::ring_spec`]).
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
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

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

/// The escalation ladder of `NetworkSpec::solve_outcome`, one test per path
/// it can take: cold saturation-aware solves of the cyclic ring-8 spec under
/// the paper's options.
#[cfg(test)]
mod tests {
    use crate::framework::{ring_spec, Solution};
    use crate::ModelOptions;
    use wormsim_guard::SolveOutcome;
    use wormsim_obs::model::ModelTelemetry;

    /// What a rung that ran out of iterations reports.
    const BUDGET: &str = "fixed point did not converge after 20000 iterations";

    /// Solves `ring_spec(8, 16)` at `λ₀` cold with telemetry and checks the
    /// outcome, the rungs tried (✓ when one converged), what the failed ones
    /// reported and the length of the final attempt's solver trace.
    fn check_path(
        lambda0: f64,
        outcome: &str,
        climb: &str,
        failure: &str,
        trace_len: usize,
    ) -> SolveOutcome<Solution> {
        let mut tel = ModelTelemetry::default();
        let out = ring_spec(8, 16.0)
            .unwrap()
            .solve_outcome(lambda0, &ModelOptions::paper(), None, Some(&mut tel))
            .unwrap();
        assert_eq!(out.label(), outcome);
        assert_eq!(tel.outcome, Some(outcome));
        let tried: Vec<String> = tel
            .ladder
            .iter()
            .map(|a| format!("{} {}", a.rung, if a.succeeded { "✓" } else { "✗" }))
            .collect();
        assert_eq!(tried.join(" "), climb);
        for a in tel.ladder.iter().filter(|a| !a.succeeded) {
            assert!(a.detail.starts_with(failure), "{a:?}");
        }
        assert_eq!(tel.solver.len(), trace_len);
        out
    }

    #[test]
    fn ladder_returns_first_success_without_extra_attempts() {
        check_path(0.002, "converged", "plain ✓", "", 227);
    }

    #[test]
    fn ladder_escalates_past_transient_failures() {
        // Plain and damped exhaust their budget; the accelerated restart
        // rescues the point.
        let climb = "plain ✗ damped ✗ accel_restart ✓";
        check_path(0.004_636_2, "converged", climb, BUDGET, 2298);
    }

    #[test]
    fn ladder_aborts_immediately_on_saturation() {
        // A `ρ ≥ 1` error is not retried.
        let failure = "channel class ring1: queue saturated";
        check_path(0.5, "saturated", "plain ✗", failure, 0);
    }

    #[test]
    fn ladder_reports_exhaustion_with_the_strongest_rung_error() {
        // Every rung exhausts its budget just below the bracketed knee
        // 0.0046362413096…; the outcome and the trace are the last rung's.
        let climb = "plain ✗ damped ✗ accel_restart ✗";
        let out = check_path(0.004_636_241_3, "no_convergence", climb, BUDGET, 20010);
        match out {
            SolveOutcome::NoConvergence { iterations, .. } => assert_eq!(iterations, 20000),
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }
}
