//! The wormhole blocking-probability correction (paper Eqs. 9–10).
//!
//! Classical M/G/m results assume every arrival can be blocked by every
//! customer in service. In wormhole routing, once a worm occupies an input
//! link there can be no further arrivals on that link until the worm is
//! fully serviced; a newly arrived worm therefore only waits for worms that
//! came in on *other* input links. The paper corrects the M/G/m wait `W_j`
//! of outgoing channel `j` by a blocking probability (Eq. 9):
//!
//! ```text
//! w(i|j) = P(i|j) · W_j
//! ```
//!
//! where `P(i|j)` approximates the probability that the `m` customers the
//! queueing model deems "in service" all emanate from input links other
//! than `i` (Eq. 10):
//!
//! ```text
//! P(i|j) = 1 − m · (λ_in_i / λ_j) · R(i|j).
//! ```
//!
//! Here `λ_in_i` is the total message rate on incoming channel `i`, `λ_j`
//! the total rate on outgoing channel `j` (combined over its `m` physical
//! links), and `R(i|j)` the probability that a message from `i` is routed
//! to `j`. At `m = 1` the expression is exact — it is one minus the
//! probability that a random message bound for `j` came from `i`.

use crate::{QueueingError, Result};

/// Computes the blocking probability `P(i|j)` of paper Eq. 10.
///
/// * `servers` — number of physical links `m` aggregated into outgoing
///   channel `j`.
/// * `lambda_in` — total message rate on incoming channel `i`.
/// * `lambda_out` — total message rate on outgoing channel `j`.
/// * `routing_probability` — `R(i|j)`, probability a message from `i`
///   continues to `j`.
///
/// The raw formula can fall below 0 when the approximation's premise
/// (modest per-input rates relative to `λ_j`) is violated; the result is
/// clamped to `[0, 1]`, which keeps downstream waits non-negative and
/// matches the paper's reading of `P` as a probability.
///
/// # Errors
///
/// * [`QueueingError::InvalidServerCount`] when `servers == 0`.
/// * [`QueueingError::InvalidRate`] on negative/non-finite rates.
/// * [`QueueingError::InvalidProbability`] when `routing_probability ∉ [0,1]`.
pub fn blocking_probability(
    servers: u32,
    lambda_in: f64,
    lambda_out: f64,
    routing_probability: f64,
) -> Result<f64> {
    if servers == 0 {
        return Err(QueueingError::InvalidServerCount);
    }
    if !lambda_in.is_finite() || lambda_in < 0.0 {
        return Err(QueueingError::InvalidRate { rate: lambda_in });
    }
    if !lambda_out.is_finite() || lambda_out < 0.0 {
        return Err(QueueingError::InvalidRate { rate: lambda_out });
    }
    if !routing_probability.is_finite() || !(0.0..=1.0).contains(&routing_probability) {
        return Err(QueueingError::InvalidProbability {
            probability: routing_probability,
        });
    }
    if lambda_out == 0.0 {
        // No traffic on the outgoing channel: no contention to correct for.
        // The factor multiplies a zero wait, so any finite value works; 1 is
        // the natural no-information choice.
        return Ok(1.0);
    }
    let raw = 1.0 - f64::from(servers) * (lambda_in / lambda_out) * routing_probability;
    Ok(raw.clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn single_server_case_is_exact_complement() {
        // m=1: P = 1 − λ_i·R/λ_j, i.e. 1 minus the fraction of j's traffic
        // contributed by i.
        let p = blocking_probability(1, 0.2, 0.8, 0.5).unwrap();
        assert!((p - (1.0 - 0.2 * 0.5 / 0.8)).abs() < TOL);
    }

    #[test]
    fn paper_fat_tree_down_link_case() {
        // Eq. 18's coefficient: 4 children each taken with R=1/4 and equal
        // in/out rates gives P = 1 − 1/4 = 3/4.
        let p = blocking_probability(1, 0.3, 0.3, 0.25).unwrap();
        assert!((p - 0.75).abs() < TOL);
    }

    #[test]
    fn paper_root_sibling_case() {
        // Eq. 20's coefficient: R = 1/3 with equal rates gives P = 2/3.
        let p = blocking_probability(1, 0.3, 0.3, 1.0 / 3.0).unwrap();
        assert!((p - 2.0 / 3.0).abs() < TOL);
    }

    #[test]
    fn paper_two_server_up_pair_case() {
        // Eq. 22's up-branch coefficient: m=2, outgoing combined rate twice
        // the per-link rate λ_up, incoming rate λ_in, R = P↑ gives
        // P = 1 − 2·(λ_in/(2λ_up))·P↑ = 1 − (λ_in/λ_up)·P↑.
        let (lambda_in, lambda_up, p_up) = (0.12, 0.2, 0.9);
        let p = blocking_probability(2, lambda_in, 2.0 * lambda_up, p_up).unwrap();
        assert!((p - (1.0 - lambda_in / lambda_up * p_up)).abs() < TOL);
    }

    #[test]
    fn clamping_keeps_result_in_unit_interval() {
        // Extreme single-input case: all of j's traffic comes from i over
        // m=2 servers; raw value is negative, clamped to 0.
        let p = blocking_probability(2, 1.0, 1.0, 1.0).unwrap();
        assert_eq!(p, 0.0);
    }

    #[test]
    fn zero_outgoing_rate_defaults_to_one() {
        assert_eq!(blocking_probability(1, 0.1, 0.0, 0.5).unwrap(), 1.0);
    }

    #[test]
    fn zero_routing_probability_means_no_correction() {
        let p = blocking_probability(2, 0.4, 0.5, 0.0).unwrap();
        assert_eq!(p, 1.0);
    }

    #[test]
    fn validation_errors() {
        assert!(blocking_probability(0, 0.1, 0.2, 0.5).is_err());
        assert!(blocking_probability(1, -0.1, 0.2, 0.5).is_err());
        assert!(blocking_probability(1, 0.1, -0.2, 0.5).is_err());
        assert!(blocking_probability(1, 0.1, 0.2, 1.5).is_err());
        assert!(blocking_probability(1, 0.1, 0.2, -0.5).is_err());
        assert!(blocking_probability(1, f64::NAN, 0.2, 0.5).is_err());
    }

    #[test]
    fn monotone_decreasing_in_input_share() {
        // The more of j's traffic that comes from i, the smaller the chance
        // that i's worm waits behind *other* inputs.
        let mut prev = 2.0;
        for share in [0.0, 0.1, 0.3, 0.6, 0.9] {
            let p = blocking_probability(1, share, 1.0, 1.0).unwrap();
            assert!(p < prev);
            prev = p;
        }
    }
}
