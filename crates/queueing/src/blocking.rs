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
//! the total rate on outgoing station `j` (combined over its `m` physical
//! links), and `R(i|j)` the probability that a message from `i` is routed
//! to `j`. Every station in the models spreads its traffic evenly over its
//! links, so `λ_j = m·λ_channel` and the server count cancels:
//!
//! ```text
//! P(i|j) = 1 − (λ_in_i / λ_channel) · R(i|j),
//! ```
//!
//! the per-channel form [`blocking_probability`] evaluates. At `m = 1` the
//! expression is exact — it is one minus the probability that a random
//! message bound for `j` came from `i`.

/// The blocking probability `P(i|j)` of paper Eq. 10 in its per-channel
/// form, `1 − (λ_in / λ_out)·R`, clamped to `[0, 1]`.
///
/// * `lambda_in` — total message rate on incoming channel `i`.
/// * `lambda_out` — message rate on **one channel** of outgoing station
///   `j` (the station's combined rate over its server count).
/// * `routing_probability` — `R(i|j)`, probability a message from `i`
///   continues to station `j`.
///
/// With no traffic on the outgoing channel (`lambda_out ≤ 0`) there is no
/// contention to correct for; the factor multiplies a zero wait, and 1 is
/// the natural no-information value. The raw formula can fall below 0 when
/// the approximation's premise (modest per-input rates relative to
/// `λ_out`) is violated; the clamp keeps downstream waits non-negative and
/// matches the paper's reading of `P` as a probability.
///
/// The function is total and does not validate: the models check every
/// rate and probability when they check their specification.
#[must_use]
pub fn blocking_probability(lambda_in: f64, lambda_out: f64, routing_probability: f64) -> f64 {
    if lambda_out <= 0.0 {
        return 1.0;
    }
    (1.0 - lambda_in / lambda_out * routing_probability).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn single_server_case_is_exact_complement() {
        // m=1: P = 1 − λ_i·R/λ_j, i.e. 1 minus the fraction of j's traffic
        // contributed by i.
        let p = blocking_probability(0.2, 0.8, 0.5);
        assert!((p - (1.0 - 0.2 * 0.5 / 0.8)).abs() < TOL);
    }

    #[test]
    fn paper_fat_tree_down_link_case() {
        // Eq. 18's coefficient: 4 children each taken with R=1/4 and equal
        // in/out rates gives P = 1 − 1/4 = 3/4.
        let p = blocking_probability(0.3, 0.3, 0.25);
        assert!((p - 0.75).abs() < TOL);
    }

    #[test]
    fn paper_root_sibling_case() {
        // Eq. 20's coefficient: R = 1/3 with equal rates gives P = 2/3.
        let p = blocking_probability(0.3, 0.3, 1.0 / 3.0);
        assert!((p - 2.0 / 3.0).abs() < TOL);
    }

    #[test]
    fn paper_two_server_up_pair_case() {
        // Eq. 22's up-branch coefficient: m=2, outgoing combined rate twice
        // the per-link rate λ_up, incoming rate λ_in, R = P↑ gives
        // P = 1 − 2·(λ_in/(2λ_up))·P↑ = 1 − (λ_in/λ_up)·P↑: the per-link
        // rate goes in, and the server count cancels.
        let (lambda_in, lambda_up, p_up) = (0.12, 0.2, 0.9);
        let p = blocking_probability(lambda_in, lambda_up, p_up);
        assert!((p - (1.0 - 2.0 * (lambda_in / (2.0 * lambda_up)) * p_up)).abs() < TOL);
    }

    #[test]
    fn clamping_keeps_result_in_unit_interval() {
        // Extreme single-input case: twice the outgoing channel's rate
        // arrives from i; the raw value is negative, clamped to 0.
        assert_eq!(blocking_probability(1.0, 0.5, 1.0), 0.0);
    }

    #[test]
    fn zero_outgoing_rate_defaults_to_one() {
        assert_eq!(blocking_probability(0.1, 0.0, 0.5), 1.0);
    }

    #[test]
    fn zero_routing_probability_means_no_correction() {
        assert_eq!(blocking_probability(0.4, 0.25, 0.0), 1.0);
    }

    #[test]
    fn monotone_decreasing_in_input_share() {
        // The more of j's traffic that comes from i, the smaller the chance
        // that i's worm waits behind *other* inputs.
        let mut prev = 2.0;
        for share in [0.0, 0.1, 0.3, 0.6, 0.9] {
            let p = blocking_probability(share, 1.0, 1.0);
            assert!(p < prev);
            prev = p;
        }
    }
}
