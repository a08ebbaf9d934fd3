//! Multi-lane (virtual-channel) extension of the wormhole model.
//!
//! The paper's Eqs. 9–10 assume single-lane channels: a worm that finds
//! its outgoing channel occupied waits the full M/G/m wait `W_j`, damped
//! only by the blocking probability `P(i|j)` of Eq. 10. With `L ≥ 1`
//! virtual-channel lanes per physical channel two things change:
//!
//! 1. **Lane availability** — an arriving worm waits only when *all* `L`
//!    lanes are occupied. The `wormsim-core` models price this with the
//!    M/G/(m·L) lane-slot wait: [`crate::wormhole::station_wait`] at `m·L`
//!    servers, with the lane residence below as the service time (the
//!    Erlang-C occupancy distribution over the lane slots). It reduces
//!    exactly to the paper's M/G/m at `L = 1` and moves the capacity limit
//!    outward with `L`.
//! 2. **Flit multiplexing** — occupied lanes share the physical link's
//!    one-flit-per-cycle bandwidth, so a worm's `s/f` flit transmissions
//!    on the channel stretch by the fraction of slots claimed by *other*
//!    lanes ([`shared_link_residence`], used directly by the framework's
//!    service equation). At `L = 1` there are no other lanes and the
//!    residence equals the plain service time.
//!
//! Both corrections are algebraically exact no-ops at `L = 1` (the code
//! short-circuits, so they are bit-exact no-ops too), which is what lets
//! `wormsim-core` expose a lane count without perturbing the paper's
//! single-lane numbers.

use crate::{QueueingError, Result};

/// Mean lane-residence time of a worm on a multi-lane channel: the plain
/// service time `mean_service` with its `s/f` transmission component
/// stretched by flit multiplexing.
///
/// Decompose `x̄ = s/f + blocking` into pure transmission plus downstream
/// blocking (which holds the lane but consumes no link slots). A
/// co-resident worm on another lane alternates advancements with ours
/// (FCFS span arbitration hands the contended flit slot to each in turn),
/// so it claims half the slots our worm wants while both are present.
/// Weighting each further lane by its geometric occupancy
/// `ρ^k` (`ρ = λ·s/f`, the link's flit utilization — deeper lanes are
/// occupied geometrically more rarely below saturation) gives the
/// other-lane claim fraction
///
/// ```text
/// b = ½ · Σ_{k=1}^{L−1} ρ^k = ½·ρ·(1 − ρ^{L−1})/(1 − ρ)
/// ```
///
/// and the residence `r = (x̄ − s/f) + (s/f)/(1 − b)`. At `L = 1` the sum
/// is empty and `r = x̄` exactly; as `L → ∞` it converges — matching the
/// observation (Stergiou's multi-lane MINs) that lanes beyond the first
/// few stop changing the latency picture. `lambda` is the
/// per-physical-channel worm arrival rate.
///
/// # Errors
///
/// * [`QueueingError::InvalidServerCount`] when `lanes == 0`.
/// * [`QueueingError::InvalidRate`] / [`QueueingError::InvalidServiceTime`]
///   on negative or non-finite inputs, or `mean_service < worm_flits`.
/// * [`QueueingError::Saturated`] when the other lanes' claims exhaust the
///   link bandwidth (`b ≥ 1`).
pub fn shared_link_residence(
    lanes: u32,
    mean_service: f64,
    worm_flits: f64,
    lambda: f64,
) -> Result<f64> {
    if lanes == 0 {
        // A zero-lane channel cannot carry traffic; reuse the server-count
        // error, the nearest semantic match.
        return Err(QueueingError::InvalidServerCount);
    }
    if !lambda.is_finite() || lambda < 0.0 {
        return Err(QueueingError::InvalidRate { rate: lambda });
    }
    if !(mean_service.is_finite() && worm_flits.is_finite())
        || worm_flits <= 0.0
        || mean_service < worm_flits
    {
        return Err(QueueingError::InvalidServiceTime {
            service_time: mean_service,
        });
    }
    if lanes == 1 {
        return Ok(mean_service);
    }
    let rho = (lambda * worm_flits).min(1.0);
    let mut occupancy = 0.0;
    let mut term = 1.0;
    for _ in 1..lanes {
        term *= rho;
        occupancy += term;
    }
    let busy_other = 0.5 * occupancy;
    if busy_other >= 1.0 {
        return Err(QueueingError::Saturated {
            utilization: busy_other,
        });
    }
    Ok((mean_service - worm_flits) + worm_flits / (1.0 - busy_other))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn single_lane_residence_is_the_service_time() {
        for (x, s, lambda) in [(16.0, 16.0, 0.05), (24.5, 16.0, 0.01), (70.0, 64.0, 0.012)] {
            assert_eq!(shared_link_residence(1, x, s, lambda).unwrap(), x);
        }
    }

    #[test]
    fn residence_matches_manual_form_and_grows_with_lanes() {
        let (x, s, lambda) = (20.0, 16.0, 0.02);
        let rho: f64 = lambda * s;
        let r2 = shared_link_residence(2, x, s, lambda).unwrap();
        let manual2 = (x - s) + s / (1.0 - 0.5 * rho);
        assert!((r2 - manual2).abs() < TOL);
        assert!(r2 > x, "sharing must stretch transmissions");
        // More lanes → deeper (occupancy-weighted) sharing → longer
        // residence, converging geometrically.
        let r4 = shared_link_residence(4, x, s, lambda).unwrap();
        let manual4 = (x - s) + s / (1.0 - 0.5 * (rho + rho * rho + rho.powi(3)));
        assert!((r4 - manual4).abs() < TOL);
        assert!(r4 > r2);
        let r16 = shared_link_residence(16, x, s, lambda).unwrap();
        let r64 = shared_link_residence(64, x, s, lambda).unwrap();
        assert!((r64 - r16).abs() < 1e-5, "deep lanes converge");
        // Zero load: no sharing, residence = service.
        assert!((shared_link_residence(4, x, s, 0.0).unwrap() - x).abs() < TOL);
    }

    #[test]
    fn residence_stays_finite_up_to_full_utilization() {
        // The occupancy-weighted claim fraction is at most ½·(L−1) of a
        // fully utilized link; for L = 2 it caps at ½, so the stretch
        // never diverges below flit saturation.
        let r = shared_link_residence(2, 20.0, 16.0, 1.0 / 16.0).unwrap();
        assert!((r - (4.0 + 16.0 / (1.0 - 0.5))).abs() < TOL);
        // Deep lanes at full utilization do exhaust the link (b ≥ 1).
        assert!(matches!(
            shared_link_residence(4, 20.0, 16.0, 1.0 / 16.0),
            Err(QueueingError::Saturated { .. })
        ));
    }

    #[test]
    fn validation_errors() {
        assert!(shared_link_residence(0, 20.0, 16.0, 0.01).is_err());
        assert!(
            shared_link_residence(2, 15.0, 16.0, 0.01).is_err(),
            "x̄ < s/f"
        );
        assert!(shared_link_residence(2, 20.0, 16.0, -0.01).is_err());
        assert!(shared_link_residence(2, 20.0, 0.0, 0.01).is_err());
    }
}
