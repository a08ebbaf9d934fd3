//! Wormhole-specific corrections to classical queueing results.
//!
//! Two adaptations make Poisson-arrival queueing formulas usable for
//! wormhole-routed channels (paper §2.2):
//!
//! 1. **Service-variance surrogate** (Eq. 5, after Draper & Ghosh): the
//!    service time of a wormhole channel can never drop below the pure
//!    transmission time `s/f` flits; the excess of the mean over that floor
//!    is attributed to downstream blocking and reused as the standard
//!    deviation scale, giving `C_b² = (x̄ − s/f)²/x̄²`.
//! 2. **Blocking-probability correction** (Eq. 9/10, see [`crate::blocking`]):
//!    a worm occupying an input link suppresses further arrivals on that
//!    link, so the M/G/m wait is only paid with the probability that the
//!    servers are held by worms from *other* inputs.
//!
//! This module holds Eq. 5 and the one station wait every model evaluates:
//! [`station_wait`], the M/G/m wait with Eq. 5 substituted. At one server
//! it is the paper's Eq. 6 (`W_{M/G/1}`), at two Eq. 8 (`W_{M/G/2}`), and
//! above two the general-`m` analogue the paper's conclusion anticipates.

use crate::{mg1, mgm, Result};

/// The wormhole service-variance surrogate of paper Eq. 5:
/// `C_b² = (x̄ − s/f)² / x̄²`.
///
/// * `mean_service` — mean channel service time `x̄` (cycles).
/// * `worm_flits` — worm length in flits, `s/f` (message length `s` over
///   flit width `f`).
///
/// For `x̄ = s/f` (no downstream blocking) the surrogate is 0, modelling a
/// deterministic service time; it grows towards 1 as blocking dominates.
/// The function is total; [`station_wait`] validates the service time it
/// is fed through.
#[must_use]
pub fn wormhole_scv(mean_service: f64, worm_flits: f64) -> f64 {
    let excess = mean_service - worm_flits;
    (excess * excess) / (mean_service * mean_service)
}

/// Mean wait at a wormhole station of `servers` channels with the Eq. 5
/// SCV substituted: paper Eq. 6 at one server,
/// `W = λx̄²/(2(1 − λx̄)) · (1 + (x̄ − s/f)²/x̄²)` ([`mg1::waiting_time`]),
/// and the M/G/m wait of [`mgm::waiting_time`] above one — Eq. 8 (Hokstad)
/// at two servers.
///
/// `lambda` is the **combined** arrival rate over all `servers` — the
/// manuscript's margin correction to Eqs. 21/23 (insert the factor 2 on
/// the per-link rate) is the caller's to apply. A multi-lane channel is a
/// station of `m·L` lane slots fed at the channel's combined rate.
///
/// # Errors
///
/// Those of [`mg1::waiting_time`] at one server and of
/// [`mgm::waiting_time`] otherwise, including
/// [`crate::QueueingError::InvalidServerCount`] at zero servers.
pub fn station_wait(servers: u32, lambda: f64, mean_service: f64, worm_flits: f64) -> Result<f64> {
    let scv = wormhole_scv(mean_service, worm_flits);
    if servers == 1 {
        mg1::waiting_time(lambda, mean_service, scv)
    } else {
        mgm::waiting_time(servers, lambda, mean_service, scv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueueingError;

    const TOL: f64 = 1e-12;

    #[test]
    fn scv_zero_at_floor() {
        assert_eq!(wormhole_scv(16.0, 16.0), 0.0);
        assert_eq!(wormhole_scv(64.0, 64.0), 0.0);
    }

    #[test]
    fn scv_monotone_in_blocking_excess() {
        let mut prev = -1.0;
        for x in [16.0, 18.0, 24.0, 40.0, 100.0] {
            let scv = wormhole_scv(x, 16.0);
            assert!(scv > prev);
            prev = scv;
        }
        // C² = ((30 − 16)/30)².
        assert!((wormhole_scv(30.0, 16.0) - (14.0 / 30.0_f64).powi(2)).abs() < 1e-15);
    }

    #[test]
    fn scv_bounded_below_one_for_x_above_floor() {
        // For x̄ > s/f ≥ 0 the ratio (x̄−s/f)/x̄ < 1, so C² < 1.
        for x in [17.0, 30.0, 1000.0] {
            let scv = wormhole_scv(x, 16.0);
            assert!(scv < 1.0);
            assert!(scv >= 0.0);
        }
    }

    #[test]
    fn eq6_matches_manual_transliteration() {
        let (lambda, x, s) = (0.02, 20.0, 16.0);
        let w = station_wait(1, lambda, x, s).unwrap();
        let manual =
            lambda * x * x / (2.0 * (1.0 - lambda * x)) * (1.0 + (x - s) * (x - s) / (x * x));
        assert!((w - manual).abs() < TOL);
    }

    #[test]
    fn eq8_matches_manual_transliteration() {
        let (lambda, x, s) = (0.05, 20.0, 16.0);
        let w = station_wait(2, lambda, x, s).unwrap();
        let manual = lambda * lambda * x * x * x / (2.0 * (4.0 - lambda * lambda * x * x))
            * (1.0 + (x - s) * (x - s) / (x * x));
        assert!((w - manual).abs() < TOL);
    }

    #[test]
    fn general_m_reduces_to_specializations() {
        // One server is Pollaczek–Khinchine itself, bit for bit; two agree
        // with the literal Eq. 7 (Hokstad) at the combined rate.
        let (lambda, x, s) = (0.03, 22.0, 16.0);
        let scv = wormhole_scv(x, s);
        let pk = mg1::waiting_time(lambda, x, scv).unwrap();
        assert_eq!(
            station_wait(1, lambda, x, s).unwrap().to_bits(),
            pk.to_bits()
        );
        let hokstad = mgm::hokstad_mg2_waiting_time(2.0 * lambda, x, scv).unwrap();
        assert!((station_wait(2, 2.0 * lambda, x, s).unwrap() - hokstad).abs() < 1e-10);
    }

    #[test]
    fn deterministic_service_halves_exponential_wait() {
        // At the floor (C²=0) Eq. 6 is the M/D/1 wait = half the M/M/1 wait.
        let (lambda, x) = (0.03, 16.0);
        let w_det = station_wait(1, lambda, x, 16.0).unwrap();
        let w_mm1 = mg1::waiting_time(lambda, x, 1.0).unwrap();
        assert!((w_det - w_mm1 / 2.0).abs() < TOL);
    }

    #[test]
    fn saturation_propagates() {
        assert!(station_wait(1, 0.07, 16.0, 16.0).is_err()); // ρ = 1.12
        assert!(station_wait(2, 0.14, 16.0, 16.0).is_err()); // ρ = 1.12 on 2 servers
        assert!(station_wait(4, 0.26, 16.0, 16.0).is_err()); // ρ = 1.04 on 4 servers
        assert_eq!(
            station_wait(0, 0.01, 16.0, 16.0),
            Err(QueueingError::InvalidServerCount)
        );
    }
}
