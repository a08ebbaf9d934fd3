//! The M/G/1 queue: Pollaczek–Khinchine mean waiting time and derived
//! quantities (paper Eq. 4).
//!
//! For Poisson arrivals at rate `λ` into a single server with mean service
//! time `x̄` and service-time SCV `C_b²`, the mean wait in queue is
//!
//! ```text
//! W = ρ·x̄·(1 + C_b²) / (2(1 − ρ)),   ρ = λ·x̄ < 1.
//! ```
//!
//! This is the workhorse of the wormhole model for every channel with a
//! single physical link: ejection channels, down-links, and the injection
//! channel (paper Eqs. 17, 19 and 24).

use crate::error::{check_rate, check_scv, check_service_time, check_wait};
use crate::{QueueingError, Result};

/// Per-server utilization `ρ = λ·x̄` of a single-server station.
///
/// Does not validate stability; combine with [`waiting_time`] for checked
/// use.
#[must_use]
pub fn utilization(lambda: f64, mean_service: f64) -> f64 {
    lambda * mean_service
}

/// Mean waiting time in queue of an M/G/1 station (Pollaczek–Khinchine).
///
/// * `lambda` — Poisson arrival rate (events/cycle).
/// * `mean_service` — mean service time `x̄` (cycles).
/// * `scv` — squared coefficient of variation `C_b²` of service times.
///
/// # Errors
///
/// * [`QueueingError::Saturated`] when `ρ = λ·x̄ ≥ 1`.
/// * [`QueueingError::Numerical`] when the formula overflows to a
///   non-finite wait (possible from huge validated inputs).
/// * Validation errors on non-finite or negative inputs.
pub fn waiting_time(lambda: f64, mean_service: f64, scv: f64) -> Result<f64> {
    check_rate(lambda)?;
    check_service_time(mean_service)?;
    check_scv(scv)?;
    let rho = utilization(lambda, mean_service);
    if rho >= 1.0 {
        return Err(QueueingError::Saturated { utilization: rho });
    }
    check_wait(rho * mean_service * (1.0 + scv) / (2.0 * (1.0 - rho)))
}

/// Like [`waiting_time`] but maps saturation to `f64::INFINITY`.
///
/// Invalid (non-finite / negative) inputs still yield `NaN` rather than a
/// silent answer so that programming errors surface in debug assertions and
/// property tests.
#[must_use]
pub fn waiting_time_or_inf(lambda: f64, mean_service: f64, scv: f64) -> f64 {
    match waiting_time(lambda, mean_service, scv) {
        Ok(w) => w,
        Err(QueueingError::Saturated { .. }) => f64::INFINITY,
        Err(_) => f64::NAN,
    }
}

/// Mean waiting time of an M/M/1 queue (`C_b² = 1`): `W = ρ·x̄/(1 − ρ)`.
///
/// # Errors
///
/// Same as [`waiting_time`].
pub fn mm1_waiting_time(lambda: f64, mean_service: f64) -> Result<f64> {
    waiting_time(lambda, mean_service, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::ServiceMoments;

    const TOL: f64 = 1e-12;

    #[test]
    fn zero_arrivals_mean_zero_wait() {
        assert_eq!(waiting_time(0.0, 10.0, 1.0).unwrap(), 0.0);
    }

    #[test]
    fn mm1_matches_closed_form() {
        // λ=0.05, x̄=10 ⇒ ρ=0.5, W = 0.5·10/0.5 = 10.
        let w = mm1_waiting_time(0.05, 10.0).unwrap();
        assert!((w - 10.0).abs() < TOL);
    }

    #[test]
    fn saturation_is_reported() {
        match waiting_time(0.1, 10.0, 1.0) {
            Err(QueueingError::Saturated { utilization }) => {
                assert!((utilization - 1.0).abs() < TOL);
            }
            other => panic!("expected saturation, got {other:?}"),
        }
        assert!(waiting_time(0.2, 10.0, 1.0).is_err());
        assert_eq!(waiting_time_or_inf(0.2, 10.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(waiting_time(-0.1, 10.0, 1.0).is_err());
        assert!(waiting_time(0.01, 0.0, 1.0).is_err());
        assert!(waiting_time(0.01, 10.0, -1.0).is_err());
        assert!(waiting_time_or_inf(-0.1, 10.0, 1.0).is_nan());
    }

    #[test]
    fn wait_is_monotone_in_load_and_scv() {
        let mut prev = -1.0;
        for i in 1..=9 {
            let lambda = 0.01 * f64::from(i);
            let w = waiting_time(lambda, 10.0, 0.5).unwrap();
            assert!(w > prev, "W must increase with λ");
            prev = w;
        }
        let w_low = waiting_time(0.05, 10.0, 0.0).unwrap();
        let w_high = waiting_time(0.05, 10.0, 2.0).unwrap();
        assert!(w_high > w_low, "W must increase with C_b²");
    }

    #[test]
    fn pk_formula_matches_second_moment_form() {
        // PK can equivalently be written W = λ·E[X²]/(2(1−ρ)); check both
        // algebraic forms agree.
        let (lambda, x, scv) = (0.04, 11.0, 0.6);
        let m = ServiceMoments::new(x, scv).unwrap();
        let w1 = waiting_time(lambda, x, scv).unwrap();
        let w2 = lambda * m.second_moment() / (2.0 * (1.0 - lambda * x));
        assert!((w1 - w2).abs() < 1e-12);
    }
}
