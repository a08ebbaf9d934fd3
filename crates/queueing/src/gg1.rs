//! G/G/1 mean-wait approximations for non-Poisson arrivals.
//!
//! The paper's model assumes Poisson arrivals everywhere, which is exact
//! for its workload but optimistic under **bursty** sources (two-state
//! MMPP and friends, cf. Giroudot & Mifdaoui's buffer-aware analysis of
//! wormhole NoCs under bursty traffic). The classic heavy-traffic
//! correction is the Kingman / Allen–Cunneen form
//!
//! ```text
//! W_G/G/1 ≈ W_M/G/1 · (C_a² + C_b²) / (1 + C_b²)
//! ```
//!
//! which scales the Pollaczek–Khinchine wait by the arrival variability:
//! at `C_a² = 1` (Poisson) it reduces to M/G/1 exactly, and it grows
//! linearly in the arrival index of dispersion — the quantity
//! `wormsim-workload` computes in closed form for its MMPP sources.

use crate::error::QueueingError;
use crate::mg1;
use crate::Result;

/// Mean waiting time of a G/G/1 queue under the Allen–Cunneen
/// approximation.
///
/// * `lambda` — mean arrival rate (events/cycle).
/// * `mean_service` — mean service time `x̄` (cycles).
/// * `scv_service` — squared coefficient of variation `C_b²` of service.
/// * `scv_arrival` — squared coefficient of variation `C_a²` of the
///   arrival process (1 for Poisson; the MMPP index of dispersion is the
///   standard stand-in for modulated sources).
///
/// # Errors
///
/// * [`QueueingError::Saturated`] when `ρ = λ·x̄ ≥ 1`.
/// * Validation errors on non-finite or negative inputs.
pub fn waiting_time(
    lambda: f64,
    mean_service: f64,
    scv_service: f64,
    scv_arrival: f64,
) -> Result<f64> {
    if !(scv_arrival.is_finite() && scv_arrival >= 0.0) {
        return Err(QueueingError::InvalidScv { scv: scv_arrival });
    }
    let w_pk = mg1::waiting_time(lambda, mean_service, scv_service)?;
    crate::error::check_wait(w_pk * (scv_arrival + scv_service) / (1.0 + scv_service))
}

/// Like [`waiting_time`] but maps saturation to `f64::INFINITY` (invalid
/// inputs yield `NaN`), composing with plots and saturation scans.
#[must_use]
pub fn waiting_time_or_inf(
    lambda: f64,
    mean_service: f64,
    scv_service: f64,
    scv_arrival: f64,
) -> f64 {
    match waiting_time(lambda, mean_service, scv_service, scv_arrival) {
        Ok(w) => w,
        Err(QueueingError::Saturated { .. }) => f64::INFINITY,
        Err(_) => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_arrivals_reduce_to_mg1_exactly() {
        for (lambda, x, scv) in [(0.01, 16.0, 0.0), (0.002, 64.0, 0.4), (0.03, 20.0, 1.0)] {
            let gg = waiting_time(lambda, x, scv, 1.0).unwrap();
            let mg = mg1::waiting_time(lambda, x, scv).unwrap();
            assert!((gg - mg).abs() < 1e-15, "{gg} vs {mg}");
        }
    }

    #[test]
    fn waiting_grows_with_arrival_variability() {
        let base = waiting_time(0.01, 16.0, 0.2, 1.0).unwrap();
        let bursty = waiting_time(0.01, 16.0, 0.2, 4.0).unwrap();
        let very = waiting_time(0.01, 16.0, 0.2, 12.0).unwrap();
        assert!(base < bursty && bursty < very);
        // Scaling is linear in C_a² at fixed everything else.
        let ratio = (very - base) / (bursty - base);
        assert!((ratio - (12.0 - 1.0) / (4.0 - 1.0)).abs() < 1e-9);
    }

    #[test]
    fn smoother_than_poisson_arrivals_reduce_waiting() {
        // Deterministic-ish arrivals (C_a² → 0) wait less than Poisson.
        let det = waiting_time(0.02, 16.0, 0.5, 0.0).unwrap();
        let poisson = waiting_time(0.02, 16.0, 0.5, 1.0).unwrap();
        assert!(det < poisson);
        assert!(det > 0.0);
    }

    #[test]
    fn saturation_and_validation_propagate() {
        assert!(matches!(
            waiting_time(0.1, 16.0, 0.0, 2.0),
            Err(QueueingError::Saturated { .. })
        ));
        assert!(waiting_time(0.01, 16.0, 0.0, f64::NAN).is_err());
        assert!(waiting_time(0.01, 16.0, 0.0, -1.0).is_err());
        assert!(waiting_time_or_inf(0.1, 16.0, 0.0, 2.0).is_infinite());
        assert!(waiting_time_or_inf(0.01, 16.0, 0.0, f64::NAN).is_nan());
    }
}
