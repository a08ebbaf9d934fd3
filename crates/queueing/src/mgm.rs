//! M/G/m approximations: Hokstad's two-server form (paper Eq. 7) and a
//! general-`m` scaling of the exact M/M/m wait.
//!
//! The paper uses Hokstad's approximation for the M/G/2 queue,
//!
//! ```text
//! W(M/G/2) ≈ λ²·x̄³ / (2·(4 − λ²·x̄²)) · (1 + C_b²),
//! ```
//!
//! which is exactly the M/M/2 mean wait `λ²x̄³/(4 − λ²x̄²)` scaled by
//! `(1 + C_b²)/2` — the same scaling the Pollaczek–Khinchine formula applies
//! to M/M/1. Generalizing that observation (the Lee–Longton approximation)
//! gives an M/G/m formula for any `m`:
//!
//! ```text
//! W(M/G/m) ≈ (1 + C_b²)/2 · W(M/M/m),
//! ```
//!
//! which this module also provides, realizing the paper's concluding remark
//! that "the framework can be extended for networks that require queuing
//! models with more than two servers". At `m = 1` it reduces to
//! Pollaczek–Khinchine and at `m = 2` to Hokstad's form, so a single entry
//! point ([`waiting_time`]) serves every channel multiplicity in the model.

use crate::error::{check_rate, check_scv, check_service_time, check_wait};
#[cfg(test)]
use crate::mg1;
use crate::{mmm, QueueingError, Result};

/// Hokstad's closed-form approximation for the M/G/2 mean waiting time
/// (paper Eq. 7): `W = λ²x̄³(1 + C_b²) / (2(4 − λ²x̄²))`.
///
/// `lambda` is the **combined** arrival rate over both servers; stability
/// requires `ρ = λ·x̄/2 < 1`.
///
/// # Errors
///
/// * [`QueueingError::Saturated`] when `ρ ≥ 1`.
/// * Validation errors on non-finite/negative inputs.
pub fn hokstad_mg2_waiting_time(lambda: f64, mean_service: f64, scv: f64) -> Result<f64> {
    check_rate(lambda)?;
    check_service_time(mean_service)?;
    check_scv(scv)?;
    let a = lambda * mean_service;
    let rho = a / 2.0;
    if rho >= 1.0 {
        return Err(QueueingError::Saturated { utilization: rho });
    }
    let num = lambda * lambda * mean_service.powi(3);
    let den = 2.0 * (4.0 - lambda * lambda * mean_service * mean_service);
    check_wait(num / den * (1.0 + scv))
}

/// General M/G/m mean waiting time via the Lee–Longton style scaling of the
/// exact M/M/m result: `W ≈ (1 + C_b²)/2 · W(M/M/m)`.
///
/// `lambda` is the combined arrival rate over all `servers`; stability
/// requires `ρ = λ·x̄/m < 1`.
///
/// Special cases (verified in tests):
/// * `m = 1` — reduces exactly to Pollaczek–Khinchine ([`crate::mg1::waiting_time`]).
/// * `m = 2` — coincides exactly with [`hokstad_mg2_waiting_time`].
///
/// # Errors
///
/// * [`QueueingError::InvalidServerCount`] when `servers == 0`.
/// * [`QueueingError::Saturated`] when `ρ ≥ 1`.
/// * Validation errors on non-finite/negative inputs.
pub fn waiting_time(servers: u32, lambda: f64, mean_service: f64, scv: f64) -> Result<f64> {
    check_scv(scv)?;
    let w_mmm = mmm::waiting_time(servers, lambda, mean_service)?;
    check_wait(w_mmm * (1.0 + scv) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn m1_reduces_to_pollaczek_khinchine() {
        for (lambda, x, scv) in [(0.02, 10.0, 0.0), (0.05, 12.0, 0.7), (0.08, 9.0, 1.0)] {
            let general = waiting_time(1, lambda, x, scv).unwrap();
            let pk = mg1::waiting_time(lambda, x, scv).unwrap();
            assert!(
                (general - pk).abs() < TOL,
                "m=1 must reduce to PK: {general} vs {pk}"
            );
        }
    }

    #[test]
    fn m2_coincides_with_hokstad() {
        for (lambda, x, scv) in [(0.05, 10.0, 0.0), (0.12, 11.0, 0.42), (0.18, 8.0, 1.3)] {
            let general = waiting_time(2, lambda, x, scv).unwrap();
            let hok = hokstad_mg2_waiting_time(lambda, x, scv).unwrap();
            assert!(
                (general - hok).abs() < 1e-10,
                "m=2 must equal Hokstad: {general} vs {hok}"
            );
        }
    }

    #[test]
    fn hokstad_matches_paper_equation_form() {
        // Direct transliteration of Eq. 7 as an independent oracle.
        let (lambda, x, scv) = (0.1, 12.0, 0.5);
        let w = hokstad_mg2_waiting_time(lambda, x, scv).unwrap();
        let oracle =
            lambda * lambda * x * x * x / (2.0 * (4.0 - lambda * lambda * x * x)) * (1.0 + scv);
        assert!((w - oracle).abs() < TOL);
    }

    #[test]
    fn more_servers_less_waiting_at_equal_per_server_load() {
        let (x, scv) = (10.0, 0.6);
        let per_server_lambda = 0.06;
        let mut prev = f64::INFINITY;
        for m in 1..=8u32 {
            let w = waiting_time(m, per_server_lambda * f64::from(m), x, scv).unwrap();
            assert!(w < prev, "pooling must help: m={m}, W={w}, prev={prev}");
            prev = w;
        }
    }

    #[test]
    fn saturation_boundaries() {
        // ρ = 1 exactly.
        assert!(matches!(
            hokstad_mg2_waiting_time(0.2, 10.0, 0.5),
            Err(QueueingError::Saturated { .. })
        ));
        assert!(matches!(
            waiting_time(4, 0.4, 10.0, 0.5),
            Err(QueueingError::Saturated { .. })
        ));
        // Just below saturation is fine and large.
        let w = waiting_time(2, 0.1999, 10.0, 0.5).unwrap();
        assert!(w > 100.0);
    }

    #[test]
    fn scv_scaling_is_linear() {
        let (m, lambda, x) = (3u32, 0.2, 9.0);
        let w0 = waiting_time(m, lambda, x, 0.0).unwrap();
        let w1 = waiting_time(m, lambda, x, 1.0).unwrap();
        let w2 = waiting_time(m, lambda, x, 2.0).unwrap();
        assert!((w1 - 2.0 * w0).abs() < TOL);
        assert!((w2 - 3.0 * w0).abs() < TOL);
    }

    #[test]
    fn zero_load_zero_wait() {
        for m in 1..=4u32 {
            assert_eq!(waiting_time(m, 0.0, 10.0, 0.5).unwrap(), 0.0);
        }
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(waiting_time(2, -0.1, 10.0, 0.5).is_err());
        assert!(waiting_time(2, 0.1, -10.0, 0.5).is_err());
        assert!(waiting_time(2, 0.1, 10.0, -0.5).is_err());
        assert!(hokstad_mg2_waiting_time(f64::NAN, 10.0, 0.5).is_err());
    }
}
