//! The M/M/m queue solved exactly via the Erlang B and Erlang C formulas.
//!
//! These are the exact multi-server results that the M/G/m approximations in
//! [`crate::mgm`] scale by `(1 + C_b²)/2`. Offered load is `a = λ·x̄`
//! erlangs over `m` servers, per-server utilization `ρ = a/m`.

use crate::error::{check_rate, check_service_time};
use crate::{QueueingError, Result};

/// Erlang B (blocking) probability `B(m, a)` computed by the standard
/// numerically-stable recurrence `B(0,a)=1`, `B(k,a) = a·B(k−1,a)/(k + a·B(k−1,a))`.
///
/// Defined for any offered load `a ≥ 0`; no stability condition applies
/// (Erlang B models a loss system).
///
/// # Errors
///
/// * [`QueueingError::InvalidServerCount`] when `servers == 0`.
/// * [`QueueingError::InvalidRate`] when `offered_load` is negative/non-finite.
pub fn erlang_b(servers: u32, offered_load: f64) -> Result<f64> {
    if servers == 0 {
        return Err(QueueingError::InvalidServerCount);
    }
    if !offered_load.is_finite() || offered_load < 0.0 {
        return Err(QueueingError::InvalidRate { rate: offered_load });
    }
    let mut b = 1.0;
    for k in 1..=servers {
        b = offered_load * b / (f64::from(k) + offered_load * b);
    }
    Ok(b)
}

/// Erlang C (delay) probability `C(m, a)`: probability that an arriving
/// customer must wait, in an M/M/m queue with offered load `a` erlangs.
///
/// Computed from Erlang B via `C = m·B / (m − a·(1 − B))`.
///
/// # Errors
///
/// * Validation errors as in [`erlang_b`].
/// * [`QueueingError::Saturated`] when `a ≥ m`.
pub fn erlang_c(servers: u32, offered_load: f64) -> Result<f64> {
    let b = erlang_b(servers, offered_load)?;
    let m = f64::from(servers);
    if offered_load >= m {
        return Err(QueueingError::Saturated {
            utilization: offered_load / m,
        });
    }
    Ok(m * b / (m - offered_load * (1.0 - b)))
}

/// Mean waiting time in queue of an M/M/m station:
/// `W = C(m, a) · x̄ / (m·(1 − ρ))`.
///
/// * `servers` — number of parallel servers `m ≥ 1`.
/// * `lambda` — **total** Poisson arrival rate to the station.
/// * `mean_service` — mean service time `x̄` of one server.
///
/// # Errors
///
/// * [`QueueingError::Saturated`] when `ρ = λ·x̄/m ≥ 1`.
/// * Validation errors on bad inputs.
pub fn waiting_time(servers: u32, lambda: f64, mean_service: f64) -> Result<f64> {
    check_rate(lambda)?;
    check_service_time(mean_service)?;
    if servers == 0 {
        return Err(QueueingError::InvalidServerCount);
    }
    let m = f64::from(servers);
    let a = lambda * mean_service;
    let rho = a / m;
    if rho >= 1.0 {
        return Err(QueueingError::Saturated { utilization: rho });
    }
    let c = erlang_c(servers, a)?;
    Ok(c * mean_service / (m * (1.0 - rho)))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn erlang_b_known_values() {
        // B(1, a) = a/(1+a).
        for a in [0.0, 0.5, 1.0, 3.0] {
            let b = erlang_b(1, a).unwrap();
            assert!((b - a / (1.0 + a)).abs() < TOL);
        }
        // B(2, 1) = (1/2)/(1 + 1 + 1/2) = 0.2.
        assert!((erlang_b(2, 1.0).unwrap() - 0.2).abs() < TOL);
    }

    #[test]
    fn erlang_b_decreases_with_servers() {
        let a = 2.5;
        let mut prev = 1.0 + TOL;
        for m in 1..=10 {
            let b = erlang_b(m, a).unwrap();
            assert!(b < prev);
            prev = b;
        }
    }

    #[test]
    fn erlang_c_known_values() {
        // C(1, a) = a (probability server busy) for a < 1.
        for a in [0.1, 0.5, 0.9] {
            assert!((erlang_c(1, a).unwrap() - a).abs() < TOL);
        }
        // C(2, a) = a²/(2+a) · ... : closed form a²/(a²/... ) — use the
        // direct algebraic simplification C(2,a) = a²/( a² + (2-a)(1+a) )·...
        // Simpler: C = 2B/(2 − a(1−B)) with B = B(2,a).
        let a = 1.0;
        let b = erlang_b(2, a).unwrap();
        let c = erlang_c(2, a).unwrap();
        assert!((c - 2.0 * b / (2.0 - a * (1.0 - b))).abs() < TOL);
        // Known value: C(2,1) = 1/3.
        assert!((c - 1.0 / 3.0).abs() < TOL);
    }

    #[test]
    fn mm1_special_case_matches_mg1_module() {
        let (lambda, x) = (0.06, 10.0);
        let w_here = waiting_time(1, lambda, x).unwrap();
        let w_pk = crate::mg1::waiting_time(lambda, x, 1.0).unwrap();
        assert!((w_here - w_pk).abs() < TOL);
    }

    #[test]
    fn mm2_closed_form() {
        // W(M/M/2) = λ²x̄³/(4 − λ²x̄²) — the form the paper's Eq. 7 scales.
        let (lambda, x) = (0.12, 10.0);
        let w = waiting_time(2, lambda, x).unwrap();
        let expect = lambda * lambda * x.powi(3) / (4.0 - lambda * lambda * x * x);
        assert!((w - expect).abs() < TOL);
    }

    #[test]
    fn pooling_servers_reduces_wait() {
        // m servers fed at m·λ beat m separate M/M/1 queues fed at λ each.
        let (lambda, x) = (0.05, 10.0);
        let w1 = waiting_time(1, lambda, x).unwrap();
        for m in 2..=6u32 {
            let wm = waiting_time(m, lambda * f64::from(m), x).unwrap();
            assert!(wm < w1, "M/M/{m} pooled wait {wm} must beat M/M/1 {w1}");
        }
    }

    #[test]
    fn saturation_and_validation() {
        assert!(matches!(
            waiting_time(2, 0.2, 10.0),
            Err(QueueingError::Saturated { .. })
        ));
        assert!(waiting_time(0, 0.1, 1.0).is_err());
        assert!(erlang_b(0, 1.0).is_err());
        assert!(erlang_b(2, -1.0).is_err());
        assert!(erlang_c(2, 2.0).is_err());
    }

    #[test]
    fn waiting_time_monotone_in_load() {
        let x = 8.0;
        let mut prev = -1.0;
        for i in 1..20 {
            let lambda = 0.01 * f64::from(i);
            let w = waiting_time(2, lambda, x).unwrap();
            assert!(w > prev);
            prev = w;
        }
    }
}
