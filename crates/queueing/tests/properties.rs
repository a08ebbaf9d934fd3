//! Property-based tests for the queueing substrate.
//!
//! These pin down the structural facts the wormhole model relies on:
//! waiting times are non-negative, monotone in load and variability,
//! multi-server pooling never hurts, and the approximations agree with
//! their exact special cases.

use proptest::prelude::*;
use wormsim_queueing::{blocking, mg1, mgm, mmm, solver, wormhole};

/// Strategy: a stable single-server operating point (ρ ≤ 0.95).
fn stable_mg1_point() -> impl Strategy<Value = (f64, f64, f64)> {
    // (rho, mean_service, scv)
    (0.0..0.95f64, 1.0..200.0f64, 0.0..4.0f64).prop_map(|(rho, x, scv)| (rho / x, x, scv))
}

/// Strategy: a stable m-server operating point.
fn stable_mgm_point() -> impl Strategy<Value = (u32, f64, f64, f64)> {
    (1u32..8, 0.0..0.95f64, 1.0..200.0f64, 0.0..4.0f64)
        .prop_map(|(m, rho, x, scv)| (m, rho * f64::from(m) / x, x, scv))
}

proptest! {
    #[test]
    fn mg1_wait_nonnegative_and_finite((lambda, x, scv) in stable_mg1_point()) {
        let w = mg1::waiting_time(lambda, x, scv).unwrap();
        prop_assert!(w.is_finite());
        prop_assert!(w >= 0.0);
    }

    #[test]
    fn mg1_wait_monotone_in_lambda((lambda, x, scv) in stable_mg1_point()) {
        prop_assume!(lambda > 1e-9);
        let w_lo = mg1::waiting_time(lambda * 0.5, x, scv).unwrap();
        let w_hi = mg1::waiting_time(lambda, x, scv).unwrap();
        prop_assert!(w_hi >= w_lo);
    }

    #[test]
    fn mg1_wait_monotone_in_scv((lambda, x, scv) in stable_mg1_point()) {
        let w_lo = mg1::waiting_time(lambda, x, scv).unwrap();
        let w_hi = mg1::waiting_time(lambda, x, scv + 0.5).unwrap();
        prop_assert!(w_hi >= w_lo);
    }

    #[test]
    fn mgm_wait_nonnegative((m, lambda, x, scv) in stable_mgm_point()) {
        let w = mgm::waiting_time(m, lambda, x, scv).unwrap();
        prop_assert!(w.is_finite());
        prop_assert!(w >= 0.0);
    }

    #[test]
    fn mgm_reduces_to_mg1((lambda, x, scv) in stable_mg1_point()) {
        let a = mgm::waiting_time(1, lambda, x, scv).unwrap();
        let b = mg1::waiting_time(lambda, x, scv).unwrap();
        prop_assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()));
    }

    #[test]
    fn mgm_two_server_equals_hokstad((lambda, x, scv) in stable_mg1_point()) {
        // Reinterpret the stable M/G/1 point as a stable M/G/2 point by
        // doubling the arrival rate (same per-server utilization).
        let lambda2 = lambda * 2.0;
        let a = mgm::waiting_time(2, lambda2, x, scv).unwrap();
        let b = mgm::hokstad_mg2_waiting_time(lambda2, x, scv).unwrap();
        prop_assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()),
            "Lee–Longton m=2 must equal Hokstad: {a} vs {b}");
    }

    #[test]
    fn pooling_never_hurts((lambda, x, scv) in stable_mg1_point()) {
        // Two pooled servers at combined rate 2λ vs one server at rate λ:
        // same per-server load, strictly better waiting (or both zero).
        let w1 = mg1::waiting_time(lambda, x, scv).unwrap();
        let w2 = mgm::waiting_time(2, 2.0 * lambda, x, scv).unwrap();
        prop_assert!(w2 <= w1 + 1e-12);
    }

    #[test]
    fn erlang_b_in_unit_interval(m in 1u32..30, a in 0.0..50.0f64) {
        let b = mmm::erlang_b(m, a).unwrap();
        prop_assert!((0.0..=1.0).contains(&b));
    }

    #[test]
    fn erlang_c_at_least_erlang_b(m in 1u32..20, rho in 0.0..0.99f64) {
        let a = rho * f64::from(m);
        let b = mmm::erlang_b(m, a).unwrap();
        let c = mmm::erlang_c(m, a).unwrap();
        prop_assert!(c >= b - 1e-12, "C({m},{a})={c} must be >= B={b}");
        prop_assert!((0.0..=1.0).contains(&c));
    }

    #[test]
    fn wormhole_scv_in_unit_interval_above_floor(
        floor in 1.0..100.0f64,
        excess in 0.0..1000.0f64,
    ) {
        let scv = wormhole::wormhole_scv(floor + excess, floor);
        prop_assert!((0.0..1.0).contains(&scv) || scv == 0.0);
    }

    #[test]
    fn blocking_probability_clamped(
        m in 1u32..4,
        lin in 0.0..1.0f64,
        lout in 0.001..1.0f64,
        r in 0.0..1.0f64,
    ) {
        let p = blocking::blocking_probability(m, lin, lout, r).unwrap();
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn blocking_probability_exact_at_single_server(
        share in 0.0..1.0f64,
        lout in 0.01..1.0f64,
        r in 0.0..1.0f64,
    ) {
        // Keep contribution λ_in·R ≤ λ_out so the formula stays in domain.
        let lin = if r > 0.0 { (share * lout / r).min(lout) } else { lout };
        let p = blocking::blocking_probability(1, lin, lout, r).unwrap();
        let expect = 1.0 - (lin * r / lout);
        prop_assert!((p - expect.clamp(0.0, 1.0)).abs() < 1e-12);
    }

    #[test]
    fn bisection_inverts_monotone_functions(target in 0.05..0.95f64) {
        // g(x) = x³ − target³ is increasing with root at `target`.
        let cfg = solver::BisectionConfig::default();
        let root = solver::bisect_increasing(0.0, 1.0, cfg, |x| Ok(x * x * x - target * target * target)).unwrap();
        prop_assert!((root - target).abs() < 1e-9);
    }

    #[test]
    fn fixed_point_solves_random_contractions(
        slope in -0.9..0.9f64,
        offset in -10.0..10.0f64,
    ) {
        // x = slope·x + offset converges to offset/(1−slope).
        let out = solver::fixed_point(&[0.0], solver::FixedPointConfig::default(), |x, fx| {
            fx[0] = slope * x[0] + offset;
            Ok(())
        }, None).unwrap();
        let expect = offset / (1.0 - slope);
        prop_assert!((out.values[0] - expect).abs() < 1e-6 * (1.0 + expect.abs()));
    }
}

// ---------------------------------------------------------------------------
// Edge cases of the queueing kernels: zero load, operation at and above the
// saturation boundary (rho >= 1), and the single-server degeneracy where
// every multi-server formula must collapse to M/G/1 (or M/M/1) exactly.
// ---------------------------------------------------------------------------

mod edge_cases {
    use wormsim_queueing::{mg1, mgm, mmm, wormhole, QueueingError};
    use wormsim_testutil::assert_close;

    #[test]
    fn zero_load_means_zero_wait_everywhere() {
        for &x in &[1.0, 18.0, 200.0] {
            for &scv in &[0.0, 0.4, 1.0, 3.7] {
                assert_eq!(mg1::waiting_time(0.0, x, scv).unwrap(), 0.0);
                assert_eq!(mg1::waiting_time_or_inf(0.0, x, scv), 0.0);
                for m in 1..=8u32 {
                    assert_eq!(mgm::waiting_time(m, 0.0, x, scv).unwrap(), 0.0);
                    assert_eq!(mmm::waiting_time(m, 0.0, x).unwrap(), 0.0);
                }
            }
        }
        assert_eq!(mg1::utilization(0.0, 42.0), 0.0);
        // Erlang blocking/queueing probabilities vanish with the load.
        for m in 1..=8u32 {
            assert_eq!(mmm::erlang_b(m, 0.0).unwrap(), 0.0);
            assert_eq!(mmm::erlang_c(m, 0.0).unwrap(), 0.0);
        }
    }

    #[test]
    fn load_at_saturation_is_rejected_with_the_utilization() {
        // rho exactly 1: lambda = m / x.
        let x = 20.0;
        let err = mg1::waiting_time(1.0 / x, x, 0.5).unwrap_err();
        match err {
            QueueingError::Saturated { utilization } => {
                assert_close(utilization, 1.0, 1e-12, 0.0, "rho at the boundary")
            }
            other => panic!("expected Saturated, got {other}"),
        }
        for m in 1..=4u32 {
            let lambda = f64::from(m) / x;
            assert!(
                mgm::waiting_time(m, lambda, x, 0.5).is_err(),
                "m={m} at rho=1"
            );
            assert!(mmm::waiting_time(m, lambda, x).is_err(), "m={m} at rho=1");
        }
    }

    #[test]
    fn load_above_saturation_is_rejected_and_or_inf_returns_infinity() {
        let x = 20.0;
        for rho in [1.0, 1.1, 2.5, 100.0] {
            let lambda1 = rho / x;
            match mg1::waiting_time(lambda1, x, 0.5) {
                Err(QueueingError::Saturated { utilization }) => {
                    assert_close(utilization, rho, 1e-9, 1e-12, "reported utilization")
                }
                other => panic!("rho={rho}: expected Saturated, got {other:?}"),
            }
            assert_eq!(mg1::waiting_time_or_inf(lambda1, x, 0.5), f64::INFINITY);
            for m in [1u32, 2, 4] {
                let lambda_m = rho * f64::from(m) / x;
                assert!(mgm::waiting_time(m, lambda_m, x, 0.5).is_err());
                assert_eq!(mgm::waiting_time_or_inf(m, lambda_m, x, 0.5), f64::INFINITY);
                assert_eq!(mmm::waiting_time_or_inf(m, lambda_m, x), f64::INFINITY);
            }
        }
    }

    #[test]
    fn wait_diverges_as_load_approaches_saturation() {
        // W(rho) must blow up as rho -> 1-: each halving of the gap to
        // saturation must increase the wait (and the wait must exceed any
        // bound eventually).
        let x = 20.0;
        let mut prev = 0.0;
        for k in 1..=12 {
            let rho = 1.0 - 0.5f64.powi(k);
            let w = mg1::waiting_time(rho / x, x, 0.7).unwrap();
            assert!(
                w > prev,
                "W must grow toward saturation (k={k}: {w} <= {prev})"
            );
            prev = w;
        }
        assert!(prev > 1e3 * x, "wait must diverge near rho=1, got {prev}");
    }

    #[test]
    fn single_server_mgm_degenerates_to_mg1_exactly() {
        // M/G/m with m = 1 must agree with Pollaczek-Khinchine to the last
        // bit of rounding, across loads and variabilities.
        for &rho in &[1e-6, 0.1, 0.5, 0.9, 0.99] {
            for &x in &[1.0, 18.0, 250.0] {
                for &scv in &[0.0, 0.3, 1.0, 4.0] {
                    let lambda = rho / x;
                    let a = mgm::waiting_time(1, lambda, x, scv).unwrap();
                    let b = mg1::waiting_time(lambda, x, scv).unwrap();
                    assert_close(a, b, 1e-12, 1e-12, "M/G/1 degeneracy");
                }
                // And with exponential service (scv = 1), both must agree
                // with the exact M/M/1 wait.
                let lambda = rho / x;
                let mm1 = mg1::mm1_waiting_time(lambda, x).unwrap();
                let mgm1 = mgm::waiting_time(1, lambda, x, 1.0).unwrap();
                let mmm1 = mmm::waiting_time(1, lambda, x).unwrap();
                assert_close(mgm1, mm1, 1e-12, 1e-9, "M/M/1 via M/G/1");
                assert_close(mmm1, mm1, 1e-12, 1e-9, "M/M/1 via Erlang C");
            }
        }
        // The wormhole wrappers collapse the same way.
        let (lambda, x, s) = (0.02, 24.0, 16.0);
        let a = wormhole::w_mgm(1, lambda, x, s).unwrap();
        let b = wormhole::w_mg1(lambda, x, s).unwrap();
        assert_close(a, b, 1e-12, 1e-12, "wormhole single-server degeneracy");
    }
}
