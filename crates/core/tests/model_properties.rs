//! Property-based tests of the analytical model across random topologies
//! and operating points.

use proptest::prelude::*;
use wormsim_core::bft::BftModel;
use wormsim_core::options::ModelOptions;
use wormsim_topology::bft::BftParams;

fn params() -> impl Strategy<Value = BftParams> {
    (2usize..=4, 1usize..=3, 1u32..=4)
        .prop_filter_map("valid", |(c, p, n)| BftParams::new(c, p, n).ok())
}

fn options() -> impl Strategy<Value = ModelOptions> {
    (any::<bool>(), any::<bool>(), 1u32..=4).prop_map(|(ms, bc, lanes)| ModelOptions {
        multi_server_up: ms,
        blocking_correction: bc,
        lanes,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn zero_load_latency_is_s_plus_d_minus_one(
        p in params(),
        s in 1.0f64..128.0,
        opts in options(),
    ) {
        let model = BftModel::with_options(p, s, opts);
        let lat = model.latency_at_message_rate(0.0).unwrap();
        let expect = s + p.average_distance() - 1.0;
        prop_assert!((lat.total - expect).abs() < 1e-9,
            "{p:?} s={s}: {} vs {expect}", lat.total);
        prop_assert_eq!(lat.w_injection, 0.0);
    }

    #[test]
    fn latency_is_monotone_in_load(
        p in params(),
        s in 2.0f64..64.0,
        opts in options(),
    ) {
        let model = BftModel::with_options(p, s, opts);
        // Probe a geometric ladder of rates; once it saturates it must stay
        // saturated, and latencies must be non-decreasing before that.
        let mut prev = 0.0f64;
        let mut saturated = false;
        let mut rate = 1e-5;
        for _ in 0..14 {
            match model.latency_at_message_rate(rate) {
                Ok(l) => {
                    prop_assert!(!saturated, "resolved after saturation at rate {rate}");
                    prop_assert!(l.total >= prev - 1e-9,
                        "latency decreased: {} -> {} at rate {rate}", prev, l.total);
                    prev = l.total;
                }
                Err(e) => {
                    prop_assert!(e.is_saturation() , "unexpected error kind: {e}");
                    saturated = true;
                }
            }
            rate *= 2.0;
        }
    }

    #[test]
    fn saturation_rate_decreases_with_worm_length(
        p in params(),
        s in 2.0f64..64.0,
    ) {
        let m1 = BftModel::new(p, s);
        let m2 = BftModel::new(p, s * 2.0);
        let (Ok(s1), Ok(s2)) = (m1.saturation(), m2.saturation()) else { return Ok(()); };
        prop_assert!(s2.message_rate <= s1.message_rate * (1.0 + 1e-9),
            "longer worms must not raise the message-rate knee: {} vs {}",
            s2.message_rate, s1.message_rate);
    }

    #[test]
    fn more_parents_never_lower_capacity(
        c in 2usize..=4,
        n in 2u32..=4,
        s in 4.0f64..48.0,
    ) {
        let Ok(p1) = BftParams::new(c, 1, n) else { return Ok(()); };
        let Ok(p2) = BftParams::new(c, 2, n) else { return Ok(()); };
        let k1 = BftModel::new(p1, s).saturation().unwrap().flit_load;
        let k2 = BftModel::new(p2, s).saturation().unwrap().flit_load;
        prop_assert!(k2 >= k1 * 0.999,
            "p=2 capacity {k2} must be at least p=1 capacity {k1}");
    }

    #[test]
    fn audit_is_internally_consistent(
        p in params(),
        s in 2.0f64..64.0,
        rate_scale in 0.0f64..0.7,
    ) {
        let model = BftModel::new(p, s);
        let Ok(sat) = model.saturation() else { return Ok(()); };
        let lambda0 = sat.message_rate * rate_scale;
        let Ok(audit) = model.audit_at_message_rate(lambda0) else { return Ok(()); };
        // Ejection service is exactly s (Eq. 16); everything else at least s.
        prop_assert_eq!(audit.x_down[1], s);
        for l in 1..=p.levels() as usize {
            prop_assert!(audit.x_down[l] >= s - 1e-12);
            prop_assert!(audit.w_down[l] >= 0.0);
        }
        for l in 0..p.levels() as usize {
            prop_assert!(audit.x_up[l] >= s - 1e-12);
            prop_assert!(audit.w_up[l] >= 0.0);
        }
        // Rates follow Eq. 14's closed form.
        for l in 1..p.levels() {
            let expect = lambda0 * p.p_up(l)
                * (p.children() as f64 / p.parents() as f64).powi(l as i32);
            prop_assert!((audit.lambda_up[l as usize] - expect).abs() < 1e-12);
        }
    }
}
