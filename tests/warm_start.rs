//! Warm-started model sweeps: correctness (same answers as cold solves),
//! economy (fewer fixed-point iterations), and non-regression of the
//! paper's closed-form Figure 2/3 numbers.

use wormsim::model::bft::BftModel;
use wormsim::model::framework::{ring_spec, WarmStart};
use wormsim::model::options::ModelOptions;
use wormsim::prelude::*;

#[test]
fn warm_sweep_matches_cold_to_1e9_and_cuts_iterations_by_30_percent() {
    // The acceptance sweep: 20 ascending loads on a cyclic framework spec
    // (the ring — tree class graphs are DAGs and never iterate). Warm
    // solves must agree with cold solves to 1e-9 per component and spend
    // ≥30% fewer total fixed-point iterations, strictly fewer on ≥80% of
    // interior points.
    // Up to ~95% of the ring-16 knee (λ₀ ≈ 0.0021).
    let loads: Vec<f64> = (1..=20).map(|i| 0.0001 * f64::from(i)).collect();
    let opts = ModelOptions::paper();
    let mut warm = WarmStart::new();
    let mut cold_total = 0usize;
    let mut strictly_lower = 0usize;
    let spec = ring_spec(16, 16.0).unwrap();
    for (pi, &lambda0) in loads.iter().enumerate() {
        let cold = spec
            .solve(lambda0, &opts, None, None)
            .expect("below the knee");
        let hot = spec
            .solve(lambda0, &opts, Some(&mut warm), None)
            .expect("below the knee");
        cold_total += cold.iterations;
        assert!(cold.iterations > 0, "ring must engage the fixed point");
        for (a, b) in cold.service_times.iter().zip(&hot.service_times) {
            assert!(
                (a - b).abs() < 1e-9 * (1.0 + a.abs()),
                "λ0={lambda0}: cold {a} vs warm {b}"
            );
        }
        if pi > 0 && hot.iterations < cold.iterations {
            strictly_lower += 1;
        }
    }
    let interior = loads.len() - 1;
    assert!(
        strictly_lower as f64 >= 0.8 * interior as f64,
        "warm start strictly lower on only {strictly_lower}/{interior} interior points"
    );
    assert!(
        (warm.total_iterations() as f64) <= 0.7 * cold_total as f64,
        "iteration reduction below 30%: warm {} vs cold {cold_total}",
        warm.total_iterations()
    );
    // Iteration counts are exact integers, the same on every machine.
    assert_eq!(cold_total, 10_865, "cold iterations moved");
    assert_eq!(warm.total_iterations(), 602, "warm iterations moved");
}

#[test]
fn figure_2_3_closed_form_numbers_are_unchanged() {
    // Pinned reference latencies from the §3 model (the generator of the
    // Figure 2/3 curves), captured before the warm-starting machinery
    // landed. The solver rework must not move them: warm starting only
    // changes *how* cyclic fixed points iterate, never the equations, and
    // the tree's class graph is a DAG that never iterates.
    let reference = [
        (1024usize, 16.0f64, 0.01f64, 25.814_671_985_116),
        (1024, 32.0, 0.02, 48.138_340_154_403),
        (1024, 64.0, 0.03, 109.642_937_796_999),
        (64, 16.0, 0.05, 22.658_746_368_357),
        (256, 32.0, 0.02, 41.433_925_061_880),
    ];
    for (n, s, load, expect) in reference {
        let model = BftModel::new(BftParams::paper(n).unwrap(), s);
        let got = model.latency_at_flit_load(load).unwrap().total;
        assert!(
            (got - expect).abs() < 1e-9,
            "N={n} s={s} load={load}: {got} vs pinned {expect}"
        );
    }
    let sat = BftModel::new(BftParams::paper(1024).unwrap(), 32.0)
        .saturation_flit_load()
        .unwrap();
    assert!(
        (sat - 0.039_092_332_047).abs() < 1e-9,
        "1024/32-flit saturation moved: {sat}"
    );
}

#[test]
fn warm_start_across_a_saturation_bracket_is_safe() {
    // Sweeping *into* saturation: failed points must not poison the warm
    // state, and post-failure points must still match cold solves.
    let opts = ModelOptions::paper();
    let mut warm = WarmStart::new();
    let mut failures = 0;
    let spec = ring_spec(12, 16.0).unwrap();
    for i in 1..=12 {
        let lambda0 = 0.0004 * f64::from(i); // crosses the ring-12 knee ≈ 0.0029
        match (
            spec.solve(lambda0, &opts, None, None),
            spec.solve(lambda0, &opts, Some(&mut warm), None),
        ) {
            (Ok(cold), Ok(hot)) => {
                for (a, b) in cold.service_times.iter().zip(&hot.service_times) {
                    assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()));
                }
            }
            (Err(_), Err(_)) => failures += 1,
            other => panic!("λ0={lambda0}: cold/warm disagree on feasibility: {other:?}"),
        }
    }
    assert!(failures > 0, "the sweep must actually cross the knee");
}
