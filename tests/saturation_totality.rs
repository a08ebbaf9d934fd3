//! Solver totality over the load axis, property-tested.
//!
//! The guard layer's contract: solving any (topology × lanes ×
//! fault-plan) fabric at loads from 0 to 2× its bracketed knee never
//! panics and never returns NaN — every point comes back as a *typed*
//! outcome, `Converged` below the knee and `Saturated` past it. And
//! `Saturated` is not a solver artifact: at a saturated load the
//! simulator's delivered throughput has genuinely flattened (the run
//! trips the saturation detector or delivers materially less than
//! offered).
//!
//! Fabrics drawn: the paper's butterfly fat-tree (pristine and under a
//! seeded connected link knockout), a 2-D mesh, and a hypercube — each
//! priced at an arbitrary lane count.

use proptest::prelude::*;
use wormsim_core::flows::FlowModelSweep;
use wormsim_core::options::ModelOptions;
use wormsim_faults::{link_faults, FaultedBft};
use wormsim_guard::{KneeConfig, SolveOutcome};
use wormsim_sim::config::{LaneAllocatorKind, LaneConfig, TrafficConfig};
use wormsim_sim::router::{BftRouter, FaultedBftRouter, HypercubeRouter, MeshRouter};
use wormsim_sim::runner::run_simulation_with_lanes;
use wormsim_testutil::quick_sim_config;
use wormsim_topology::bft::{BftParams, ButterflyFatTree};
use wormsim_topology::graph::ChannelNetwork;
use wormsim_topology::hypercube::Hypercube;
use wormsim_topology::mesh::Mesh;
use wormsim_workload::{DestinationPattern, FlowVector};

const S: u32 = 16;

/// λ₀ bracket wide enough for every fabric in the draw: feasible floor
/// far below any knee, ceiling far past the densest network's capacity.
fn knee_cfg() -> KneeConfig {
    KneeConfig {
        initial: 1e-5,
        max: 0.25,
        rel_tolerance: 5e-3,
        max_probes: 200,
    }
}

/// Sweeps typed outcomes over [0, 2× knee] and validates the taxonomy;
/// returns the bracketed knee as a flit load for the sim cross-check.
fn assert_total_over_twice_the_knee(
    net: &ChannelNetwork,
    flows: &FlowVector,
    alive: Option<&[u32]>,
    opts: &ModelOptions,
    label: &str,
) -> f64 {
    let mut sweep = FlowModelSweep::new_with_servers(net, flows, f64::from(S), alive)
        .unwrap_or_else(|e| panic!("{label}: sweep build failed: {e}"));
    let knee = sweep
        .find_knee(opts, &knee_cfg())
        .unwrap_or_else(|e| panic!("{label}: knee bracketing failed: {e}"));
    assert!(
        knee.knee > 0.0 && knee.knee.is_finite(),
        "{label}: implausible knee {}",
        knee.knee
    );
    for i in 0..=8 {
        let lambda0 = 0.25 * f64::from(i) * knee.knee;
        let outcome = sweep
            .outcome_at(lambda0, opts)
            .unwrap_or_else(|e| panic!("{label}: hard error at λ₀={lambda0}: {e}"));
        match outcome {
            SolveOutcome::Converged(l) => {
                assert!(
                    l.total.is_finite() && l.total > 0.0,
                    "{label}: non-finite latency {} at λ₀={lambda0}",
                    l.total
                );
                // The bisection gap is [knee, first_infeasible]; beyond
                // it convergence would mean the bracket was wrong.
                assert!(
                    lambda0 <= knee.first_infeasible * (1.0 + 1e-9),
                    "{label}: converged at λ₀={lambda0} past first infeasible {}",
                    knee.first_infeasible
                );
            }
            SolveOutcome::Saturated => {
                // Saturation strictly below the proven-feasible knee
                // would contradict the bracket.
                assert!(
                    lambda0 >= knee.knee * (1.0 - 1e-9),
                    "{label}: saturated at λ₀={lambda0} below proven knee {}",
                    knee.knee
                );
            }
            SolveOutcome::NoConvergence {
                iterations,
                residual,
            } => panic!(
                "{label}: untyped non-convergence at λ₀={lambda0} \
                 ({iterations} iterations, residual {residual})"
            ),
        }
    }
    knee.knee * f64::from(S)
}

/// At a load tagged `Saturated` by the model, the simulator's delivered
/// throughput must have flattened: the saturation detector trips, or the
/// fabric delivers materially less than offered.
fn assert_sim_throughput_flattened<R: wormsim_sim::router::Router>(
    router: &R,
    lanes: u32,
    knee_flit_load: f64,
    seed: u64,
    label: &str,
) {
    let past_knee = (2.0 * knee_flit_load).min(0.9);
    assert!(
        past_knee > 1.2 * knee_flit_load,
        "{label}: knee {knee_flit_load} leaves no past-knee headroom"
    );
    let traffic = TrafficConfig::from_flit_load(past_knee, S).expect("valid probe load");
    let lc = LaneConfig::new(lanes, LaneAllocatorKind::FirstFree).expect("valid lanes");
    let r = run_simulation_with_lanes(router, &quick_sim_config(seed), &traffic, &lc);
    assert!(
        r.saturated || r.delivered_flit_load < 0.9 * past_knee,
        "{label}: model says saturated at {past_knee:.4} but the sim delivered \
         {:.4} of it without tripping the detector",
        r.delivered_flit_load
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// BFT-16 under an arbitrary *connected* link knockout, arbitrary
    /// lane count: typed outcomes to 2× the degraded knee, sim agrees
    /// the past-knee regime is saturated.
    #[test]
    fn bft_with_faults_is_total(
        lanes in 1u32..=4,
        fraction in 0.0f64..0.10,
        seed in any::<u64>(),
    ) {
        let tree = ButterflyFatTree::new(BftParams::paper(16).unwrap());
        // First connected plan scanning from the drawn seed (mirrors the
        // experiments' connected_plan; disconnecting seeds are skipped so
        // the model's flow vector stays well-defined).
        let mut picked = None;
        for offset in 0..64u64 {
            let plan = link_faults(tree.network(), fraction, seed.wrapping_add(offset)).unwrap();
            if FaultedBft::new(&tree, plan.clone()).unwrap().fully_connected() {
                picked = Some(plan);
                break;
            }
        }
        let plan = picked.expect("a connected ≤10% knockout within 64 seeds");
        let bft = FaultedBft::new(&tree, plan.clone()).unwrap();
        let flows = FlowVector::build(&bft, &DestinationPattern::Uniform).unwrap();
        let alive = plan.alive_servers(tree.network());
        let opts = ModelOptions::paper().with_lanes(lanes);
        let label = format!("bft16 f={fraction:.3} L={lanes}");
        let knee_flit = assert_total_over_twice_the_knee(
            tree.network(), &flows, Some(&alive), &opts, &label,
        );
        let router = FaultedBftRouter::new(&tree, plan).unwrap();
        assert_sim_throughput_flattened(&router, lanes, knee_flit, seed, &label);
    }

    /// Pristine fabrics across all three supported topologies at an
    /// arbitrary lane count: same totality and flattening contract.
    #[test]
    fn pristine_topologies_are_total(
        topo in 0usize..3,
        lanes in 1u32..=4,
        seed in any::<u64>(),
    ) {
        match topo {
            0 => {
                let tree = ButterflyFatTree::new(BftParams::paper(16).unwrap());
                let flows = FlowVector::build(&tree, &DestinationPattern::Uniform).unwrap();
                let opts = ModelOptions::paper().with_lanes(lanes);
                let label = format!("bft16 pristine L={lanes}");
                let knee_flit = assert_total_over_twice_the_knee(
                    tree.network(), &flows, None, &opts, &label,
                );
                let router = BftRouter::new(&tree);
                assert_sim_throughput_flattened(&router, lanes, knee_flit, seed, &label);
            }
            1 => {
                let mesh = Mesh::new(3, 2).unwrap();
                let flows = FlowVector::build(&mesh, &DestinationPattern::Uniform).unwrap();
                let opts = ModelOptions::paper().with_lanes(lanes);
                let label = format!("mesh3x3 L={lanes}");
                let knee_flit = assert_total_over_twice_the_knee(
                    mesh.network(), &flows, None, &opts, &label,
                );
                let router = MeshRouter::new(&mesh);
                assert_sim_throughput_flattened(&router, lanes, knee_flit, seed, &label);
            }
            _ => {
                let cube = Hypercube::new(3).unwrap();
                let flows = FlowVector::build(&cube, &DestinationPattern::Uniform).unwrap();
                let opts = ModelOptions::paper().with_lanes(lanes);
                let label = format!("hypercube3 L={lanes}");
                let knee_flit = assert_total_over_twice_the_knee(
                    cube.network(), &flows, None, &opts, &label,
                );
                let router = HypercubeRouter::new(&cube);
                assert_sim_throughput_flattened(&router, lanes, knee_flit, seed, &label);
            }
        }
    }
}
