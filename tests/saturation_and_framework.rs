//! Cross-crate checks of the throughput computation (Eq. 26) and the
//! general-framework instantiations.

use wormsim::model::framework;
use wormsim::model::hypercube as cube_model;
use wormsim::prelude::*;
use wormsim::sim::config::{SimConfig, TrafficConfig};
use wormsim::sim::router::{BftRouter, HypercubeRouter, MeshRouter};
use wormsim::sim::runner::{find_saturation, run_simulation};
use wormsim::topology::hypercube::Hypercube;
use wormsim::topology::mesh::Mesh;

#[test]
fn model_knee_is_near_simulated_stability_boundary() {
    let params = BftParams::paper(64).unwrap();
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let model = BftModel::new(params, 16.0);
    let knee = model.saturation_flit_load().unwrap();
    let cfg = SimConfig::quick().with_seed(31);
    let (base, one) = (TrafficConfig::new(0.0, 16).unwrap(), LaneConfig::single());
    let (start, step, max) = (knee * 0.6, knee * 0.08, knee * 2.5);
    let scan = find_saturation(&router, &cfg, &base, &one, start, step, max);
    let (stable, first_bad) = scan.unwrap();
    let bad = first_bad.expect("the tree must saturate");
    // The knee must be within 25% of the simulator's bracket.
    let lo = stable.min(bad) * 0.75;
    let hi = bad * 1.25;
    assert!(
        knee >= lo && knee <= hi,
        "model knee {knee:.4} outside [{lo:.4}, {hi:.4}] (sim bracket [{stable:.4}, {bad:.4}])"
    );
}

#[test]
fn framework_bft_equals_closed_form_cross_crate() {
    let params = BftParams::paper(256).unwrap();
    for lambda0 in [0.0, 0.001] {
        let closed = BftModel::new(params, 32.0)
            .latency_at_message_rate(lambda0)
            .unwrap();
        let spec = framework::bft_spec(&params, 32.0, lambda0);
        let generic = spec.latency(&ModelOptions::paper(), None).unwrap();
        assert!((closed.total - generic.total).abs() < 1e-9);
    }
}

#[test]
fn hypercube_framework_model_tracks_hypercube_simulation() {
    // The §2 framework instantiated on a genuinely different topology must
    // still track its simulator (the paper's "other networks" claim).
    let cube = Hypercube::new(6).unwrap();
    let router = HypercubeRouter::new(&cube);
    let cfg = SimConfig::quick().with_seed(37);
    for load in [0.02f64, 0.05] {
        let traffic = TrafficConfig::from_flit_load(load, 16).unwrap();
        let m = cube_model::hypercube_spec(6, 16.0, traffic.message_rate)
            .unwrap()
            .latency(&ModelOptions::paper(), None)
            .unwrap()
            .total;
        let r = run_simulation(&router, &cfg, &traffic);
        assert!(
            !r.saturated,
            "load {load} saturated the 6-cube unexpectedly"
        );
        let err = (m - r.avg_latency).abs() / r.avg_latency;
        assert!(
            err < 0.08,
            "load {load}: hypercube model {m:.2} vs sim {:.2} ({:.1}% off)",
            r.avg_latency,
            err * 100.0
        );
    }
}

#[test]
fn mesh_simulation_has_sane_zero_load_latency() {
    // No analytical mesh model (documented in DESIGN.md); validate the
    // mesh router against its exact zero-load latency instead.
    let mesh = Mesh::new(4, 2).unwrap();
    let router = MeshRouter::new(&mesh);
    let cfg = SimConfig::quick().with_seed(41);
    let r = run_simulation(&router, &cfg, &TrafficConfig::new(0.0002, 16).unwrap());
    assert!(!r.saturated);
    let expect = 16.0 + mesh.average_distance() - 1.0;
    assert!(
        (r.avg_latency - expect).abs() < 0.6,
        "mesh zero-load {} vs expected {expect}",
        r.avg_latency
    );
}

#[test]
fn pooled_up_links_beat_single_server_trees_in_simulation() {
    // The physical analogue of novelty 1: a (4,2) tree with M/G/2 bundles
    // sustains loads that saturate a (4,1) tree outright (same leaf count,
    // double the level-to-level bandwidth). Pick the discriminating load
    // from the two model knees.
    let p1 = BftParams::new(4, 1, 3).unwrap();
    let p2 = BftParams::new(4, 2, 3).unwrap();
    let knee1 = BftModel::new(p1, 16.0).saturation_flit_load().unwrap();
    let knee2 = BftModel::new(p2, 16.0).saturation_flit_load().unwrap();
    assert!(
        knee2 > 1.5 * knee1,
        "(4,2) capacity {knee2:.4} should far exceed (4,1) capacity {knee1:.4}"
    );
    let load = 1.35 * knee1; // past the (4,1) knee, well under the (4,2) one
    assert!(
        load < 0.8 * knee2,
        "chosen load must be comfortably stable for (4,2)"
    );
    let t1 = ButterflyFatTree::new(p1);
    let t2 = ButterflyFatTree::new(p2);
    let cfg = SimConfig::quick().with_seed(43);
    let r1 = run_simulation(
        &BftRouter::new(&t1),
        &cfg,
        &TrafficConfig::from_flit_load(load, 16).unwrap(),
    );
    let r2 = run_simulation(
        &BftRouter::new(&t2),
        &cfg,
        &TrafficConfig::from_flit_load(load, 16).unwrap(),
    );
    assert!(
        r1.saturated,
        "(4,1) tree should saturate at {load:.4} (knee {knee1:.4})"
    );
    assert!(
        !r2.saturated,
        "(4,2) tree should sustain {load:.4} (knee {knee2:.4})"
    );
}
