//! Flow-accounting validity: the simulator's measured per-class arrival
//! rates must match Eqs. 14/15 (exact flow conservation, so only
//! Monte-Carlo noise is allowed), and every distance representation —
//! closed form, BFS on the channel graph, simulated zero-load latency —
//! must agree.

use wormsim::prelude::*;
use wormsim::sim::config::{SimConfig, TrafficConfig};
use wormsim::sim::router::BftRouter;
use wormsim::sim::runner::run_simulation;
use wormsim::topology::distance;

#[test]
fn simulated_channel_rates_match_eq14() {
    let params = BftParams::paper(64).unwrap();
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let model = BftModel::new(params, 16.0);
    let traffic = TrafficConfig::from_flit_load(0.04, 16).unwrap();
    let cfg = SimConfig {
        warmup_cycles: 3_000,
        measure_cycles: 40_000,
        drain_cap_cycles: 80_000,
        seed: 5,
        batches: 8,
    };
    let r = run_simulation(&router, &cfg, &traffic);
    assert!(!r.saturated);

    // Injection and ejection carry λ0 per channel.
    let l0 = traffic.message_rate;
    let inj = r.class(ChannelClass::Injection).unwrap();
    let ej = r.class(ChannelClass::Ejection).unwrap();
    assert!(
        (inj.lambda - l0).abs() / l0 < 0.05,
        "inject λ {} vs {l0}",
        inj.lambda
    );
    assert!(
        (ej.lambda - l0).abs() / l0 < 0.05,
        "eject λ {} vs {l0}",
        ej.lambda
    );

    // Up/down rates per level (Eq. 14/15), as the model's audit reads them.
    let audit = model.audit_at_message_rate(l0).unwrap();
    for l in 1..params.levels() {
        let expect = audit.lambda_up[l as usize];
        let up = r.class(ChannelClass::Up { from: l }).unwrap();
        let down = r.class(ChannelClass::Down { from: l + 1 }).unwrap();
        assert!(
            (up.lambda - expect).abs() / expect < 0.06,
            "level {l} up λ {} vs Eq.14 {expect}",
            up.lambda
        );
        assert!(
            (down.lambda - expect).abs() / expect < 0.06,
            "level {l} down λ {} vs Eq.15 {expect}",
            down.lambda
        );
    }
}

#[test]
fn ejection_service_time_is_exactly_s() {
    // Eq. 16: the ejection channel's service time is deterministic (one
    // flit per cycle into a non-blocking sink).
    let params = BftParams::paper(16).unwrap();
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let cfg = SimConfig::quick().with_seed(9);
    let r = run_simulation(&router, &cfg, &TrafficConfig::new(0.004, 16).unwrap());
    assert!(!r.saturated);
    let ej = r.class(ChannelClass::Ejection).unwrap();
    assert!(
        (ej.mean_service - 16.0).abs() < 1e-9,
        "ejection hold must be exactly s: {}",
        ej.mean_service
    );
}

#[test]
fn three_distance_representations_agree() {
    for n in [16usize, 64] {
        let params = BftParams::paper(n).unwrap();
        let tree = ButterflyFatTree::new(params);
        // Closed form vs BFS over the constructed graph.
        let bfs = distance::average_processor_distance(tree.network());
        assert!(
            (bfs - params.average_distance()).abs() < 1e-12,
            "N={n}: BFS {bfs} vs closed {}",
            params.average_distance()
        );
        // Simulated zero-load latency − (s − 1) estimates D̄.
        let router = BftRouter::new(&tree);
        let cfg = SimConfig::quick().with_seed(13);
        let r = run_simulation(&router, &cfg, &TrafficConfig::new(0.0002, 16).unwrap());
        let d_hat = r.avg_latency - 15.0;
        assert!(
            (d_hat - params.average_distance()).abs() < 0.35,
            "N={n}: simulated D̄ {d_hat} vs closed {}",
            params.average_distance()
        );
    }
}

#[test]
fn hypercube_and_mesh_distances_agree_with_bfs() {
    use wormsim::topology::hypercube::Hypercube;
    use wormsim::topology::mesh::Mesh;
    let cube = Hypercube::new(4).unwrap();
    let bfs = distance::average_processor_distance(cube.network());
    assert!((bfs - cube.average_distance()).abs() < 1e-12);
    let mesh = Mesh::new(3, 2).unwrap();
    let bfs = distance::average_processor_distance(mesh.network());
    assert!((bfs - mesh.average_distance()).abs() < 1e-12);
}
