//! Cross-crate checks of the throughput computation (Eq. 26) and the
//! general-framework instantiations.

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
fn hypercube_framework_model_tracks_hypercube_simulation() {
    // The §2 framework instantiated on a genuinely different topology must
    // still track its simulator (the paper's "other networks" claim).
    let cube = Hypercube::new(6).unwrap();
    let router = HypercubeRouter::new(&cube);
    let cfg = SimConfig::quick().with_seed(37);
    let model = cube_model::hypercube_spec(6, 16.0).unwrap();
    for load in [0.02f64, 0.05] {
        let traffic = TrafficConfig::from_flit_load(load, 16).unwrap();
        let m = model
            .latency(traffic.message_rate, &ModelOptions::paper(), None)
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
    // The mesh's analytical model is the flow-built per-station one
    // (`enumerated-mesh`, `flows::tests`); here the mesh router is checked
    // against its exact zero-load latency.
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

/// Fingerprints of `ablated_models_are_pinned_to_the_bit`: rows bft64,
/// bft1024, bft(4,4,3), bft(4,1,3), the bft64 hot-spot flow model and the
/// 6-cube knee; columns paper, A1, A2 and prior art.
#[rustfmt::skip]
const ABLATION_PINS: [[u64; 4]; 6] = [
    [0x42e4e8d6c13892bb, 0x219b55747150994e, 0x1fa0796e919a8b1a, 0xcc53f8a892656834],
    [0xa6ed50af9ecc7b7f, 0x9c391f56a3e111a4, 0x2887410a39e25cf7, 0x143e43000b747e0d],
    [0x1b742f7bacf4698f, 0xa38dbb7343166090, 0x2b4118b435aed195, 0x3442267b575c84a2],
    [0x1b235dd05d5b1385, 0x1b235dd05d5b1385, 0x4f8b7bf9e155700e, 0x4f8b7bf9e155700e],
    [0xf66b5b2582481414, 0x3653c18cfde07652, 0x243e7bccdfaa067d, 0xeb226ee956daa541],
    [0x13debf223187c661, 0x13debf223187c661, 0x9e51a38d34aab88d, 0x9e51a38d34aab88d],
];

/// Folds one model answer into an FNV-1a 64 hash: the little-endian bits
/// of each number, or the error's message.
fn fold(hash: &mut u64, answer: Result<Vec<f64>, ModelError>) {
    let bytes: Vec<u8> = match answer {
        Ok(values) => values
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect(),
        Err(e) => e.to_string().into_bytes(),
    };
    for byte in bytes {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01B3);
    }
}

#[test]
fn ablated_models_are_pinned_to_the_bit() {
    // The benchmark digests pin only the paper's options; these pin the
    // A1, A2 and prior-art branches of both models (every station wait,
    // Eq. 10 factor and Eq. 25 sum they take) at one and two lanes. Each
    // (model, option set) folds both lane counts into one fingerprint.
    const S: f64 = 16.0;
    let option_sets = [
        ModelOptions::paper(),
        ModelOptions::single_server_up(),
        ModelOptions::no_blocking_correction(),
        ModelOptions::prior_art(),
    ];
    let trees = [
        BftParams::paper(64).unwrap(),
        BftParams::paper(1024).unwrap(),
        BftParams::new(4, 4, 3).unwrap(),
        BftParams::new(4, 1, 3).unwrap(),
    ];
    let tree64 = ButterflyFatTree::new(trees[0]);
    let hot = DestinationPattern::HotSpot {
        fraction: 0.125,
        target: 21,
    };
    let hot_flows = FlowVector::build(&tree64, &hot).unwrap();
    let breakdown =
        |b: LatencyBreakdown| vec![b.w_injection, b.x_injection, b.avg_distance, b.total];
    let knee = |k: SaturationPoint| vec![k.message_rate, k.flit_load];
    let mut got = [[0xCBF2_9CE4_8422_2325u64; 4]; 6];
    for (c, base) in option_sets.iter().enumerate() {
        for lanes in [1, 2] {
            let options = base.with_lanes(lanes);
            for (row, &params) in got.iter_mut().zip(&trees) {
                let model = BftModel::with_options(params, S, options);
                for load in [0.01, 0.02, 0.03] {
                    fold(&mut row[c], model.latency_at_flit_load(load).map(breakdown));
                }
                fold(&mut row[c], model.saturation().map(knee));
            }
            let mut sweep = FlowModelSweep::new(tree64.network(), &hot_flows, S).unwrap();
            for lambda0 in [0.0005, 0.001, 0.002] {
                fold(
                    &mut got[4][c],
                    sweep.latency_at(lambda0, &options).map(breakdown),
                );
            }
            fold(
                &mut got[5][c],
                cube_model::saturation(6, S, &options).map(knee),
            );
        }
    }
    // The one saturated point of the grid: prior art runs out of capacity
    // at flit load 0.03 on the 1024-node tree.
    let prior = BftModel::with_options(trees[1], S, ModelOptions::prior_art());
    let err = prior.latency_at_flit_load(0.03).unwrap_err();
    assert!(err.is_saturation(), "prior art at 0.03: {err}");
    assert!(got == ABLATION_PINS, "fingerprints moved: {got:#x?}");
}

/// Fingerprints of `section_3_is_pinned_to_the_bit`: the Figure 3 grid,
/// the channel audits and the Eq. 26 knees.
const SECTION_3_PINS: [u64; 3] = [0xc9bd1be6c984f1ec, 0x1425cbbe8deed920, 0xa02d35bea31f45bd];

#[test]
fn section_3_is_pinned_to_the_bit() {
    // The butterfly fat-tree model's every public answer, saturated points
    // (as error text) and the per-level audit included.
    let option_sets = [
        ModelOptions::paper(),
        ModelOptions::single_server_up(),
        ModelOptions::no_blocking_correction(),
        ModelOptions::prior_art(),
    ];
    let breakdown =
        |b: LatencyBreakdown| vec![b.w_injection, b.x_injection, b.avg_distance, b.total];
    let mut got = [0xCBF2_9CE4_8422_2325u64; 3];
    // Figure 3 at N = 1024: the 83 dense loads `repro fig3` plots, then
    // the 16 simulated ones.
    let tree1024 = BftParams::paper(1024).unwrap();
    let dense = (1..=83).map(|k| 0.0005 * f64::from(k));
    let simulated = (1..=16).map(|i| 0.0025 * f64::from(i));
    let loads: Vec<f64> = dense.chain(simulated).collect();
    for s in [16.0, 32.0, 64.0] {
        let model = BftModel::new(tree1024, s);
        for &load in &loads {
            fold(&mut got[0], model.latency_at_flit_load(load).map(breakdown));
        }
    }
    for n in [16, 64, 256, 1024] {
        let params = BftParams::paper(n).unwrap();
        for options in option_sets {
            // Every audit field, and the refusal at two lanes.
            for s in [16.0, 64.0] {
                for lanes in [1, 2] {
                    let model = BftModel::with_options(params, s, options.with_lanes(lanes));
                    for load in [0.01, 0.02, 0.03] {
                        let audit = model.audit_at_message_rate(load / s).map(|a| {
                            [
                                a.lambda_down,
                                a.x_down,
                                a.w_down,
                                a.lambda_up,
                                a.x_up,
                                a.w_up,
                            ]
                            .concat()
                        });
                        fold(&mut got[1], audit);
                    }
                }
            }
            for s in [16.0, 32.0, 64.0] {
                let knee = BftModel::with_options(params, s, options).saturation();
                fold(
                    &mut got[2],
                    knee.map(|k| vec![k.message_rate, k.flit_load, k.worm_flits]),
                );
            }
        }
    }
    assert!(got == SECTION_3_PINS, "fingerprints moved: {got:#x?}");
}
