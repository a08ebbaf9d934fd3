//! The virtual-channel subsystem's non-negotiable regression guarantees.
//!
//! 1. **`L = 1` simulation is the pre-lanes engine, bit for bit.** The
//!    pinned tuples below were captured from the engine *before* the lane
//!    machinery existed (same seeds, same configs); the lane engine at
//!    `LaneConfig::single()` — which is also the default path every
//!    existing test and figure runs through — must reproduce every one of
//!    them exactly, including the RNG-sensitive percentiles and the
//!    fast-forward cycle accounting.
//! 2. **`L = 1` model is the closed-form model.** Solving the framework
//!    spec with `ModelOptions::paper().with_lanes(1)` must match the
//!    hand-derived §3 recurrences to floating-point rounding.
//! 3. **`L ∈ {2, 4}` model tracks the simulator** within the shared
//!    tolerance band at low-to-moderate load on uniform traffic.
//! 4. **Fast-forwarding stays bit-exact with lanes**: the multi-lane
//!    engine's idle-span skip must be observationally invisible too.
//! 5. **Multi-lane simulation is pinned to the bit** at `L ∈ {2, 4}`,
//!    on a pristine and on a link-faulted tree.

use wormsim::faults::link_faults;
use wormsim::model::bft::BftModel;
use wormsim::model::framework::bft_spec;
use wormsim::model::options::ModelOptions;
use wormsim::prelude::*;
use wormsim::sim::config::{ArrivalProcess, LaneConfig, MmppProfile};
use wormsim::sim::engine::Engine;
use wormsim::sim::router::{BftRouter, HypercubeRouter, MeshRouter};
use wormsim::sim::runner::run_simulation_with_lanes;
use wormsim::topology::hypercube::Hypercube;
use wormsim::topology::mesh::Mesh;
use wormsim_testutil::{
    assert_lane_model_close, assert_sim_results_identical, lane_config, lane_sweep_configs,
    run_on_engine, validation_sim_config,
};

fn pin_cfg(seed: u64) -> SimConfig {
    SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: 8_000,
        drain_cap_cycles: 30_000,
        seed,
        batches: 8,
    }
}

/// `(avg_latency, p99, injection_wait_mean)` bit patterns plus message and
/// cycle counters, captured from the pre-lanes engine (PR 3 state).
struct Pin {
    tag: &'static str,
    avg_latency: u64,
    p99: u64,
    injection_wait: u64,
    measured: u64,
    completed: u64,
    cycles_run: u64,
    cycles_skipped: u64,
}

fn check(pin: &Pin, r: &SimResult) {
    assert_eq!(
        r.avg_latency.to_bits(),
        pin.avg_latency,
        "{}: avg_latency {} drifted from the pre-lanes engine",
        pin.tag,
        r.avg_latency
    );
    assert_eq!(r.latency_p99.to_bits(), pin.p99, "{}: p99", pin.tag);
    assert_eq!(
        r.injection_wait_mean.to_bits(),
        pin.injection_wait,
        "{}: injection wait",
        pin.tag
    );
    assert_eq!(r.messages_measured, pin.measured, "{}: measured", pin.tag);
    assert_eq!(
        r.messages_completed, pin.completed,
        "{}: completed",
        pin.tag
    );
    assert_eq!(r.cycles_run, pin.cycles_run, "{}: cycles_run", pin.tag);
    assert_eq!(
        r.cycles_skipped, pin.cycles_skipped,
        "{}: cycles_skipped",
        pin.tag
    );
    assert_eq!(r.lanes, 1, "{}: single-lane run", pin.tag);
}

#[test]
fn single_lane_engine_reproduces_the_pre_lanes_engine_bit_for_bit() {
    let pins = [
        Pin {
            tag: "bft64_uniform",
            avg_latency: 0x4036045979c9520c,
            p99: 0x4045800000000000,
            injection_wait: 0x3fd392a409f11662,
            measured: 1236,
            completed: 1236,
            cycles_run: 9015,
            cycles_skipped: 252,
        },
        Pin {
            tag: "bft64_hotspot",
            avg_latency: 0x40354810c268bf10,
            p99: 0x4041800000000000,
            injection_wait: 0x3fc487c05071f6d0,
            measured: 611,
            completed: 611,
            cycles_run: 9017,
            cycles_skipped: 1427,
        },
        Pin {
            tag: "bft64_mmpp",
            avg_latency: 0x4036621fef8460d5,
            p99: 0x4048000000000000,
            injection_wait: 0x3ff2b86704a2c4c2,
            measured: 994,
            completed: 994,
            cycles_run: 9000,
            cycles_skipped: 455,
        },
        Pin {
            tag: "cube4_uniform",
            avg_latency: 0x4033faba49cff69e,
            p99: 0x4041000000000000,
            injection_wait: 0x3fd45b630095f7cc,
            measured: 437,
            completed: 437,
            cycles_run: 9018,
            cycles_skipped: 2776,
        },
        Pin {
            tag: "mesh4x4_uniform",
            avg_latency: 0x4028400000000007,
            p99: 0x4034000000000000,
            injection_wait: 0x3fd16343eb1a1f55,
            measured: 784,
            completed: 784,
            cycles_run: 9009,
            cycles_skipped: 2522,
        },
    ];

    let single = LaneConfig::single();
    let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
    let router = BftRouter::new(&tree);
    let t_uni = TrafficConfig::from_flit_load(0.04, 16).unwrap();
    check(
        &pins[0],
        &run_simulation_with_lanes(&router, &pin_cfg(7), &t_uni, &single),
    );
    let t_hot = TrafficConfig::from_flit_load(0.02, 16)
        .unwrap()
        .with_pattern(DestinationPattern::hot_spot());
    check(
        &pins[1],
        &run_simulation_with_lanes(&router, &pin_cfg(11), &t_hot, &single),
    );
    let t_mmpp = TrafficConfig::from_flit_load(0.03, 16)
        .unwrap()
        .with_arrival(ArrivalProcess::Mmpp(MmppProfile::default_bursty()));
    check(
        &pins[2],
        &run_simulation_with_lanes(&router, &pin_cfg(13), &t_mmpp, &single),
    );
    let cube = Hypercube::new(4).unwrap();
    let rc = HypercubeRouter::new(&cube);
    let tc = TrafficConfig::from_flit_load(0.05, 16).unwrap();
    check(
        &pins[3],
        &run_simulation_with_lanes(&rc, &pin_cfg(19), &tc, &single),
    );
    let mesh = Mesh::new(4, 2).unwrap();
    let rm = MeshRouter::new(&mesh);
    let tm = TrafficConfig::from_flit_load(0.05, 8).unwrap();
    check(
        &pins[4],
        &run_simulation_with_lanes(&rm, &pin_cfg(23), &tm, &single),
    );
}

/// A multi-lane run's pinned outcome: `(avg_latency, p99)` bit patterns,
/// the measured (= completed) message count, the cycle counters, and per
/// lane index its grants and `mean_hold` bit pattern.
struct LanePin {
    tag: &'static str,
    avg_latency: u64,
    p99: u64,
    messages: u64,
    cycles_run: u64,
    cycles_skipped: u64,
    lanes: &'static [(u64, u64)],
}

fn check_lanes(pin: &LanePin, r: &SimResult) {
    let tag = pin.tag;
    assert_eq!(
        r.avg_latency.to_bits(),
        pin.avg_latency,
        "{tag}: avg_latency {}",
        r.avg_latency
    );
    assert_eq!(r.latency_p99.to_bits(), pin.p99, "{tag}: p99");
    assert_eq!(r.messages_measured, pin.messages, "{tag}: measured");
    assert_eq!(r.messages_completed, pin.messages, "{tag}: completed");
    assert_eq!(r.cycles_run, pin.cycles_run, "{tag}: cycles_run");
    assert_eq!(
        r.cycles_skipped, pin.cycles_skipped,
        "{tag}: cycles_skipped"
    );
    assert_eq!(r.lane_stats.len(), pin.lanes.len(), "{tag}: lane count");
    for (l, &(grants, hold)) in r.lane_stats.iter().zip(pin.lanes) {
        assert_eq!(l.grants, grants, "{tag}: lane {} grants", l.lane);
        assert_eq!(l.mean_hold.to_bits(), hold, "{tag}: lane {} hold", l.lane);
    }
}

#[test]
fn multi_lane_runs_are_pinned_to_the_bit() {
    // The L = 1 pins above never exercise lane choice; these two runs
    // hold the first-free allocator, span arbitration and the per-lane
    // audit still at L = 4 on a pristine tree and at L = 2 on a
    // link-faulted one under hot-spot traffic.
    let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
    let uniform = TrafficConfig::from_flit_load(0.14, 16).unwrap();
    let a = run_simulation_with_lanes(
        &BftRouter::new(&tree),
        &pin_cfg(43),
        &uniform,
        &lane_config(4),
    );
    check_lanes(
        &LanePin {
            tag: "bft64 L=4 uniform",
            avg_latency: 0x4042f7f32a66376d,
            p99: 0x405a800000000000,
            messages: 4468,
            cycles_run: 9036,
            cycles_skipped: 1,
            lanes: &[
                (17946, 0x403a39046c125f93),
                (4949, 0x40421f37b5ed1154),
                (1221, 0x40479a6aedc25bd5),
                (308, 0x404b29f959c427e5),
            ],
        },
        &a,
    );
    let faulted =
        FaultedBftRouter::new(&tree, link_faults(tree.network(), 0.05, 1).unwrap()).unwrap();
    let hot = TrafficConfig::from_flit_load(0.08, 16)
        .unwrap()
        .with_pattern(DestinationPattern::HotSpot {
            fraction: 0.125,
            target: 21,
        });
    let b = run_simulation_with_lanes(&faulted, &pin_cfg(47), &hot, &lane_config(2));
    check_lanes(
        &LanePin {
            tag: "faulted bft64 L=2 hot spot",
            avg_latency: 0x404029ca75c9aabd,
            p99: 0x405d000000000000,
            messages: 2582,
            cycles_run: 9020,
            cycles_skipped: 4,
            lanes: &[(11794, 0x4036e3bd254a7390), (2127, 0x4040a22e753a5f90)],
        },
        &b,
    );
}

#[test]
fn single_lane_reference_engine_matches_its_pin_without_fast_forward() {
    // The cycle-stepped reference engine (fast-forward off) is pinned too,
    // on a different machine size — covers the `step()` hot path directly.
    let tree16 = ButterflyFatTree::new(BftParams::paper(16).unwrap());
    let router16 = BftRouter::new(&tree16);
    let t16 = TrafficConfig::from_flit_load(0.08, 32).unwrap();
    let mut engine = Engine::with_lanes(&router16, &pin_cfg(17), &t16, &LaneConfig::single());
    engine.set_engine_kind(EngineKind::Reference);
    let r = engine.run();
    check(
        &Pin {
            tag: "bft16_ref",
            avg_latency: 0x4043c99bebb1ad53,
            p99: 0x4057c00000000000,
            injection_wait: 0x4004cdf5d8d6a9b3,
            measured: 353,
            completed: 353,
            cycles_run: 9021,
            cycles_skipped: 0,
        },
        &r,
    );
}

#[test]
fn single_lane_model_matches_the_closed_form_to_rounding() {
    // Pinned closed-form values (the Figure 2/3 generator) and the
    // framework solved with an explicit lanes = 1: both must agree with
    // each other and with the pre-lanes numbers.
    let reference = [
        (1024usize, 32.0f64, 0.02f64, 48.138_340_154_403),
        (64, 16.0, 0.05, 22.658_746_368_357),
        (256, 32.0, 0.02, 41.433_925_061_880),
    ];
    let lanes1 = ModelOptions::paper().with_lanes(1);
    assert_eq!(lanes1, ModelOptions::paper(), "with_lanes(1) is the paper");
    for (n, s, load, expect) in reference {
        let params = BftParams::paper(n).unwrap();
        let closed = BftModel::new(params, s)
            .latency_at_flit_load(load)
            .unwrap()
            .total;
        assert!(
            (closed - expect).abs() < 1e-9,
            "N={n}: closed form {closed} vs pinned {expect}"
        );
        let generic = bft_spec(&params, s, load / s)
            .latency(&lanes1, None)
            .unwrap()
            .total;
        assert!(
            (generic - closed).abs() < 1e-9 * (1.0 + closed),
            "N={n}: lanes=1 framework {generic} vs closed {closed}"
        );
    }
}

/// The single-lane model's bracketed knee for 16-flit worms at `n` PEs, in
/// flits/cycle/PE. The reference rate puts every machine's knee inside the
/// default probe range.
fn single_lane_knee(n: usize) -> f64 {
    let lambda0 = 2.5e-4;
    let spec = bft_spec(&BftParams::paper(n).unwrap(), 16.0, lambda0);
    let knee = spec
        .find_knee(&ModelOptions::paper(), &KneeConfig::default())
        .unwrap();
    knee.knee * lambda0 * 16.0
}

#[test]
fn lane_model_latencies_at_half_the_knee_are_pinned() {
    // Knee bracketing and the lane model are deterministic, so both pin to
    // the bit. The N=64 knee sets the past-knee load (1.5x = 0.239064)
    // replayed in tests/fast_forward_replay.rs.
    assert_eq!(single_lane_knee(64).to_bits(), 0x3fc4_666e_c9e2_36c1);
    let knee = single_lane_knee(1024);
    assert_eq!(knee.to_bits(), 0x3fa3_fd0d_0678_c006, "N=1024 knee {knee}");
    // Half the single-lane knee lower-bounds every L's knee.
    let load = 0.5 * knee;
    let params = BftParams::paper(1024).unwrap();
    for (lanes, pinned, approx) in [
        (1u32, 0x403c_161b_4a64_0d08u64, 28.086_354),
        (2, 0x4040_004c_a43e_a47a, 32.002_339),
        (4, 0x4040_b2cb_9fed_87e4, 33.396_839),
    ] {
        assert!(
            (f64::from_bits(pinned) - approx).abs() < 1e-6,
            "L={lanes}: pin {pinned:#x} is not {approx}"
        );
        let model = BftModel::with_options(params, 16.0, ModelOptions::paper().with_lanes(lanes));
        let got = model.latency_at_flit_load(load).unwrap().total;
        assert_eq!(
            got.to_bits(),
            pinned,
            "L={lanes}: latency {got} moved from {}",
            f64::from_bits(pinned)
        );
    }
}

#[test]
fn multi_lane_model_tracks_the_simulator_at_low_to_moderate_load() {
    // The acceptance band: uniform traffic, N=64, loads up to ~55% of the
    // single-lane knee, L ∈ {1, 2, 4} — model within the shared
    // per-lane-count tolerance of the simulation.
    let params = BftParams::paper(64).unwrap();
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let cfg = validation_sim_config(7);
    for lc in lane_sweep_configs() {
        let options = ModelOptions::paper().with_lanes(lc.lanes());
        let model = BftModel::with_options(params, 16.0, options);
        for load in [0.03, 0.06, 0.10] {
            let traffic = TrafficConfig::from_flit_load(load, 16).unwrap();
            let sim = run_simulation_with_lanes(&router, &cfg, &traffic, &lc);
            assert!(
                !sim.saturated,
                "L={} load {load} must be stable",
                lc.lanes()
            );
            let predicted = model.latency_at_flit_load(load).unwrap().total;
            assert_lane_model_close(
                predicted,
                sim.avg_latency,
                lc.lanes(),
                &format!("uniform N=64 load {load}"),
            );
        }
    }
}

#[test]
fn lanes_shift_the_saturation_knee_outward() {
    // Just past the single-lane knee (~0.18 flits/cycle/PE at N=64), the
    // single-lane engine collapses while two lanes keep the network
    // stable and deliver strictly more throughput — the multi-lane MIN
    // observation (Stergiou) the subsystem exists to express.
    let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
    let router = BftRouter::new(&tree);
    let cfg = validation_sim_config(31);
    let traffic = TrafficConfig::from_flit_load(0.21, 16).unwrap();
    let one = run_simulation_with_lanes(&router, &cfg, &traffic, &lane_config(1));
    let two = run_simulation_with_lanes(&router, &cfg, &traffic, &lane_config(2));
    let four = run_simulation_with_lanes(&router, &cfg, &traffic, &lane_config(4));
    assert!(
        two.delivered_flit_load > one.delivered_flit_load + 0.01,
        "L=2 must outdeliver L=1 past the knee: {} vs {}",
        two.delivered_flit_load,
        one.delivered_flit_load
    );
    assert!(
        four.avg_latency < one.avg_latency,
        "L=4 must cut the past-knee latency: {} vs {}",
        four.avg_latency,
        one.avg_latency
    );
}

#[test]
fn fast_forward_stays_bit_exact_with_multiple_lanes() {
    // The idle-span skip must remain observationally invisible when the
    // stall list and lane audit are in play.
    let tree = ButterflyFatTree::new(BftParams::paper(16).unwrap());
    let router = BftRouter::new(&tree);
    let cfg = validation_sim_config(61);
    for lc in lane_sweep_configs() {
        for load in [0.004, 0.12] {
            let traffic = TrafficConfig::from_flit_load(load, 16).unwrap();
            let fast = run_simulation_with_lanes(&router, &cfg, &traffic, &lc);
            let reference = run_on_engine(&router, &cfg, &traffic, &lc, EngineKind::Reference);
            let label = format!("L={} load {load}", lc.lanes());
            assert_sim_results_identical(&fast, &reference, &label);
            assert_eq!(reference.cycles_skipped, 0);
        }
    }
}

#[test]
fn queueing_lane_composition_reduces_to_eq10_and_discounts_with_lanes() {
    // The standalone per-channel composition (geometric occupancy tail ×
    // Eq. 10): exactly the paper's blocking probability at L = 1, and a
    // strictly stronger discount as lanes are added — the facade-level
    // guarantee for the queueing primitives the framework's M/G/(m·L)
    // formulation generalizes.
    use wormsim::queueing::blocking::blocking_probability;
    use wormsim::queueing::lanes::multi_lane_blocking_probability;
    let (m, lambda_in, lambda_out, r, rho) = (2u32, 0.12, 0.4, 0.9, 0.55);
    let eq10 = blocking_probability(m, lambda_in, lambda_out, r).unwrap();
    let p1 = multi_lane_blocking_probability(m, 1, lambda_in, lambda_out, r, rho).unwrap();
    assert_eq!(p1.to_bits(), eq10.to_bits(), "bit-exact Eq. 10 at L = 1");
    let mut prev = p1;
    for lanes in [2u32, 4, 8] {
        let p = multi_lane_blocking_probability(m, lanes, lambda_in, lambda_out, r, rho).unwrap();
        assert!(
            p < prev,
            "L={lanes}: tail must strictly discount ({p} vs {prev})"
        );
        prev = p;
    }
}

#[test]
fn multi_lane_bft_model_rejects_single_lane_only_entry_points() {
    // Eq. 26 (saturation) and the per-level audit are closed single-lane
    // recurrences; a lanes>1 model must refuse rather than silently hand
    // back L=1 numbers inconsistent with its own latency.
    let params = BftParams::paper(64).unwrap();
    let model = BftModel::with_options(params, 16.0, ModelOptions::paper().with_lanes(2));
    assert!(
        model.latency_at_flit_load(0.05).is_ok(),
        "latency is lane-aware"
    );
    assert!(model.saturation().is_err());
    assert!(model.saturation_flit_load().is_err());
    assert!(model.audit_at_message_rate(0.001).is_err());
    assert!(model.source_service_time(0.001).is_err());
    let err = model.saturation().unwrap_err().to_string();
    assert!(
        err.contains("lanes"),
        "error should explain the lane limit: {err}"
    );
    // lanes = 0 is rejected consistently on every entry point, matching
    // the framework spec's validation.
    let zero = BftModel::with_options(params, 16.0, ModelOptions::paper().with_lanes(0));
    assert!(zero.latency_at_flit_load(0.05).is_err());
    assert!(zero.saturation().is_err());
    assert!(bft_spec(&params, 16.0, 0.001)
        .latency(&ModelOptions::paper().with_lanes(0), None)
        .is_err());
}

#[test]
fn lane_occupancy_stats_reflect_the_allocator() {
    // First-free concentrates occupancy on the low lanes. The per-lane
    // stats in SimResult must show it.
    let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
    let router = BftRouter::new(&tree);
    let cfg = validation_sim_config(43);
    let traffic = TrafficConfig::from_flit_load(0.14, 16).unwrap();
    let ff = run_simulation_with_lanes(&router, &cfg, &traffic, &lane_config(4));
    assert_eq!(ff.lane_stats.len(), 4);
    assert!(
        ff.lane_stats[0].utilization > 2.0 * ff.lane_stats[1].utilization,
        "first-free must favour lane 0: {:?}",
        ff.lane_stats
    );
    // Grants are conserved across lanes: every class grant lands on a lane.
    let class_grants: u64 = ff.class_stats.iter().map(|c| c.grants).sum();
    let lane_grants: u64 = ff.lane_stats.iter().map(|l| l.grants).sum();
    assert_eq!(class_grants, lane_grants, "grant conservation across lanes");
}
