//! Bit-exact replay: the fast-forwarding engine must be observationally
//! indistinguishable from the reference cycle-stepped engine.
//!
//! Idle cycles make no RNG draw (the request shuffle is over an empty
//! list; grants only draw with a non-empty queue; arrival times are
//! pre-sampled into the source heap), so skipping a provably idle span
//! leaves the random stream — and with it every sampled destination,
//! tie-break and up-link pick — untouched. These tests check that claim
//! the hard way: every `SimResult` field, including latency percentiles,
//! per-class audit counters and the `cycles_run` accounting, must match
//! to the last bit across workloads and loads, plus the six configs pinned
//! in `tests/lanes_regression.rs` and three loaded-regime points. A last
//! table pins the default core's cycle accounting at fixed points.

use wormsim::faults::link_faults;
use wormsim::prelude::*;
use wormsim::sim::router::{BftRouter, HypercubeRouter, MeshRouter, Router};
use wormsim::topology::hypercube::Hypercube;
use wormsim::topology::mesh::Mesh;
// The field-by-field comparison lives in testutil so every replay/
// differential suite shares one definition of "identical result".
use wormsim_testutil::{
    assert_engine_equivalence, assert_sim_results_identical as assert_bit_identical,
    quick_sim_config, run_on_engine,
};

/// One bare single-lane run on the reference oracle.
fn run_reference<R: Router>(router: &R, cfg: &SimConfig, traffic: &TrafficConfig) -> SimResult {
    let lanes = LaneConfig::single();
    run_on_engine(router, cfg, traffic, &lanes, EngineKind::Reference)
}

/// Same orchestration parameters as the `lanes_regression` pins.
fn pin_cfg(seed: u64) -> SimConfig {
    SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: 8_000,
        drain_cap_cycles: 30_000,
        seed,
        batches: 8,
    }
}

/// The optimized core, checked against the reference oracle.
const FAST: [EngineKind; 1] = [EngineKind::FastForward];

/// Named `(pattern, arrival process)` pairs.
fn workloads() -> [(&'static str, DestinationPattern, ArrivalProcess); 3] {
    let poisson = ArrivalProcess::Poisson;
    let bursty = ArrivalProcess::Mmpp(MmppProfile::default_bursty());
    [
        ("uniform", DestinationPattern::Uniform, poisson),
        ("hotspot", DestinationPattern::hot_spot(), poisson),
        ("bursty", DestinationPattern::Uniform, bursty),
    ]
}

#[test]
fn fast_forward_is_bit_exact_across_workloads_and_loads() {
    let tree = ButterflyFatTree::new(BftParams::paper(16).unwrap());
    let router = BftRouter::new(&tree);
    let cfg = quick_sim_config(41);
    for (name, pattern, arrival) in workloads() {
        for load in [0.002, 0.05] {
            let traffic = TrafficConfig::from_flit_load(load, 16)
                .unwrap()
                .with_pattern(pattern)
                .with_arrival(arrival);
            let fast = run_simulation(&router, &cfg, &traffic);
            let reference = run_reference(&router, &cfg, &traffic);
            assert_bit_identical(&fast, &reference, &format!("{name}@{load}"));
            assert_eq!(reference.cycles_skipped, 0, "{name}: reference skips");
            assert!(
                load > 0.01 || fast.cycles_skipped > 0,
                "{name}@{load}: fast-forward should elide cycles at low load"
            );
        }
    }
}

#[test]
fn fast_forward_is_bit_exact_on_a_larger_machine_near_the_knee() {
    // Moderate load on N=64: idle spans are short and frequent, so the
    // skip logic is exercised between clustered events rather than across
    // long dead stretches.
    let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
    let router = BftRouter::new(&tree);
    let cfg = quick_sim_config(43);
    for load in [0.01, 0.12] {
        let traffic = TrafficConfig::from_flit_load(load, 16).unwrap();
        let fast = run_simulation(&router, &cfg, &traffic);
        let reference = run_reference(&router, &cfg, &traffic);
        assert_bit_identical(&fast, &reference, &format!("n64@{load}"));
    }
}

#[test]
fn fast_forward_skips_almost_everything_at_vanishing_load() {
    let tree = ButterflyFatTree::new(BftParams::paper(16).unwrap());
    let router = BftRouter::new(&tree);
    let cfg = quick_sim_config(47);
    let traffic = TrafficConfig::new(0.00002, 16).unwrap();
    let fast = run_simulation(&router, &cfg, &traffic);
    let reference = run_reference(&router, &cfg, &traffic);
    assert_bit_identical(&fast, &reference, "vanishing");
    assert!(
        fast.cycles_skipped as f64 > 0.9 * fast.cycles_run as f64,
        "at ~0 load nearly every cycle is idle: skipped {} of {}",
        fast.cycles_skipped,
        fast.cycles_run
    );
}

#[test]
fn fast_forward_handles_zero_rate_and_saturation_edges() {
    let tree = ButterflyFatTree::new(BftParams::paper(16).unwrap());
    let router = BftRouter::new(&tree);
    let cfg = quick_sim_config(53);
    // Zero rate: the whole run is one idle span.
    let silent = TrafficConfig::new(0.0, 16).unwrap();
    let fast = run_simulation(&router, &cfg, &silent);
    let reference = run_reference(&router, &cfg, &silent);
    assert_bit_identical(&fast, &reference, "zero-rate");
    assert_eq!(fast.cycles_run, cfg.warmup_cycles + cfg.measure_cycles);
    // Far past saturation: no idle spans to skip, but the accounting (drain
    // cap, incomplete messages) must still agree exactly.
    let overload = TrafficConfig::from_flit_load(0.5, 16).unwrap();
    let fast = run_simulation(&router, &cfg, &overload);
    let reference = run_reference(&router, &cfg, &overload);
    assert_bit_identical(&fast, &reference, "overload");
    assert!(fast.saturated);
}

#[test]
fn sweeps_reproduce_sequential_runs() {
    // The lock-free disjoint-slot sweep must equal point-by-point
    // sequential simulation with the derived per-point seeds.
    let tree = ButterflyFatTree::new(BftParams::paper(16).unwrap());
    let router = BftRouter::new(&tree);
    let cfg = quick_sim_config(59);
    let loads = [0.003, 0.01, 0.02, 0.04, 0.06];
    let base = TrafficConfig::from_flit_load(loads[0], 16).unwrap();
    let swept = sweep_traffic(&router, &cfg, &base, &LaneConfig::single(), &loads).unwrap();
    assert_eq!(swept.len(), loads.len());
    for (i, (r, &load)) in swept.iter().zip(&loads).enumerate() {
        let seed = wormsim::sim::runner::point_seed(cfg.seed, i as u64);
        let solo = run_simulation(
            &router,
            &cfg.with_seed(seed),
            &base.at_flit_load(load).unwrap(),
        );
        assert_bit_identical(r, &solo, &format!("sweep point {i}"));
    }
}

#[test]
fn fast_forward_replays_the_six_pinned_regression_configs() {
    // Exactly the six configs pinned in `tests/lanes_regression.rs`: three
    // BFT workloads, a hypercube, a mesh, and the 16-PE reference-walk pin.
    let single = LaneConfig::single();

    let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
    let router = BftRouter::new(&tree);
    let t_uni = TrafficConfig::from_flit_load(0.04, 16).unwrap();
    assert_engine_equivalence(
        &router,
        &pin_cfg(7),
        &t_uni,
        &single,
        &FAST,
        "bft64_uniform",
    );
    let t_hot = TrafficConfig::from_flit_load(0.02, 16)
        .unwrap()
        .with_pattern(DestinationPattern::hot_spot());
    assert_engine_equivalence(
        &router,
        &pin_cfg(11),
        &t_hot,
        &single,
        &FAST,
        "bft64_hotspot",
    );
    let t_mmpp = TrafficConfig::from_flit_load(0.03, 16)
        .unwrap()
        .with_arrival(ArrivalProcess::Mmpp(MmppProfile::default_bursty()));
    assert_engine_equivalence(&router, &pin_cfg(13), &t_mmpp, &single, &FAST, "bft64_mmpp");

    let cube = Hypercube::new(4).unwrap();
    let rc = HypercubeRouter::new(&cube);
    let tc = TrafficConfig::from_flit_load(0.05, 16).unwrap();
    assert_engine_equivalence(&rc, &pin_cfg(19), &tc, &single, &FAST, "cube4_uniform");

    let mesh = Mesh::new(4, 2).unwrap();
    let rm = MeshRouter::new(&mesh);
    let tm = TrafficConfig::from_flit_load(0.05, 8).unwrap();
    assert_engine_equivalence(&rm, &pin_cfg(23), &tm, &single, &FAST, "mesh4x4_uniform");

    let tree16 = ButterflyFatTree::new(BftParams::paper(16).unwrap());
    let router16 = BftRouter::new(&tree16);
    let t16 = TrafficConfig::from_flit_load(0.08, 32).unwrap();
    assert_engine_equivalence(&router16, &pin_cfg(17), &t16, &single, &FAST, "bft16_ref");
}

#[test]
fn fast_forward_replays_the_loaded_regime() {
    // N=64 at 0.1 flits/cycle/PE (~55% of the single-lane knee), where
    // idle spans are rare, on single-lane channels and on 2-lane channels
    // where stalls and the lane audit are in play — plus a saturating
    // point where the drain cap and incomplete-message accounting are
    // exercised.
    let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
    let router = BftRouter::new(&tree);

    let loaded = TrafficConfig::from_flit_load(0.1, 16).unwrap();
    let r = assert_engine_equivalence(
        &router,
        &pin_cfg(29),
        &loaded,
        &LaneConfig::single(),
        &FAST,
        "bft64_load0.1_l1",
    );
    assert!(!r.saturated, "0.1 is below the N=64 knee");

    let two = LaneConfig::new(2, LaneAllocatorKind::FirstFree).unwrap();
    assert_engine_equivalence(
        &router,
        &pin_cfg(31),
        &loaded,
        &two,
        &FAST,
        "bft64_load0.1_l2",
    );

    // Past the knee: saturated accounting must agree too.
    let past_knee = TrafficConfig::from_flit_load(0.25, 16).unwrap();
    let r = assert_engine_equivalence(
        &router,
        &pin_cfg(37),
        &past_knee,
        &LaneConfig::single(),
        &FAST,
        "bft64_load0.25_l1",
    );
    assert!(r.saturated, "0.25 is past the N=64 knee");
}

/// How a pinned point routes: the pristine router, or the fault-aware one
/// over an empty plan or a seeded 5% link knockout.
#[derive(Debug, Clone, Copy)]
enum Fabric {
    Pristine,
    EmptyPlan,
    Links5,
}

#[test]
fn fast_forward_cycle_accounting_is_pinned() {
    // `(cycles_run, cycles_skipped)` of the default core on short runs at
    // seed 0xC0FFEE, from idle N=16 to the loaded N=64 regime across lane
    // counts and fault plans. Both counts are exact, so any change to the
    // skip schedule or the drain accounting shows here. 0.239064 is 1.5x
    // the bracketed N=64 knee (pinned in tests/lanes_regression.rs): the
    // run saturates and must still finish within the drain cap.
    let cfg = SimConfig {
        warmup_cycles: 500,
        measure_cycles: 4_000,
        drain_cap_cycles: 20_000,
        seed: 0xC0FFEE,
        batches: 4,
    };
    let pins = [
        (16, 0.001, 1, Fabric::Pristine, (4500, 4450)),
        (16, 0.0025, 1, Fabric::Pristine, (4500, 4383)),
        (64, 0.005, 1, Fabric::Pristine, (4500, 3463)),
        (256, 0.01, 1, Fabric::Pristine, (4517, 400)),
        (64, 0.1, 1, Fabric::Pristine, (4539, 56)),
        (64, 0.1, 2, Fabric::Pristine, (4537, 2)),
        (64, 0.1, 4, Fabric::Pristine, (4539, 12)),
        (64, 0.1, 1, Fabric::EmptyPlan, (4539, 56)),
        (64, 0.1, 1, Fabric::Links5, (4573, 64)),
        (64, 0.239_064, 1, Fabric::Links5, (9476, 1020)),
    ];
    for (n, load, lanes, fabric, pinned) in pins {
        let tree = ButterflyFatTree::new(BftParams::paper(n).unwrap());
        let traffic = TrafficConfig::from_flit_load(load, 16).unwrap();
        let lc = LaneConfig::new(lanes, LaneAllocatorKind::FirstFree).unwrap();
        let faulted = |plan: FaultPlan| {
            let router = FaultedBftRouter::new(&tree, plan).unwrap();
            run_simulation_with_lanes(&router, &cfg, &traffic, &lc)
        };
        let r = match fabric {
            Fabric::Pristine => {
                run_simulation_with_lanes(&BftRouter::new(&tree), &cfg, &traffic, &lc)
            }
            Fabric::EmptyPlan => faulted(FaultPlan::none(tree.network())),
            Fabric::Links5 => faulted(link_faults(tree.network(), 0.05, 7).unwrap()),
        };
        assert_eq!(
            (r.cycles_run, r.cycles_skipped),
            pinned,
            "bft{n}@{load} L={lanes} {fabric:?}"
        );
    }
}
