//! Fault injection and graceful degradation, end to end.
//!
//! The contracts under test, in order:
//!
//! 1. **Zero-fault identity** — a router carrying an *empty*
//!    [`FaultPlan`] routes bit-for-bit as the pristine topology does:
//!    `FaultedBftRouter` matches `BftRouter` on every engine core, and the
//!    mesh and hypercube runs are pinned to exact values. Fault-awareness
//!    costs nothing when nothing is broken.
//! 2. **Cross-engine identity under faults** — both execution cores
//!    produce field-for-field identical `SimResult`s under any fault
//!    plan, including plans that disconnect processor pairs.
//! 3. **Graceful degradation** — disconnection surfaces as
//!    `messages_unroutable` accounting; runs terminate (no wedge, no
//!    panic) and conservation still closes.
//! 4. **Degraded model accuracy** — the analytical model re-priced over
//!    the surviving channels tracks the degraded simulator below the
//!    knee.

use wormsim::prelude::*;
use wormsim_faults::link_faults;
use wormsim_sim::config::LaneConfig as SimLaneConfig;
use wormsim_sim::router::{BftRouter, HypercubeRouter, MeshRouter};
use wormsim_testutil::{
    assert_engine_equivalence, assert_sim_results_identical, quick_sim_config, run_on_engine,
    test_traffic, TEST_SEED,
};
use wormsim_topology::hypercube::Hypercube;
use wormsim_topology::mesh::Mesh;

const ALL_ENGINES: [EngineKind; 2] = [EngineKind::Reference, EngineKind::FastForward];
const OPTIMIZED: [EngineKind; 1] = [EngineKind::FastForward];

fn lanes1() -> SimLaneConfig {
    SimLaneConfig::default()
}

/// Pins a run's unroutable / completed / `cycles_run` / `avg_latency`
/// (compared by its bits). No benchmark digest covers a mesh or hypercube
/// simulation, so these exact values are what hold those runs still.
fn assert_pinned(r: &SimResult, pin: (u64, u64, u64, f64), what: &str) {
    let got = (
        r.messages_unroutable,
        r.messages_completed,
        r.cycles_run,
        r.avg_latency,
    );
    let bits = |(u, c, n, lat): (u64, u64, u64, f64)| (u, c, n, lat.to_bits());
    assert_eq!(bits(got), bits(pin), "{what}: {got:?} drifted from its pin");
}

#[test]
fn empty_fault_plan_is_bit_identical_to_the_pristine_bft_router() {
    let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
    let pristine = BftRouter::new(&tree);
    let faulted = FaultedBftRouter::new(&tree, FaultPlan::none(tree.network())).unwrap();
    let cfg = quick_sim_config(TEST_SEED);
    let traffic = test_traffic(0.05, 16);
    for kind in ALL_ENGINES {
        let a = run_on_engine(&pristine, &cfg, &traffic, &lanes1(), kind);
        let b = run_on_engine(&faulted, &cfg, &traffic, &lanes1(), kind);
        assert_sim_results_identical(&a, &b, &format!("bft-64 empty plan [{}]", kind.label()));
        assert_eq!(b.messages_unroutable, 0);
    }
}

#[test]
fn empty_fault_plan_is_bit_identical_on_mesh_and_hypercube() {
    let cfg = quick_sim_config(TEST_SEED);
    let traffic = test_traffic(0.04, 16);

    let cube = Hypercube::new(4).unwrap();
    let a = run_simulation_with_lanes(&HypercubeRouter::new(&cube), &cfg, &traffic, &lanes1());
    let b = run_simulation_with_lanes(
        &HypercubeRouter::with_faults(&cube, FaultPlan::none(cube.network())).unwrap(),
        &cfg,
        &traffic,
        &lanes1(),
    );
    assert_sim_results_identical(&a, &b, "hypercube-16 empty plan");
    assert_pinned(&a, (0, 309, 9000, 19.922330097087375), "hypercube-16");

    let mesh = Mesh::new(4, 2).unwrap();
    let a = run_simulation_with_lanes(&MeshRouter::new(&mesh), &cfg, &traffic, &lanes1());
    let b = run_simulation_with_lanes(
        &MeshRouter::with_faults(&mesh, FaultPlan::none(mesh.network())).unwrap(),
        &cfg,
        &traffic,
        &lanes1(),
    );
    assert_sim_results_identical(&a, &b, "mesh-4x4 empty plan");
    assert_pinned(&a, (0, 324, 9000, 20.851851851851855), "mesh-4x4");
}

#[test]
fn engines_agree_under_random_link_knockouts() {
    // A 5% seeded knockout that keeps the fabric fully connected: the
    // engines must agree bit-for-bit while actually routing around the
    // dead links (restricted up-bundle masks in play).
    let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
    let plan = link_faults(tree.network(), 0.05, 11).unwrap();
    assert!(!plan.is_empty());
    let router = FaultedBftRouter::new(&tree, plan).unwrap();
    let cfg = quick_sim_config(TEST_SEED);
    let traffic = test_traffic(0.05, 16);
    let r = assert_engine_equivalence(
        &router,
        &cfg,
        &traffic,
        &lanes1(),
        &OPTIMIZED,
        "bft-64 5% links",
    );
    assert!(r.messages_completed > 0);
}

#[test]
fn dead_leaf_switch_degrades_gracefully_with_unroutable_accounting() {
    // Kill the leaf switch PE 3 attaches to: its processors lose network
    // access entirely — traffic they source and traffic addressed to them
    // is unroutable. The run must terminate on both cores with
    // identical results, count the drops, and still deliver the rest.
    let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
    let net = tree.network();
    let leaf_switch = net.channel(net.processors()[3].inject).dst;
    let mut plan = FaultPlan::none(net);
    plan.kill_switch(net, leaf_switch).unwrap();
    let router = FaultedBftRouter::new(&tree, plan).unwrap();
    assert!(!router.bft().fully_connected());
    assert!(router.bft().disconnected_pairs() > 0);

    let cfg = quick_sim_config(TEST_SEED);
    let traffic = test_traffic(0.05, 16);
    let r = assert_engine_equivalence(
        &router,
        &cfg,
        &traffic,
        &lanes1(),
        &OPTIMIZED,
        "bft-64 dead leaf switch",
    );
    assert!(
        r.messages_unroutable > 0,
        "messages through the dead switch must be counted"
    );
    assert!(r.messages_completed > 0, "the rest of the fabric delivers");
}

#[test]
fn interior_switch_death_is_routed_around_without_drops() {
    // The butterfly fat-tree's p-way parent redundancy absorbs a single
    // interior switch death: the fabric stays fully connected and no
    // message is dropped — worms just detour through surviving parents.
    let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
    let net = tree.network();
    let leaf_switch = net.channel(net.processors()[0].inject).dst;
    // One of the leaf switch's parents (dst of one of its up channels).
    let up = net
        .node(leaf_switch)
        .out_channels
        .iter()
        .copied()
        .find(|&c| !matches!(net.channel(c).class, ChannelClass::Ejection));
    let parent = net.channel(up.expect("leaf switch has up channels")).dst;
    let mut plan = FaultPlan::none(net);
    plan.kill_switch(net, parent).unwrap();
    let router = FaultedBftRouter::new(&tree, plan).unwrap();
    assert!(
        router.bft().fully_connected(),
        "p-way redundancy must absorb one interior switch"
    );
    let cfg = quick_sim_config(TEST_SEED);
    let traffic = test_traffic(0.05, 16);
    let r = assert_engine_equivalence(
        &router,
        &cfg,
        &traffic,
        &lanes1(),
        &OPTIMIZED,
        "bft-64 dead interior switch",
    );
    assert_eq!(r.messages_unroutable, 0);
    assert!(r.messages_completed > 0);
}

#[test]
fn disconnected_mesh_and_hypercube_runs_terminate() {
    let cfg = quick_sim_config(TEST_SEED);
    let traffic = test_traffic(0.04, 16);

    // E-cube / dimension-order paths are unique, so a dead switch severs
    // every pair whose path crosses it — nothing to route around. The
    // runs must still terminate with the drops counted.
    let cube = Hypercube::new(4).unwrap();
    let net = cube.network();
    let mut plan = FaultPlan::none(net);
    plan.kill_switch(net, net.channel(net.processors()[0].inject).dst)
        .unwrap();
    let router = HypercubeRouter::with_faults(&cube, plan).unwrap();
    let r = assert_engine_equivalence(
        &router,
        &cfg,
        &traffic,
        &lanes1(),
        &OPTIMIZED,
        "hypercube-16 dead switch",
    );
    assert_pinned(
        &r,
        (67, 259, 9016, 19.737451737451746),
        "hypercube-16 dead switch",
    );

    let mesh = Mesh::new(4, 2).unwrap();
    let net = mesh.network();
    let mut plan = FaultPlan::none(net);
    plan.kill_switch(net, net.channel(net.processors()[7].inject).dst)
        .unwrap();
    let router = MeshRouter::with_faults(&mesh, plan).unwrap();
    let r = assert_engine_equivalence(
        &router,
        &cfg,
        &traffic,
        &lanes1(),
        &OPTIMIZED,
        "mesh-4x4 dead switch",
    );
    assert_pinned(
        &r,
        (80, 227, 9000, 20.149779735682813),
        "mesh-4x4 dead switch",
    );
}

#[test]
fn observation_stays_transparent_and_conserving_under_faults() {
    use wormsim_testutil::differential::assert_observation_transparent;
    let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
    let net = tree.network();
    let mut plan = link_faults(net, 0.05, 11).unwrap();
    plan.kill_switch(net, net.channel(net.processors()[3].inject).dst)
        .unwrap();
    let router = FaultedBftRouter::new(&tree, plan).unwrap();
    let cfg = quick_sim_config(TEST_SEED);
    let traffic = test_traffic(0.05, 16);
    let observed = assert_observation_transparent(
        &router,
        &cfg,
        &traffic,
        &lanes1(),
        &OPTIMIZED,
        &ObsConfig::counters_only(),
        "bft-64 faulted observed",
    );
    let snap = observed.obs.as_ref().unwrap();
    assert!(snap.unroutable > 0, "observer must see the drops");
    assert_eq!(
        snap.stalls_dead_link, snap.unroutable,
        "dead-link stalls are exactly the unroutable drops"
    );
}

mod random_plans {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Both cores agree field-for-field under arbitrary seeded
        /// knockouts — including plans that sever processor pairs.
        #[test]
        fn engines_agree_under_arbitrary_plans(
            fraction in 0.0f64..0.15,
            seed in any::<u64>(),
        ) {
            let tree = ButterflyFatTree::new(BftParams::paper(16).unwrap());
            let plan = link_faults(tree.network(), fraction, seed).unwrap();
            let router = FaultedBftRouter::new(&tree, plan).unwrap();
            let cfg = quick_sim_config(TEST_SEED);
            let traffic = test_traffic(0.04, 16);
            assert_engine_equivalence(
                &router,
                &cfg,
                &traffic,
                &lanes1(),
                &OPTIMIZED,
                &format!("bft-16 random plan f={fraction:.3} seed={seed}"),
            );
        }
    }
}

#[test]
fn degraded_model_tracks_degraded_sim_below_knee() {
    // 5% link knockout keeping the fabric fully connected: re-pricing the
    // model over the surviving channels (degraded flow vector + alive
    // server counts) must track the degraded simulator within 5% at a
    // load well below the degraded knee.
    let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
    let plan = link_faults(tree.network(), 0.05, 7).unwrap();
    let bft = FaultedBft::new(&tree, plan.clone()).unwrap();
    assert!(bft.fully_connected(), "pick a seed that keeps connectivity");

    let s = 16u32;
    let load = 0.03f64;
    let lambda0 = load / f64::from(s);
    let pattern = DestinationPattern::Uniform;
    let flows = FlowVector::build(&bft, &pattern).unwrap();
    let alive = plan.alive_servers(tree.network());
    let m = model_from_flows(tree.network(), &flows, f64::from(s), lambda0, Some(&alive))
        .unwrap()
        .latency(&ModelOptions::paper(), None)
        .unwrap()
        .total;

    let router = FaultedBftRouter::new(&tree, plan).unwrap();
    let cfg = quick_sim_config(41);
    let traffic = TrafficConfig::from_flit_load(load, s).unwrap();
    let r = run_simulation(&router, &cfg, &traffic);
    assert!(!r.saturated);
    assert_eq!(r.messages_unroutable, 0, "fully connected: no drops");
    let err = (m - r.avg_latency).abs() / r.avg_latency;
    assert!(
        err < 0.05,
        "degraded model {m:.2} vs degraded sim {:.2} ({:.1}% off)",
        r.avg_latency,
        100.0 * err
    );
}
