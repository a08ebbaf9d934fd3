//! Sharp tests of the engine's timing semantics, using deterministic
//! traffic patterns where every message's unblocked latency is known in
//! closed form.

use wormsim_sim::config::{
    DestinationPattern, EngineKind, LaneConfig, ObsConfig, SimConfig, TrafficConfig,
};
use wormsim_sim::engine::Engine;
use wormsim_sim::router::{BftRouter, Router};
use wormsim_sim::runner::{run_simulation, run_simulation_observed};
use wormsim_topology::bft::{BftParams, ButterflyFatTree};
use wormsim_topology::graph::{ChannelClass, ChannelNetwork, NodeKind};
use wormsim_topology::ids::NodeId;
use wormsim_topology::mesh::Mesh;
use wormsim_workload::{FlowRouting, Route};

fn tiny_cfg(seed: u64) -> SimConfig {
    SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: 10_000,
        drain_cap_cycles: 30_000,
        seed,
        batches: 4,
    }
}

#[test]
fn half_shift_zero_load_latency_is_exact() {
    // Under HalfShift on a (4,2) fat-tree every source-destination pair
    // differs in the top base-4 digit, so every message crosses the root:
    // D = 2n exactly, and at vanishing load latency = s + 2n − 1 for every
    // single message — the mean must be exact, not just close.
    for (n_procs, levels) in [(16usize, 2u32), (64, 3)] {
        let params = BftParams::paper(n_procs).unwrap();
        let tree = ButterflyFatTree::new(params);
        let router = BftRouter::new(&tree);
        let traffic = TrafficConfig::new(0.00005, 16)
            .unwrap()
            .with_pattern(DestinationPattern::HalfShift);
        let r = run_simulation(&router, &tiny_cfg(3), &traffic);
        assert!(!r.saturated);
        assert!(r.messages_completed > 5, "need data");
        let expect = 16.0 + 2.0 * f64::from(levels) - 1.0;
        // Unblocked messages take exactly `expect`; rare collisions can only
        // add cycles, never remove them.
        assert!(
            r.avg_latency >= expect - 1e-9 && r.avg_latency < expect + 0.5,
            "N={n_procs}: unblocked latency is {expect}, got {}",
            r.avg_latency
        );
    }
}

#[test]
fn bit_complement_is_also_exact_and_root_bound() {
    // dest = !src flips the top digit too: D = 2n for every message.
    // At this rate collisions are rare but possible, so the mean may sit a
    // fraction of a cycle above the unblocked exact value — never below.
    let params = BftParams::paper(64).unwrap();
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let traffic = TrafficConfig::new(0.00005, 32)
        .unwrap()
        .with_pattern(DestinationPattern::BitComplement);
    let r = run_simulation(&router, &tiny_cfg(5), &traffic);
    assert!(!r.saturated);
    let expect = 32.0 + 6.0 - 1.0;
    assert!(
        r.avg_latency >= expect - 1e-9 && r.avg_latency < expect + 0.5,
        "bit-complement latency {} vs unblocked {expect}",
        r.avg_latency
    );
    // No traffic should touch level-1-internal turns: every worm goes
    // through the top; up-link rates at the top level equal those at the
    // bottom scaled by the fan-in.
    let up1 = r.class(ChannelClass::Up { from: 1 }).unwrap();
    let up2 = r.class(ChannelClass::Up { from: 2 }).unwrap();
    assert!(up1.lambda > 0.0 && up2.lambda > 0.0);
}

#[test]
fn single_switch_tree_latency_is_s_plus_one() {
    // N=4, n=1: every path is inject + eject (D = 2); latency = s + 1.
    let params = BftParams::new(4, 2, 1).unwrap();
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let traffic = TrafficConfig::new(0.00005, 8).unwrap();
    let r = run_simulation(&router, &tiny_cfg(7), &traffic);
    assert!(!r.saturated);
    assert!(
        r.avg_latency >= 9.0 - 1e-9 && r.avg_latency < 9.5,
        "single-switch latency {} vs unblocked 9",
        r.avg_latency
    );
}

#[test]
fn single_flit_worms_work() {
    // s = 1: degenerate worms (every flit is head and tail). Latency = D.
    let params = BftParams::paper(16).unwrap();
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let traffic = TrafficConfig::new(0.0001, 1)
        .unwrap()
        .with_pattern(DestinationPattern::HalfShift);
    let r = run_simulation(&router, &tiny_cfg(9), &traffic);
    assert!(!r.saturated);
    assert!(
        r.avg_latency >= 4.0 - 1e-9 && r.avg_latency < 4.3,
        "1-flit HalfShift latency {} vs unblocked D=4",
        r.avg_latency
    );
    // Ejection hold time is exactly 1 cycle.
    let ej = r.class(ChannelClass::Ejection).unwrap();
    assert!((ej.mean_service - 1.0).abs() < 1e-9);
}

#[test]
fn worms_longer_than_any_path_hold_the_injection_channel_s_cycles() {
    // The injection channel is held from grant until the tail leaves:
    // exactly s cycles when unblocked, independent of path length.
    let params = BftParams::paper(16).unwrap();
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let traffic = TrafficConfig::new(0.00004, 64).unwrap(); // worms much longer than D=8
    let r = run_simulation(&router, &tiny_cfg(11), &traffic);
    assert!(!r.saturated);
    let inj = r.class(ChannelClass::Injection).unwrap();
    // Blocked cycles extend the hold, never shorten it; at this rate the
    // mean must sit within a fraction of a cycle of the unblocked s.
    assert!(
        inj.mean_service >= 64.0 - 1e-9 && inj.mean_service < 64.5,
        "unblocked injection hold {} vs s=64",
        inj.mean_service
    );
}

#[test]
fn utilization_equals_lambda_times_service() {
    // Little's-law style identity per channel class: utilization = λ·x̄
    // (both measured over the same window, so it holds up to edge effects).
    let params = BftParams::paper(64).unwrap();
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let traffic = TrafficConfig::from_flit_load(0.05, 16).unwrap();
    let r = run_simulation(&router, &tiny_cfg(13), &traffic);
    assert!(!r.saturated);
    for cs in &r.class_stats {
        if cs.grants < 100 {
            continue;
        }
        let predicted = cs.lambda * cs.mean_service;
        assert!(
            (cs.utilization - predicted).abs() < 0.02 * predicted.max(0.01),
            "{}: utilization {} vs λ·x̄ {predicted}",
            cs.class,
            cs.utilization
        );
    }
}

#[test]
fn grants_spread_over_every_member_of_a_wide_up_bundle() {
    // A (4, 9) tree has 9-wide up-link bundles. A grant picks uniformly
    // among the free members, so no bundle position may be starved: each
    // position's busy cycles, summed over the bundles, must reach half the
    // per-position mean.
    let tree = ButterflyFatTree::new(BftParams::new(4, 9, 2).unwrap());
    let router = BftRouter::new(&tree);
    let cfg = SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: 8_000,
        drain_cap_cycles: 30_000,
        seed: 7,
        batches: 4,
    };
    let traffic = TrafficConfig::from_flit_load(0.1, 16).unwrap();
    let r = run_simulation_observed(
        &router,
        &cfg,
        &traffic,
        &LaneConfig::single(),
        EngineKind::default(),
        &ObsConfig::counters_only(),
    );
    let snap = r.obs.expect("observer attached");
    let mut busy = [0u64; 9];
    let bundles = tree
        .network()
        .stations()
        .iter()
        .filter(|st| st.servers() > 1);
    for st in bundles {
        assert_eq!(st.channels.len(), busy.len());
        for (pos, ch) in st.channels.iter().enumerate() {
            busy[pos] += snap.channels[ch.index()].busy_cycles;
        }
    }
    let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
    assert!(mean > 0.0, "no up-bundle traffic");
    for (pos, &b) in busy.iter().enumerate() {
        assert!(
            b as f64 >= 0.5 * mean,
            "bundle position {pos} busy {b} cycles vs mean {mean}: {busy:?}"
        );
    }
}

/// A 3×3 mesh router that, from every other switch, names a channel into
/// the destination's switch, wherever that channel starts, and ejects
/// there: unless the two switches are neighbours, the route does not leave
/// the worm's head node.
struct Teleporting(Mesh);

impl FlowRouting for Teleporting {
    fn network(&self) -> &ChannelNetwork {
        self.0.network()
    }

    fn route(&self, node: NodeId, dest: usize) -> Route {
        let net = self.0.network();
        let target = self.0.switch(dest);
        if node == target {
            return Route::Channel(net.processors()[dest].eject);
        }
        let into = net
            .node(target)
            .in_channels
            .iter()
            .copied()
            .find(|&ch| matches!(net.node(net.channel(ch).src).kind, NodeKind::Switch { .. }));
        Route::Channel(into.expect("a mesh switch has switch neighbours"))
    }
}

impl Router for Teleporting {
    fn label(&self) -> String {
        "teleporting 3x3 mesh".to_string()
    }
}

#[test]
fn a_route_that_does_not_leave_the_head_node_is_unroutable() {
    // The engine grants only a station at the worm's head node: a worm
    // routed anywhere else is killed and counted unroutable instead of
    // jumping, so every live path stays a walk of the network.
    let router = Teleporting(Mesh::new(3, 2).unwrap());
    let cfg = tiny_cfg(3);
    let traffic = TrafficConfig::from_flit_load(0.05, 4).unwrap();
    let mut engine = Engine::with_lanes(&router, &cfg, &traffic, &LaneConfig::single());
    while engine.now() < 1_500 {
        engine.step_many(1);
        if let Err(e) = engine.check_invariants() {
            panic!("cycle {}: {e}", engine.now());
        }
    }
    let r = run_simulation(&router, &cfg, &traffic);
    assert!(r.messages_unroutable > 0, "no teleport was refused: {r:?}");
    assert_eq!(
        r.messages_completed + r.messages_unroutable + r.messages_incomplete,
        r.messages_measured,
        "every measured message is accounted for"
    );
}
