//! Property-based tests: the engine must uphold its invariants and
//! conservation laws for arbitrary small topologies, loads and seeds.

use proptest::prelude::*;
use wormsim_sim::config::{
    DestinationPattern, LaneAllocatorKind, LaneConfig, SimConfig, TrafficConfig,
};
use wormsim_sim::engine::Engine;
use wormsim_sim::router::{BftRouter, HypercubeRouter, MeshRouter};
use wormsim_sim::runner::run_simulation;
use wormsim_topology::bft::{BftParams, ButterflyFatTree};
use wormsim_topology::hypercube::Hypercube;
use wormsim_topology::mesh::Mesh;

fn small_bft() -> impl Strategy<Value = BftParams> {
    (2usize..=4, 1usize..=2, 1u32..=3)
        .prop_filter_map("valid params", |(c, p, n)| BftParams::new(c, p, n).ok())
}

fn pattern() -> impl Strategy<Value = DestinationPattern> {
    prop_oneof![
        Just(DestinationPattern::Uniform),
        Just(DestinationPattern::BitComplement),
        Just(DestinationPattern::HalfShift),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_invariants_hold_for_arbitrary_bfts(
        params in small_bft(),
        seed in 0u64..1000,
        load_pct in 1u32..120, // percent of a rough capacity guess
        flits in 1u32..40,
        pat in pattern(),
    ) {
        let tree = ButterflyFatTree::new(params);
        let router = BftRouter::new(&tree);
        // Rough per-PE capacity guess: scale by tree height so some cases
        // run saturated on purpose (invariants must hold there too).
        let load = 0.002 * f64::from(load_pct);
        let cfg = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 1_500,
            drain_cap_cycles: 4_000,
            seed,
            batches: 4,
        };
        let traffic = TrafficConfig::from_flit_load(load, flits).unwrap().with_pattern(pat);
        let mut engine = Engine::with_lanes(&router, &cfg, &traffic, &LaneConfig::single());
        for _ in 0..8 {
            engine.step_many(400);
            engine.check_invariants().map_err(|e| {
                TestCaseError::fail(format!("{params:?} seed={seed}: {e}"))
            })?;
        }
        prop_assert!(engine.completed_total() <= engine.generated_total());
    }

    #[test]
    fn stable_runs_conserve_messages(
        seed in 0u64..500,
        flits in 4u32..24,
    ) {
        // Comfortably below capacity for a 16-PE (4,2) tree.
        let params = BftParams::paper(16).unwrap();
        let tree = ButterflyFatTree::new(params);
        let router = BftRouter::new(&tree);
        let cfg = SimConfig {
            warmup_cycles: 300,
            measure_cycles: 3_000,
            drain_cap_cycles: 20_000,
            seed,
            batches: 4,
        };
        let traffic = TrafficConfig::from_flit_load(0.03, flits).unwrap();
        let r = run_simulation(&router, &cfg, &traffic);
        prop_assert!(!r.saturated, "0.03 flits/cyc must be stable (seed {seed})");
        prop_assert_eq!(r.messages_incomplete, 0);
        prop_assert_eq!(r.messages_completed, r.messages_measured);
        // Latency is at least the unblocked minimum and finite.
        prop_assert!(r.avg_latency >= f64::from(flits) + 2.0 - 1.0 - 1e-9);
        prop_assert!(r.avg_latency.is_finite());
    }

    #[test]
    fn latency_weakly_increases_with_load(
        seed in 0u64..200,
    ) {
        let params = BftParams::paper(16).unwrap();
        let tree = ButterflyFatTree::new(params);
        let router = BftRouter::new(&tree);
        let cfg = SimConfig {
            warmup_cycles: 500,
            measure_cycles: 6_000,
            drain_cap_cycles: 20_000,
            seed,
            batches: 4,
        };
        let lo = run_simulation(&router, &cfg, &TrafficConfig::from_flit_load(0.01, 16).unwrap());
        let hi = run_simulation(&router, &cfg, &TrafficConfig::from_flit_load(0.09, 16).unwrap());
        prop_assert!(!lo.saturated && !hi.saturated);
        // Allow a tiny tolerance for Monte-Carlo noise at these window sizes.
        prop_assert!(hi.avg_latency > lo.avg_latency - 0.2,
            "latency at 0.09 ({}) should exceed 0.01 ({})", hi.avg_latency, lo.avg_latency);
    }

    #[test]
    fn hypercube_and_mesh_engines_uphold_invariants(
        seed in 0u64..200,
        dim in 2u32..5,
        load_pct in 1u32..60,
    ) {
        let load = 0.005 * f64::from(load_pct);
        let cfg = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 1_000,
            drain_cap_cycles: 3_000,
            seed,
            batches: 4,
        };
        let traffic = TrafficConfig::from_flit_load(load, 8).unwrap();

        let cube = Hypercube::new(dim).unwrap();
        let router = HypercubeRouter::new(&cube);
        let mut engine = Engine::with_lanes(&router, &cfg, &traffic, &LaneConfig::single());
        engine.step_many(2_000);
        engine.check_invariants().map_err(TestCaseError::fail)?;

        let mesh = Mesh::new(3, 2).unwrap();
        let router = MeshRouter::new(&mesh);
        let mut engine = Engine::with_lanes(&router, &cfg, &traffic, &LaneConfig::single());
        engine.step_many(2_000);
        engine.check_invariants().map_err(TestCaseError::fail)?;
    }

    #[test]
    fn multi_lane_engine_upholds_invariants_and_conserves_worms(
        params in small_bft(),
        seed in 0u64..500,
        load_pct in 1u32..120,
        flits in 1u32..40,
        lanes in 2u32..=4,
    ) {
        // The lane invariants (no lane double-grant, conservation of
        // in-flight worms across lanes, stall-list consistency) must hold
        // for arbitrary machines and loads, saturated ones included.
        let tree = ButterflyFatTree::new(params);
        let router = BftRouter::new(&tree);
        let load = 0.002 * f64::from(load_pct);
        let cfg = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 1_500,
            drain_cap_cycles: 4_000,
            seed,
            batches: 4,
        };
        let traffic = TrafficConfig::from_flit_load(load, flits).unwrap();
        let lane_cfg = LaneConfig::new(lanes, LaneAllocatorKind::FirstFree).unwrap();
        let mut engine = Engine::with_lanes(&router, &cfg, &traffic, &lane_cfg);
        for _ in 0..8 {
            engine.step_many(400);
            engine.check_invariants().map_err(|e| {
                TestCaseError::fail(format!("{params:?} seed={seed} L={lanes}: {e}"))
            })?;
        }
        prop_assert!(engine.completed_total() <= engine.generated_total());
    }

    #[test]
    fn single_lane_config_replays_the_default_engine_bit_for_bit(
        seed in 0u64..300,
        load_pct in 1u32..40,
        pat in pattern(),
    ) {
        // `L = 1` must be indistinguishable from the plain engine — same
        // RNG draw sequence, same every-field result.
        let params = BftParams::paper(16).unwrap();
        let tree = ButterflyFatTree::new(params);
        let router = BftRouter::new(&tree);
        let cfg = SimConfig {
            warmup_cycles: 300,
            measure_cycles: 2_500,
            drain_cap_cycles: 8_000,
            seed,
            batches: 4,
        };
        let traffic = TrafficConfig::from_flit_load(0.005 * f64::from(load_pct), 16)
            .unwrap()
            .with_pattern(pat);
        let plain = run_simulation(&router, &cfg, &traffic);
        let single = wormsim_sim::runner::run_simulation_with_lanes(
            &router,
            &cfg,
            &traffic,
            &wormsim_lanes::LaneConfig::single(),
        );
        prop_assert_eq!(plain.avg_latency.to_bits(), single.avg_latency.to_bits());
        prop_assert_eq!(plain.latency_p99.to_bits(), single.latency_p99.to_bits());
        prop_assert_eq!(plain.messages_completed, single.messages_completed);
        prop_assert_eq!(plain.cycles_run, single.cycles_run);
        prop_assert_eq!(plain.cycles_skipped, single.cycles_skipped);
        prop_assert_eq!(plain.lanes, 1u32);
        prop_assert_eq!(single.lanes, 1u32);
    }
}
