//! Virtual-channel lanes: how lane count moves the latency/throughput
//! picture, in the simulator and in the analytical model.
//!
//! ```text
//! cargo run --release --example virtual_channels
//! ```

use wormsim::model::bft::BftModel;
use wormsim::prelude::*;
use wormsim::sim::router::BftRouter;

fn main() {
    let params = BftParams::paper(64).unwrap();
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let cfg = SimConfig {
        warmup_cycles: 3_000,
        measure_cycles: 20_000,
        drain_cap_cycles: 60_000,
        seed: 7,
        batches: 8,
    };

    println!("Butterfly fat-tree N=64, s=16 flits — lanes vs latency\n");
    println!("{:>8}  {:>12} {:>12} {:>12}", "load", "L=1", "L=2", "L=4");
    for load in [0.04, 0.10, 0.16, 0.20] {
        let traffic = TrafficConfig::from_flit_load(load, 16).unwrap();
        print!("{load:>8.2}");
        for lanes in [1u32, 2, 4] {
            let lc = LaneConfig::new(lanes, LaneAllocatorKind::FirstFree).unwrap();
            let r = run_simulation_with_lanes(&router, &cfg, &traffic, &lc);
            let tag = if r.saturated { "*" } else { " " };
            print!("  {:>10.2}{tag}", r.avg_latency);
        }
        println!();
    }
    println!("(* = saturated; note the knee moving outward with L)\n");

    // The analytical model accepts the same lane counts.
    println!("Model vs simulation at load 0.10:");
    let traffic = TrafficConfig::from_flit_load(0.10, 16).unwrap();
    for lanes in [1u32, 2, 4] {
        let lc = LaneConfig::new(lanes, LaneAllocatorKind::FirstFree).unwrap();
        let sim = run_simulation_with_lanes(&router, &cfg, &traffic, &lc);
        let model = BftModel::with_options(params, 16.0, ModelOptions::paper().with_lanes(lanes))
            .latency_at_flit_load(0.10)
            .unwrap();
        println!(
            "  L={lanes}: model {:>7.2}  sim {:>7.2}  ({:+.1}%)",
            model.total,
            sim.avg_latency,
            100.0 * (model.total - sim.avg_latency) / sim.avg_latency
        );
    }
}
