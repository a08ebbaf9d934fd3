//! Graceful degradation: knock out 5% of the fabric links on a 64-processor
//! butterfly fat-tree and compare the degraded analytical model against the
//! fault-aware simulator routing around the same dead links.
//!
//! ```text
//! cargo run --release --example failures            # 5% knockout, seed 7
//! cargo run --release --example failures -- 0.08    # 8% knockout
//! cargo run --release --example failures -- 0.08 11 # pick the seed too
//! ```
//!
//! Injection/ejection channels are protected (a dead PE attachment is a
//! dead *processor*, not a fabric fault — use `FaultPlan::kill_switch` for
//! that); the knockout only thins the switch-to-switch up/down bundles.
//! If the chosen seed disconnects the fabric, the example reports which
//! processor pairs became unreachable and exits instead of simulating.

use wormsim::prelude::*;
use wormsim::sim::config::{SimConfig, TrafficConfig};
use wormsim::sim::router::FaultedBftRouter;
use wormsim::sim::runner::run_simulation;

fn main() {
    let mut args = std::env::args().skip(1);
    let fraction: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0.05);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(7);
    let s = 16u32;

    let params = BftParams::paper(64).expect("power of 4");
    let tree = ButterflyFatTree::new(params);
    let plan = wormsim::faults::link_faults(tree.network(), fraction, seed)
        .expect("fraction must be in [0, 1)");
    println!(
        "BFT-64, knocking out {:.0}% of fabric links (seed {seed}): {}",
        100.0 * fraction,
        plan.summary()
    );

    let bft = FaultedBft::new(&tree, plan.clone()).expect("plan fits this tree");
    if !bft.fully_connected() {
        println!(
            "fabric DISCONNECTED: {} src->dst pairs unreachable, e.g.:",
            bft.disconnected_pairs()
        );
        let examples = (0..64)
            .flat_map(|src| (0..64).map(move |dst| (src, dst)))
            .filter(|&(src, dst)| src != dst && !bft.source_ok(src, dst))
            .take(5);
        for (src, dst) in examples {
            println!("  PE {src} can no longer reach PE {dst}");
        }
        println!("(rerun with another seed, or simulate anyway to watch the");
        println!(" unroutable counter — the engines never hang on a partition)");
        return;
    }

    // Degraded model: uniform flows over the surviving channels, up-bundle
    // server counts reduced to the links that are still alive.
    let flows = FlowVector::build(&bft, &DestinationPattern::Uniform).expect("connected");
    let alive = plan.alive_servers(tree.network());
    let mut model =
        FlowModelSweep::new_with_servers(tree.network(), &flows, f64::from(s), Some(&alive))
            .expect("a connected fabric prices");
    let router = FaultedBftRouter::new(&tree, plan).expect("plan fits this tree");
    let cfg = SimConfig::quick();

    println!(
        "\n{:>8}  {:>9}  {:>9}  {:>7}  {:>10}",
        "load", "model", "sim", "err%", "unroutable"
    );
    for load in [0.02, 0.04, 0.06, 0.08, 0.10] {
        let lambda0 = load / f64::from(s);
        let predicted = model.latency_at(lambda0, &ModelOptions::paper());
        let traffic = TrafficConfig::from_flit_load(load, s).expect("valid load");
        let r = run_simulation(&router, &cfg, &traffic);
        match (predicted, r.saturated) {
            (Ok(m), false) => println!(
                "{:>8.3}  {:>9.2}  {:>9.2}  {:>+7.1}  {:>10}",
                load,
                m.total,
                r.avg_latency,
                100.0 * (m.total - r.avg_latency) / r.avg_latency,
                r.messages_unroutable
            ),
            (m, _) => println!(
                "{:>8.3}  {:>9}  {:>9.2}  {:>7}  {:>10}",
                load,
                m.map(|v| format!("{:.2}", v.total))
                    .unwrap_or_else(|_| "SAT".into()),
                r.avg_latency,
                "-",
                r.messages_unroutable
            ),
        }
    }
    println!("\n(the degraded model saturates earlier than the pristine fabric —");
    println!(" that shift IS the capacity cost of the dead links)");
}
