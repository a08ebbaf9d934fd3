//! Workloads: one traffic description driving both the analytical model
//! and the simulator.
//!
//! ```text
//! cargo run --release --example workloads
//! ```

use wormsim::prelude::*;
use wormsim::sim::config::SimConfig;
use wormsim::sim::router::BftRouter;

fn main() {
    let params = BftParams::paper(64).expect("64 = 4^3");
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let s = 16u32;
    let load = 0.04; // flits/cycle/PE
    let lambda0 = load / f64::from(s);
    let cfg = SimConfig::quick();

    println!("butterfly fat-tree N=64, s={s} flits, offered load {load} flits/cycle/PE\n");
    println!(
        "{:<22} {:>9} {:>9} {:>9}",
        "pattern", "D-bar", "model L", "sim L"
    );

    for pattern in [
        DestinationPattern::Uniform,
        DestinationPattern::hot_spot(),
        DestinationPattern::BitComplement,
        DestinationPattern::Transpose,
        DestinationPattern::Tornado,
        DestinationPattern::NearestNeighbor,
    ] {
        // Model side: exact per-channel flows through the tree's routing.
        let flows = FlowVector::build(&tree, &pattern).expect("flows");
        let mut model =
            FlowModelSweep::new(tree.network(), &flows, f64::from(s)).expect("model builds");
        let predicted = model
            .latency_at(lambda0, &ModelOptions::paper())
            .map(|l| format!("{:9.2}", l.total))
            .unwrap_or_else(|_| "      SAT".into());
        // Simulator side: the identical pattern, sampled per message.
        let traffic = TrafficConfig::from_flit_load(load, s)
            .expect("valid load")
            .with_pattern(pattern);
        let r = run_simulation(&router, &cfg, &traffic);
        let simulated = if r.saturated {
            "      SAT".to_string()
        } else {
            format!("{:9.2}", r.avg_latency)
        };
        println!(
            "{:<22} {:>9.3} {} {}",
            pattern.label(),
            flows.avg_distance(),
            predicted,
            simulated
        );
    }

    // Bursty sources: same mean rate, very different latency.
    println!("\nMMPP burstiness at uniform destinations, mean load {load}:");
    for (label, arrival) in [
        ("poisson".to_string(), ArrivalProcess::Poisson),
        (
            "mmpp 4x / 20% / 200cyc".to_string(),
            ArrivalProcess::Mmpp(MmppProfile::default_bursty()),
        ),
        (
            "mmpp 8x / 10% / 400cyc".to_string(),
            ArrivalProcess::Mmpp(MmppProfile::new(8.0, 0.1, 400.0).expect("valid profile")),
        ),
    ] {
        let traffic = TrafficConfig::from_flit_load(load, s)
            .expect("valid load")
            .with_arrival(arrival);
        let r = run_simulation(&router, &cfg, &traffic);
        println!(
            "  {label:<24} I(disp) {:5.2}  sim L {:7.2}{}",
            arrival.index_of_dispersion(lambda0),
            r.avg_latency,
            if r.saturated { "  (saturated)" } else { "" }
        );
    }
}
