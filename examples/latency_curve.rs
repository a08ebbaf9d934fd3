//! Figure 3 in miniature: latency-vs-load curves, model and simulation,
//! for a configurable machine size.
//!
//! ```text
//! cargo run --release --example latency_curve            # N=256
//! cargo run --release --example latency_curve -- 1024    # the paper's N
//! cargo run --release --example latency_curve -- 1024 32 # worm length
//! ```

use wormsim::experiments::ascii_plot::{plot, Series};
use wormsim::prelude::*;
use wormsim::sim::config::SimConfig;
use wormsim::sim::router::BftRouter;
use wormsim::sim::runner::sweep_traffic;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(256);
    let s: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(16);

    let params = BftParams::paper(n).expect("N must be a power of 4");
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let model = BftModel::new(params, f64::from(s));

    let loads: Vec<f64> = (1..=10).map(|i| 0.004 * f64::from(i)).collect();
    println!(
        "N={n}, worms of {s} flits; sweeping {} load points...\n",
        loads.len()
    );

    let cfg = SimConfig {
        measure_cycles: 30_000,
        ..SimConfig::quick()
    };
    let base = TrafficConfig::new(0.0, s).expect("worms need at least one flit");
    let results =
        sweep_traffic(&router, &cfg, &base, &LaneConfig::single(), &loads).expect("valid sweep");

    println!("{:>8}  {:>9}  {:>9}  {:>7}", "load", "model", "sim", "err%");
    let mut model_pts = Vec::new();
    let mut sim_pts = Vec::new();
    for r in &results {
        let m = model
            .latency_at_flit_load(r.offered_flit_load)
            .map(|l| l.total);
        match (m, r.saturated) {
            (Ok(m), false) => {
                println!(
                    "{:>8.4}  {:>9.2}  {:>9.2}  {:>+7.1}",
                    r.offered_flit_load,
                    m,
                    r.avg_latency,
                    100.0 * (m - r.avg_latency) / r.avg_latency
                );
                model_pts.push((r.offered_flit_load, m));
                sim_pts.push((r.offered_flit_load, r.avg_latency));
            }
            (m, _) => println!(
                "{:>8.4}  {:>9}  {:>9.2}  {:>7}",
                r.offered_flit_load,
                m.map(|v| format!("{v:.2}"))
                    .unwrap_or_else(|_| "SAT".into()),
                r.avg_latency,
                "-"
            ),
        }
    }

    println!();
    println!(
        "{}",
        plot(
            &[
                Series::new("model", 'o', model_pts),
                Series::new("sim", 'x', sim_pts)
            ],
            64,
            18,
            "flits/cycle/PE",
            "latency (cycles)"
        )
    );
}
