//! Observability walkthrough: attach the observer to a simulation, read
//! the per-channel usage and stall-cause breakdown, export the worm
//! lifecycle as JSONL and a Chrome/Perfetto trace, and capture the
//! analytical solver's convergence telemetry.
//!
//! ```text
//! cargo run --release --example observability
//! ```

use wormsim::model::framework::{ring_spec, WarmStart};
use wormsim::obs::export::{events_to_chrome_trace, events_to_jsonl};
use wormsim::prelude::*;
use wormsim::sim::router::BftRouter;

fn main() {
    // ---- Observe a simulation run. ----
    let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
    let router = BftRouter::new(&tree);
    let cfg = SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: 8_000,
        drain_cap_cycles: 40_000,
        seed: 7,
        batches: 4,
    };
    let traffic = TrafficConfig::from_flit_load(0.1, 16).unwrap();
    let lanes = LaneConfig::new(2, LaneAllocatorKind::FirstFree).unwrap();

    // Runs without an observer (every other runner) cost nothing extra;
    // `full()` adds the per-event sink on top of the counters.
    let result = run_simulation_observed(
        &router,
        &cfg,
        &traffic,
        &lanes,
        EngineKind::FastForward,
        &ObsConfig::full(),
    );
    let snap = result.obs.as_ref().expect("observer was enabled");
    snap.check_conservation().expect("accounting conserves");

    println!("BFT N=64, load 0.1, L=2 — observed run");
    println!(
        "  {} worms injected, {} delivered, {} events ({} dropped)",
        snap.injected,
        snap.delivered,
        snap.events.len(),
        snap.events_dropped
    );
    println!(
        "  avg channel utilization {:.1}%, stalled {:.1}%",
        100.0 * snap.avg_channel_utilization(),
        100.0 * snap.avg_channel_stall_fraction()
    );
    println!(
        "  stalls: link-busy {}, no-free-lane {}, fcfs-queued {}, dead-link {}",
        snap.stalls_link_busy,
        snap.stalls_no_free_lane,
        snap.stalls_fcfs_queued,
        snap.stalls_dead_link
    );
    println!(
        "  delivered latency: mean {:.1} cycles, p99 ≤ {} cycles",
        snap.latency.mean().unwrap_or(0.0),
        snap.latency.quantile_upper_bound(0.99).unwrap_or(0)
    );

    // The scalars are also available as a uniform metrics registry.
    let registry = snap.registry();
    println!(
        "  registry check: worm_hops = {}",
        registry.counter_by_name("worm_hops").unwrap()
    );

    // ---- Export the event stream. ----
    let jsonl = events_to_jsonl(&snap.events);
    let chrome = events_to_chrome_trace(&snap.events, "wormsim example");
    println!(
        "\nExports: {} JSONL bytes, {} Chrome-trace bytes (load the latter in \
         about:tracing or ui.perfetto.dev)",
        jsonl.len(),
        chrome.len()
    );
    println!(
        "  first event: {}",
        jsonl.lines().next().unwrap_or_default()
    );

    // ---- Solver telemetry on the cyclic ring exemplar. ----
    let ring = ring_spec(16, 16.0, 0.002).expect("valid ring");
    let mut telemetry = ModelTelemetry::default();
    ring.solve(
        &ModelOptions::paper(),
        Some(&mut WarmStart::new()),
        Some(&mut telemetry),
    )
    .expect("below the knee");
    println!(
        "\n16-ring accelerated solve: {} evaluations, final residual {:.2e}, \
         Aitken accepted {} / rejected {}",
        telemetry.solver.len(),
        telemetry.solver.final_residual,
        telemetry.solver.aitken_accepts(),
        telemetry.solver.aitken_rejects()
    );
    for row in telemetry.stations.iter().take(3) {
        println!(
            "  station {:<8} λ={:.4} x̄={:.2} W={:.2} util={:.3} inbound-blk={:.3}",
            row.name,
            row.lambda,
            row.service_time,
            row.waiting_time,
            row.utilization,
            row.inbound_blocking
        );
    }
}
