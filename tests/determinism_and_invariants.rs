//! Reproducibility and structural-invariant checks of the simulator.

use wormsim::prelude::*;
use wormsim::sim::config::{SimConfig, TrafficConfig};
use wormsim::sim::engine::Engine;
use wormsim::sim::router::BftRouter;
use wormsim::sim::runner::{run_simulation, sweep_traffic};
use wormsim_testutil::{mix_seed, quick_sim_config, test_traffic, TEST_SEED};

/// Exact, total encoding of a [`SimResult`] — every field, floats by bit
/// pattern. The exhaustive destructure (no `..` rest pattern) makes adding
/// a field to `SimResult` a compile error here, so replay tests cannot
/// silently ignore a drifting field.
fn fingerprint(r: &SimResult) -> String {
    let SimResult {
        topology,
        num_processors,
        worm_flits,
        lanes,
        lane_stats,
        offered_message_rate,
        offered_flit_load,
        avg_latency,
        latency_ci95,
        latency_p50,
        latency_p95,
        latency_p99,
        latency_max,
        injection_wait_mean,
        messages_measured,
        messages_completed,
        messages_incomplete,
        messages_unroutable,
        delivered_flit_load,
        saturated,
        backlog_growth,
        cycles_run,
        cycles_skipped,
        max_active_worms,
        class_stats,
        seed,
        engine,
        obs,
    } = r;
    let mut s = String::new();
    use std::fmt::Write as _;
    let _ = write!(
        s,
        "{};{};{};{:x};{:x};{:x};{:x};{:x};{:x};{:x};{:x};{};{};{};{};{:x};{};{};{};{};{};{};{}",
        topology,
        num_processors,
        worm_flits,
        offered_message_rate.to_bits(),
        offered_flit_load.to_bits(),
        avg_latency.to_bits(),
        latency_p50.to_bits(),
        latency_p95.to_bits(),
        latency_p99.to_bits(),
        latency_max.to_bits(),
        injection_wait_mean.to_bits(),
        messages_measured,
        messages_completed,
        messages_incomplete,
        messages_unroutable,
        delivered_flit_load.to_bits(),
        saturated,
        backlog_growth,
        cycles_run,
        // Deterministic for a fixed fast-forward setting (and always
        // replayed under the same one here).
        cycles_skipped,
        max_active_worms,
        seed,
        class_stats.len(),
    );
    for c in class_stats {
        let _ = write!(
            s,
            ";{:?}:{}:{}:{:x}:{:x}:{:x}:{:x}",
            c.class,
            c.channels,
            c.grants,
            c.lambda.to_bits(),
            c.mean_service.to_bits(),
            c.mean_wait.to_bits(),
            c.utilization.to_bits()
        );
    }
    let _ = write!(s, ";lanes={lanes}");
    for l in lane_stats {
        let _ = write!(
            s,
            ";L{}:{}:{:x}:{:x}",
            l.lane,
            l.grants,
            l.mean_hold.to_bits(),
            l.utilization.to_bits()
        );
    }
    // latency_ci95 is NaN for tiny populations; NaN != NaN, so compare its
    // bit pattern too rather than leaving it out.
    let _ = write!(s, ";{:x}", latency_ci95.to_bits());
    let _ = write!(s, ";engine={}", engine.label());
    // Observability snapshot: absent for bare runs; when present, digest
    // the counters, per-channel totals and event stream so observed runs
    // replay bit-for-bit too.
    match obs {
        None => {
            let _ = write!(s, ";obs=none");
        }
        Some(o) => {
            let _ = write!(
                s,
                ";obs={}:{}:{}:{}:{}:{}:{}:{}:{}:{}:{}",
                o.injected,
                o.delivered,
                o.route_decisions,
                o.lane_grants,
                o.worm_hops,
                o.stalls_link_busy,
                o.stalls_no_free_lane,
                o.stalls_fcfs_queued,
                o.stalls_dead_link,
                o.unroutable,
                o.events.len(),
            );
            let busy: u64 = o.channels.iter().map(|c| c.busy_cycles).sum();
            let stalled: u64 = o.channels.iter().map(|c| c.stalled_cycles).sum();
            let _ = write!(s, ":{busy}:{stalled}");
        }
    }
    s
}

#[test]
fn replay_same_seed_identical_simresult_different_seed_differs() {
    let params = BftParams::paper(64).unwrap();
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let cfg = quick_sim_config(TEST_SEED);
    let traffic = test_traffic(0.03, 16);

    let a = run_simulation(&router, &cfg, &traffic);
    let b = run_simulation(&router, &cfg, &traffic);
    assert_eq!(
        fingerprint(&a),
        fingerprint(&b),
        "same seed must replay the complete SimResult bit-for-bit"
    );

    let c = run_simulation(&router, &cfg.with_seed(mix_seed(TEST_SEED, 1)), &traffic);
    assert_eq!(
        c.seed,
        mix_seed(TEST_SEED, 1),
        "seed must be recorded in the result"
    );
    assert_ne!(
        fingerprint(&a),
        fingerprint(&c),
        "a different seed must produce a different trajectory"
    );
    // The operating point itself is seed-independent.
    assert_eq!(a.num_processors, c.num_processors);
    assert_eq!(a.worm_flits, c.worm_flits);
    assert_eq!(a.offered_flit_load.to_bits(), c.offered_flit_load.to_bits());
}

#[test]
fn identical_seeds_reproduce_bit_identical_results() {
    let params = BftParams::paper(64).unwrap();
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let cfg = SimConfig::quick().with_seed(100);
    let traffic = TrafficConfig::from_flit_load(0.03, 16).unwrap();
    let a = run_simulation(&router, &cfg, &traffic);
    let b = run_simulation(&router, &cfg, &traffic);
    assert_eq!(a.avg_latency.to_bits(), b.avg_latency.to_bits());
    assert_eq!(a.messages_completed, b.messages_completed);
    assert_eq!(a.cycles_run, b.cycles_run);
    assert_eq!(
        a.injection_wait_mean.to_bits(),
        b.injection_wait_mean.to_bits()
    );
    for (sa, sb) in a.class_stats.iter().zip(&b.class_stats) {
        assert_eq!(sa.grants, sb.grants);
        assert_eq!(sa.mean_service.to_bits(), sb.mean_service.to_bits());
    }
}

#[test]
fn parallel_sweep_equals_sequential_runs() {
    // The parallel sweep derives per-point seeds deterministically, so
    // running points one at a time must give identical numbers.
    let params = BftParams::paper(16).unwrap();
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let cfg = SimConfig::quick().with_seed(7);
    let loads = [0.01, 0.03, 0.06];
    let base = TrafficConfig::new(0.0, 16).unwrap();
    let swept = sweep_traffic(&router, &cfg, &base, &LaneConfig::single(), &loads).unwrap();
    for (i, &load) in loads.iter().enumerate() {
        // testutil's mix_seed encodes the same derivation the sweep uses.
        let seed = mix_seed(cfg.seed, i as u64);
        let single = run_simulation(
            &router,
            &cfg.with_seed(seed),
            &TrafficConfig::from_flit_load(load, 16).unwrap(),
        );
        assert_eq!(single.avg_latency.to_bits(), swept[i].avg_latency.to_bits());
    }
}

#[test]
fn engine_invariants_hold_under_load() {
    // Step a heavily loaded engine and re-check structural invariants
    // (channel holders consistent, queue membership exclusive) repeatedly.
    let params = BftParams::paper(64).unwrap();
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let cfg = SimConfig::quick().with_seed(57);
    let traffic = TrafficConfig::from_flit_load(0.12, 24).unwrap(); // near/over knee
    let mut engine = Engine::with_lanes(&router, &cfg, &traffic, &LaneConfig::single());
    for round in 0..40 {
        engine.step_many(250);
        engine
            .check_invariants()
            .unwrap_or_else(|e| panic!("invariant violated after round {round}: {e}"));
    }
    assert!(engine.generated_total() > 0);
    assert!(engine.completed_total() > 0);
}

#[test]
fn conservation_every_generated_message_is_eventually_delivered() {
    // Below saturation with traffic stopped... we approximate: run a
    // stable load, then check generated == completed + in-flight, and that
    // in-flight is bounded by a small constant.
    let params = BftParams::paper(16).unwrap();
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let cfg = SimConfig {
        warmup_cycles: 500,
        measure_cycles: 4_000,
        drain_cap_cycles: 30_000,
        seed: 77,
        batches: 4,
    };
    let traffic = TrafficConfig::from_flit_load(0.05, 16).unwrap();
    let r = run_simulation(&router, &cfg, &traffic);
    assert!(!r.saturated);
    assert_eq!(r.messages_incomplete, 0);
    assert_eq!(r.messages_completed, r.messages_measured);
}

#[test]
fn different_seeds_vary_but_agree_statistically() {
    let params = BftParams::paper(64).unwrap();
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let traffic = TrafficConfig::from_flit_load(0.02, 16).unwrap();
    let mut means = Vec::new();
    for seed in [1u64, 2, 3] {
        let cfg = SimConfig::quick().with_seed(seed);
        let r = run_simulation(&router, &cfg, &traffic);
        assert!(!r.saturated);
        means.push(r.avg_latency);
    }
    assert!(
        means[0] != means[1] || means[1] != means[2],
        "seeds must differ"
    );
    let avg: f64 = means.iter().sum::<f64>() / 3.0;
    for m in &means {
        assert!(
            (m - avg).abs() / avg < 0.02,
            "seed variance too high: {means:?}"
        );
    }
}
