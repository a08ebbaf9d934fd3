//! Observability-layer integration tests: instrumentation transparency
//! (observed runs are bit-for-bit the bare runs, snapshots identical
//! across both engine cores), the per-channel conservation laws,
//! the windowed time series (per-window sums reconcile exactly with the
//! run totals on every core, faulted fabrics included), tail-quantile
//! accuracy of the log-linear histogram, and exporter well-formedness.

use proptest::prelude::*;
use wormsim::obs::export::{events_to_chrome_trace, events_to_jsonl, json_is_well_formed};
use wormsim::prelude::*;
use wormsim_faults::link_faults;
use wormsim_testutil::differential::assert_observation_transparent;
use wormsim_testutil::mix_seed;

const ALL_ENGINES: [EngineKind; 1] = [EngineKind::FastForward];

fn small_cfg(seed: u64) -> SimConfig {
    SimConfig {
        warmup_cycles: 300,
        measure_cycles: 2_500,
        drain_cap_cycles: 12_000,
        seed,
        batches: 4,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole invariant, fuzzed: for arbitrary operating points the
    /// observer (a) changes nothing — the observed `SimResult` equals the
    /// bare one and the skip schedule is untouched on every engine core —
    /// (b) captures the same snapshot on all cores, and (c) the snapshot
    /// satisfies Σ(busy + stalled + idle) = cycles_run per channel and
    /// Σ lane grants = Σ worm hops.
    #[test]
    fn observation_is_transparent_and_conserves(
        n_idx in 0usize..2,
        seed in 0u64..500,
        load_pct in 1u32..110,
        lanes_idx in 0usize..3,
        events in any::<bool>(),
    ) {
        let n = [16usize, 64][n_idx];
        let lanes = [1u32, 2, 4][lanes_idx];
        let tree = ButterflyFatTree::new(BftParams::paper(n).unwrap());
        let router = wormsim::sim::router::BftRouter::new(&tree);
        let cfg = small_cfg(mix_seed(0xB0B0, seed));
        let traffic = TrafficConfig::from_flit_load(0.0015 * f64::from(load_pct), 16).unwrap();
        let lc = LaneConfig::new(lanes, LaneAllocatorKind::FirstFree).unwrap();
        let obs = if events { ObsConfig::full() } else { ObsConfig::counters_only() };
        let observed = assert_observation_transparent(
            &router,
            &cfg,
            &traffic,
            &lc,
            &ALL_ENGINES,
            &obs,
            &format!("obs-proptest n={n} lanes={lanes} seed={seed}"),
        );
        let snap = observed.obs.as_ref().unwrap();
        prop_assert_eq!(snap.cycles, observed.cycles_run);
        prop_assert!(snap.events_dropped == 0);
        prop_assert_eq!(!snap.events.is_empty(), events && snap.injected > 0);
    }

    /// The windowed time series, fuzzed across operating points, window
    /// widths, lane counts, worm lengths and (optionally) faulted fabrics:
    /// the observed run stays bit-transparent on every core with the
    /// sampler attached, the snapshots (time series included, via
    /// `SimSnapshot: PartialEq`) agree across cores, and Σ per-window
    /// figures reconcile *exactly* with the run-total snapshot fields.
    #[test]
    fn windowed_time_series_reconciles_across_cores(
        seed in 0u64..300,
        load_pct in 1u32..90,
        window_idx in 0usize..3,
        lanes in 1u32..3,
        long_worms in any::<bool>(),
        faulted in any::<bool>(),
    ) {
        let window = [64u64, 100, 250][window_idx];
        // 64-flit worms on N = 64 drain silently for about 57 cycles at
        // L = 1, across window boundaries of every width.
        let flits = if long_worms { 64 } else { 16 };
        let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
        let cfg = small_cfg(mix_seed(0x71AE, seed));
        let traffic = TrafficConfig::from_flit_load(0.0015 * f64::from(load_pct), flits).unwrap();
        let lc = LaneConfig::new(lanes, LaneAllocatorKind::FirstFree).unwrap();
        let obs = ObsConfig::counters_only().with_time_series(window);
        let label = format!(
            "ts-proptest seed={seed} W={window} L={lanes} s={flits} faulted={faulted}"
        );
        let observed = if faulted {
            let plan = link_faults(tree.network(), 0.05, mix_seed(0xFA17, seed)).unwrap();
            let router = FaultedBftRouter::new(&tree, plan).unwrap();
            assert_observation_transparent(&router, &cfg, &traffic, &lc, &ALL_ENGINES, &obs, &label)
        } else {
            let router = wormsim::sim::router::BftRouter::new(&tree);
            assert_observation_transparent(&router, &cfg, &traffic, &lc, &ALL_ENGINES, &obs, &label)
        };
        let snap = observed.obs.as_ref().unwrap();
        let ts = snap.time_series.as_ref().unwrap();
        prop_assert_eq!(ts.window_cycles, window);
        prop_assert_eq!(ts.cycles, snap.cycles);
        // The reconciliation, spelled out (check_conservation holds the
        // same law, but this keeps the contract visible if that weakens).
        prop_assert_eq!(ts.total_injected(), snap.injected);
        prop_assert_eq!(ts.total_delivered(), snap.delivered);
        prop_assert_eq!(ts.total_unroutable(), snap.unroutable);
        prop_assert_eq!(ts.total_latency_sum(), snap.latency.sum());
        let busy: u64 = snap.channels.iter().map(|u| u.busy_cycles).sum();
        let stalled: u64 = snap.channels.iter().map(|u| u.stalled_cycles).sum();
        prop_assert_eq!(ts.total_busy_cycles(), busy);
        prop_assert_eq!(ts.total_stalled_cycles(), stalled);
        // Retained windows are contiguous and cover the run's tail.
        for pair in ts.windows.windows(2) {
            prop_assert_eq!(pair[1].index, pair[0].index + 1);
        }
        if let Some(last) = ts.windows.last() {
            prop_assert_eq!(last.index, (ts.cycles - 1) / window);
        }
    }
}

#[test]
fn exported_artifacts_are_well_formed_json() {
    let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
    let router = wormsim::sim::router::BftRouter::new(&tree);
    let cfg = small_cfg(42);
    let traffic = TrafficConfig::from_flit_load(0.08, 16).unwrap();
    let lc = LaneConfig::new(2, LaneAllocatorKind::FirstFree).unwrap();
    let r = run_simulation_observed(
        &router,
        &cfg,
        &traffic,
        &lc,
        EngineKind::FastForward,
        &ObsConfig::full(),
    );
    let snap = r.obs.as_ref().unwrap();
    assert!(snap.injected > 0 && !snap.events.is_empty());
    snap.check_conservation().unwrap();

    let jsonl = events_to_jsonl(&snap.events);
    assert_eq!(jsonl.lines().count(), snap.events.len());
    for line in jsonl.lines() {
        assert!(json_is_well_formed(line), "malformed JSONL line: {line}");
    }
    // Every lifecycle kind appears at this load.
    for kind in ["inject", "route", "lane_grant", "drain", "deliver"] {
        assert!(
            jsonl.contains(&format!("\"ev\":\"{kind}\"")),
            "no {kind} events in the stream"
        );
    }

    let chrome = events_to_chrome_trace(&snap.events, &[], "obs test");
    assert!(json_is_well_formed(&chrome), "chrome trace is invalid JSON");
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("\"ph\":\"B\"") && chrome.contains("\"ph\":\"E\""));
}

#[test]
fn snapshot_registry_round_trips_totals() {
    let tree = ButterflyFatTree::new(BftParams::paper(16).unwrap());
    let router = wormsim::sim::router::BftRouter::new(&tree);
    let cfg = small_cfg(7);
    let traffic = TrafficConfig::from_flit_load(0.05, 16).unwrap();
    let lc = LaneConfig::new(1, LaneAllocatorKind::FirstFree).unwrap();
    let r = run_simulation_observed(
        &router,
        &cfg,
        &traffic,
        &lc,
        EngineKind::FastForward,
        &ObsConfig::counters_only(),
    );
    let snap = r.obs.as_ref().unwrap();
    let reg = snap.registry();
    assert_eq!(reg.counter_by_name("worms_injected"), Some(snap.injected));
    assert_eq!(reg.counter_by_name("lane_grants"), Some(snap.lane_grants));
    assert_eq!(reg.counter_by_name("worm_hops"), Some(snap.worm_hops));
}

/// Acceptance for the log-linear histogram upgrade: on a seeded observed
/// run, every quantile upper bound from the snapshot's latency histogram
/// brackets the exact sorted-sample order statistic from above within the
/// advertised relative error (1/16 = 6.25%), through p99.9.
#[test]
fn histogram_quantiles_match_exact_order_statistics_on_a_real_run() {
    let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
    let router = wormsim::sim::router::BftRouter::new(&tree);
    let cfg = SimConfig {
        warmup_cycles: 500,
        measure_cycles: 6_000,
        drain_cap_cycles: 30_000,
        seed: 0xFACADE,
        batches: 4,
    };
    let traffic = TrafficConfig::from_flit_load(0.09, 16).unwrap();
    let lc = LaneConfig::new(1, LaneAllocatorKind::FirstFree).unwrap();
    let r = run_simulation_observed(
        &router,
        &cfg,
        &traffic,
        &lc,
        EngineKind::FastForward,
        &ObsConfig::full(),
    );
    let snap = r.obs.as_ref().unwrap();
    assert_eq!(snap.events_dropped, 0, "event sink truncated the sample");

    // The exact per-worm latencies, from the lifecycle event stream.
    let mut exact: Vec<u64> = snap
        .events
        .iter()
        .filter_map(|e| match e {
            WormEvent::Deliver { latency, .. } => Some(*latency),
            _ => None,
        })
        .collect();
    exact.sort_unstable();
    assert_eq!(exact.len() as u64, snap.latency.count(), "sample mismatch");
    assert!(exact.len() >= 1_000, "too few samples for a p99.9 check");
    assert_eq!(exact.iter().sum::<u64>(), snap.latency.sum());

    for q in [0.5, 0.9, 0.99, 0.999] {
        let rank = ((q * exact.len() as f64).ceil() as usize).max(1);
        let truth = exact[rank - 1];
        let bound = snap.latency.quantile_upper_bound(q).unwrap();
        assert!(bound >= truth, "q={q}: bound {bound} < exact {truth}");
        let rel = (bound - truth) as f64 / truth as f64;
        assert!(
            rel <= Histogram::RELATIVE_ERROR_BOUND,
            "q={q}: relative error {rel:.4} exceeds {}",
            Histogram::RELATIVE_ERROR_BOUND
        );
    }
    assert_eq!(
        snap.latency.quantile_upper_bound(1.0),
        snap.latency.max(),
        "p100 must clamp to the exact max"
    );
}

/// End-to-end steady-state detection on a real windowed run: the MSER-5
/// truncation yields a steady throughput close to the run's delivered
/// rate, and warmup never eats more than half the series.
#[test]
fn steady_state_detection_on_a_windowed_run() {
    let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
    let router = wormsim::sim::router::BftRouter::new(&tree);
    let cfg = SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: 9_000,
        drain_cap_cycles: 40_000,
        seed: 0x5EED,
        batches: 4,
    };
    let traffic = TrafficConfig::from_flit_load(0.1, 16).unwrap();
    let lc = LaneConfig::new(1, LaneAllocatorKind::FirstFree).unwrap();
    let obs = ObsConfig::counters_only().with_time_series(100);
    let r = run_simulation_observed(&router, &cfg, &traffic, &lc, EngineKind::FastForward, &obs);
    let snap = r.obs.as_ref().unwrap();
    let ts = snap.time_series.as_ref().unwrap();
    assert!(ts.windows.len() >= 60, "want a long series");

    let ss = detect_steady_state(ts).expect("series long enough for MSER-5");
    assert!(
        ss.warmup_windows * 2 <= ts.windows.len(),
        "MSER truncation beyond half the series: {}",
        ss.warmup_windows
    );
    assert_eq!(
        ss.warmup_cycles,
        ss.warmup_windows as u64 * ts.window_cycles
    );
    let run_rate = snap.delivered as f64 / snap.cycles as f64;
    assert!(
        (ss.throughput_mean - run_rate).abs() <= 0.5 * run_rate,
        "steady throughput {} implausibly far from run rate {run_rate}",
        ss.throughput_mean
    );
    assert!(ss.steady_latency.is_some() && ss.whole_run_latency.is_some());
}
