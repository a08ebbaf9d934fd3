//! Run orchestration: single simulations, parallel load sweeps and
//! saturation scans. The batch runners validate their
//! inputs, the [`SimConfig`] included, on the calling thread and return
//! [`WorkloadError`] instead of panicking or simulating a config whose
//! statistics mean nothing.

use crate::config::{EngineKind, SimConfig, TrafficConfig};
use crate::engine::Engine;
use crate::router::Router;
use crate::stats::ClassStats;
use wormsim_lanes::{LaneConfig, LaneStats};
use wormsim_obs::{ObsConfig, SimSnapshot};
use wormsim_workload::WorkloadError;

/// Aggregated outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Topology label (e.g. `bft(c=4,p=2,N=1024)`).
    pub topology: String,
    /// Number of processors.
    pub num_processors: usize,
    /// Worm length in flits.
    pub worm_flits: u32,
    /// Virtual-channel lanes per physical channel (1 = the paper's
    /// single-lane channels).
    pub lanes: u32,
    /// Per-lane-index occupancy statistics over the measurement window
    /// (one entry per lane, aggregated across every physical channel).
    pub lane_stats: Vec<LaneStats>,
    /// Offered message rate λ₀ (messages/cycle/PE).
    pub offered_message_rate: f64,
    /// Offered flit load (flits/cycle/PE).
    pub offered_flit_load: f64,
    /// Mean latency (generation → last flit consumed), cycles, over the
    /// measured population.
    pub avg_latency: f64,
    /// Half-width of the ~95% batch-means confidence interval on
    /// [`Self::avg_latency`] (NaN for tiny populations and for fewer than
    /// two batches).
    pub latency_ci95: f64,
    /// Median latency (nearest rank; NaN when no messages completed).
    pub latency_p50: f64,
    /// 95th-percentile latency.
    pub latency_p95: f64,
    /// 99th-percentile latency.
    pub latency_p99: f64,
    /// Worst observed latency.
    pub latency_max: f64,
    /// Mean source-queue wait of measured messages (the paper's `W₀,₁`).
    pub injection_wait_mean: f64,
    /// Messages generated inside the measurement window.
    pub messages_measured: u64,
    /// Of those, how many completed before the drain cap.
    pub messages_completed: u64,
    /// And how many did not (non-zero ⇒ saturated).
    pub messages_incomplete: u64,
    /// Messages generated inside the window that were dropped because
    /// every surviving route to their destination runs through failed
    /// fabric (non-zero only under a fault plan that partitions pairs).
    /// Unroutable messages never become worms and are excluded from the
    /// backlog the saturation detector watches.
    pub messages_unroutable: u64,
    /// Delivered throughput of measured messages, flits/cycle/PE.
    pub delivered_flit_load: f64,
    /// Saturation flag: backlog grew materially or messages failed to drain.
    pub saturated: bool,
    /// Source-queue backlog growth over the measurement window (messages).
    pub backlog_growth: u64,
    /// Total cycles simulated (including warmup and drain).
    pub cycles_run: u64,
    /// Of [`Self::cycles_run`], how many were **not individually walked**:
    /// spans jumped by fast-forwarding, idle or holding only dormant
    /// drains (see the engine's module docs). Always 0 for
    /// [`EngineKind::Reference`].
    /// Diagnostic only: every other field is bit-identical whichever
    /// engine ran — compare against [`Self::engine`] to interpret it.
    pub cycles_skipped: u64,
    /// Which execution core produced this result (results are bit-exact
    /// across cores; recorded so stats consumers can interpret
    /// [`Self::cycles_skipped`] and benchmarks can label runs).
    pub engine: EngineKind,
    /// Peak number of in-flight worms.
    pub max_active_worms: usize,
    /// Per-channel-class audit over the measurement window.
    pub class_stats: Vec<ClassStats>,
    /// Seed the run used (for reproduction).
    pub seed: u64,
    /// Observability snapshot, present when an observer was attached
    /// ([`run_simulation_observed`]). Observation is RNG-neutral: every
    /// other field is bit-identical with or without it, and the snapshot
    /// itself is identical across both [`EngineKind`]s.
    pub obs: Option<SimSnapshot>,
}

impl SimResult {
    /// Looks up the audit entry for a channel class.
    #[must_use]
    pub fn class(&self, class: wormsim_topology::graph::ChannelClass) -> Option<&ClassStats> {
        self.class_stats.iter().find(|s| s.class == class)
    }
}

/// Runs one simulation to completion on the default engine
/// (idle-span fast-forwarding) with single-lane channels.
#[must_use]
pub fn run_simulation<R: Router>(
    router: &R,
    cfg: &SimConfig,
    traffic: &TrafficConfig,
) -> SimResult {
    run_simulation_with_lanes(router, cfg, traffic, &LaneConfig::single())
}

/// Runs one simulation with the given virtual-channel configuration.
///
/// At [`LaneConfig::single`] this is exactly [`run_simulation`] — the lane
/// machinery is bypassed and results are bit-for-bit identical to the
/// single-lane engine (see `tests/lanes_regression.rs`).
#[must_use]
pub fn run_simulation_with_lanes<R: Router>(
    router: &R,
    cfg: &SimConfig,
    traffic: &TrafficConfig,
    lanes: &LaneConfig,
) -> SimResult {
    Engine::with_lanes(router, cfg, traffic, lanes).run()
}

/// Runs one simulation on the selected execution core ([`EngineKind`])
/// with the observability layer attached: worm-lifecycle events,
/// per-channel busy/stalled/idle accounting, per-lane grant tracking and
/// a delivered-latency histogram, returned in [`SimResult::obs`].
///
/// Both cores are bit-exact — the selector trades per-cycle cost, not
/// results (see `testutil::differential` and
/// `tests/fast_forward_replay.rs`), so [`EngineKind::Reference`] exists
/// for equivalence tests. Observation never changes the other fields of
/// the result; its cost is `wormbench --trace 1`'s `obs.trace_overhead`.
/// A bare run on a chosen core is [`Engine::with_lanes`] plus
/// [`Engine::set_engine_kind`].
#[must_use]
pub fn run_simulation_observed<R: Router>(
    router: &R,
    cfg: &SimConfig,
    traffic: &TrafficConfig,
    lanes: &LaneConfig,
    kind: EngineKind,
    obs: &ObsConfig,
) -> SimResult {
    let mut engine = Engine::with_lanes(router, cfg, traffic, lanes);
    engine.set_engine_kind(kind);
    engine.set_observer(obs);
    engine.run()
}

/// [`SimConfig::validate`] for the batch runners, its error carried as
/// [`WorkloadError::InvalidParameter`].
fn check_config(cfg: &SimConfig) -> Result<(), WorkloadError> {
    cfg.validate()
        .map_err(|e| WorkloadError::InvalidParameter(e.to_string()))
}

/// Derives the uncorrelated per-point seed used by [`sweep_traffic`] for
/// point `index`: mixing with a splitmix64-style odd constant keeps the
/// streams uncorrelated while staying reproducible from the base seed.
/// Public (like [`saturation_probe_seed`]) so
/// tests and helper crates can reproduce individual runs without copying
/// the formula.
#[must_use]
pub fn point_seed(base_seed: u64, index: u64) -> u64 {
    base_seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Derives the seed [`find_saturation`] uses for its `index`-th load probe
/// (its own stream constant; index 0 intentionally reuses the base seed so
/// the first probe matches a plain [`run_simulation`] call).
#[must_use]
pub fn saturation_probe_seed(base_seed: u64, index: u64) -> u64 {
    base_seed.wrapping_add(index.wrapping_mul(0x2545_F491_4F6C_DD1D))
}

/// Runs one simulation per offered flit load, carrying `base`'s workload
/// (worm length, pattern and arrival process) to every point with `lanes`
/// lanes per channel; only the offered load varies. Points run in
/// parallel across OS threads (std scoped threads; one deterministic seed
/// per point derived from the base seed via [`point_seed`]) and come back
/// in input order.
///
/// # Errors
///
/// Checked on the calling thread before any worker starts:
/// [`WorkloadError::Pattern`] when `base`'s destination pattern cannot
/// address this router's machine, and [`WorkloadError::InvalidParameter`]
/// on a `cfg` that [`SimConfig::validate`] rejects, a non-finite or
/// negative load or a zero-flit worm.
pub fn sweep_traffic<R: Router>(
    router: &R,
    cfg: &SimConfig,
    base: &TrafficConfig,
    lanes: &LaneConfig,
    flit_loads: &[f64],
) -> Result<Vec<SimResult>, WorkloadError> {
    check_config(cfg)?;
    base.pattern.validate(router.network().num_processors())?;
    let points = flit_loads
        .iter()
        .map(|&load| base.at_flit_load(load))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(run_indexed_parallel(points.len(), |i| {
        let point_cfg = cfg.with_seed(point_seed(cfg.seed, i as u64));
        run_simulation_with_lanes(router, &point_cfg, &points[i], lanes)
    }))
}

/// Worker count for a parallel batch of `jobs` independent simulations:
/// the machine's parallelism (4 when `available_parallelism` cannot tell),
/// never more threads than there is work.
fn worker_count(jobs: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(4, std::num::NonZeroUsize::get)
        .min(jobs)
        .max(1)
}

/// Runs `jobs` independent closures across scoped worker threads and
/// returns their results in index order.
///
/// Each worker owns a disjoint set of output slots, so results are
/// written without any lock — the whole-vector mutex this replaces
/// serialized every completion on wide sweeps. Slots are dealt
/// round-robin (worker `k` takes indices `k, k+T, k+2T, …`) rather than
/// in contiguous blocks: on a monotone load sweep the expensive
/// high-load points then spread evenly across workers — with
/// fast-forwarding, low-load points finish many times faster than
/// high-load ones, and a contiguous split would leave one worker
/// straggling on all the slow points.
// Every slot is filled exactly once by the scoped workers before the scope
// joins — a structural invariant of the chunk assignment.
#[allow(clippy::expect_used)]
fn run_indexed_parallel<T, F>(jobs: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    let threads = worker_count(jobs);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(jobs);
    slots.resize_with(jobs, || None);
    // One pass over the vector hands out disjoint `&mut` slot references,
    // interleaved across workers.
    let mut assigned: Vec<Vec<(usize, &mut Option<T>)>> =
        (0..threads).map(|_| Vec::new()).collect();
    for (i, slot) in slots.iter_mut().enumerate() {
        assigned[i % threads].push((i, slot));
    }
    std::thread::scope(|scope| {
        for chunk in assigned {
            let job = &job;
            scope.spawn(move || {
                for (i, slot) in chunk {
                    *slot = Some(job(i));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every job ran"))
        .collect()
}

/// Scans flit loads `start_load, start_load + step, …` up to `max_load`
/// until the simulator reports saturation, returning
/// `(last_stable_load, first_saturated_load)`; the second element is
/// `None` when even the largest probed load stayed stable. Each probe
/// carries `base`'s workload at its load, with `lanes` lanes per channel
/// and a seed from [`saturation_probe_seed`].
///
/// # Errors
///
/// [`WorkloadError::InvalidParameter`] on a `cfg` that
/// [`SimConfig::validate`] rejects, a non-finite or negative
/// `start_load`, a non-finite or non-positive `step`, or a zero-flit
/// worm; [`WorkloadError::Pattern`] when `base`'s destination pattern
/// cannot address this router's machine.
pub fn find_saturation<R: Router>(
    router: &R,
    cfg: &SimConfig,
    base: &TrafficConfig,
    lanes: &LaneConfig,
    start_load: f64,
    step: f64,
    max_load: f64,
) -> Result<(f64, Option<f64>), WorkloadError> {
    check_config(cfg)?;
    if !(start_load.is_finite() && start_load >= 0.0) {
        return Err(WorkloadError::InvalidParameter(format!(
            "saturation scan start {start_load} must be finite and non-negative"
        )));
    }
    if !(step.is_finite() && step > 0.0) {
        return Err(WorkloadError::InvalidParameter(format!(
            "saturation scan step {step} must be finite and positive"
        )));
    }
    base.pattern.validate(router.network().num_processors())?;
    let mut last_stable = 0.0;
    let mut load = start_load;
    let mut idx = 0u64;
    while load <= max_load {
        let seed = saturation_probe_seed(cfg.seed, idx);
        let traffic = base.at_flit_load(load)?;
        let result = run_simulation_with_lanes(router, &cfg.with_seed(seed), &traffic, lanes);
        if result.saturated {
            return Ok((last_stable, Some(load)));
        }
        last_stable = load;
        load += step;
        idx += 1;
    }
    Ok((last_stable, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DestinationPattern;
    use crate::router::BftRouter;
    use wormsim_topology::bft::{BftParams, ButterflyFatTree};

    // Mirrors `wormsim_testutil::quick_sim_config`, which cannot be used
    // here: testutil depends on this crate, and a dev-dependency cycle
    // would make its `SimConfig` a distinct type in this build.
    fn quick_cfg() -> SimConfig {
        SimConfig {
            warmup_cycles: 1_000,
            measure_cycles: 8_000,
            drain_cap_cycles: 30_000,
            seed: 7,
            batches: 8,
        }
    }

    #[test]
    fn zero_load_latency_matches_theory_exactly_per_message() {
        // At vanishing load each message sails through unblocked:
        // latency = s + D − 1 per message, so the average must be within
        // the distance distribution's range.
        let tree = ButterflyFatTree::new(BftParams::paper(16).unwrap());
        let router = BftRouter::new(&tree);
        let traffic = TrafficConfig::new(0.0001, 16).unwrap();
        let result = run_simulation(&router, &quick_cfg(), &traffic);
        assert!(!result.saturated);
        assert!(result.messages_completed > 0);
        // Bounds: min distance 2, max 2n = 4.
        assert!(result.avg_latency >= 16.0 + 2.0 - 1.0);
        assert!(result.avg_latency <= 16.0 + 4.0 - 1.0);
        // Expected value: s + D̄ − 1 with D̄ from the closed form; Monte
        // Carlo tolerance.
        let expect = 16.0 + tree.params().average_distance() - 1.0;
        assert!(
            (result.avg_latency - expect).abs() < 0.5,
            "avg {} vs expected {expect}",
            result.avg_latency
        );
        // No queueing at vanishing load.
        assert!(result.injection_wait_mean < 0.05);
    }

    #[test]
    fn sweep_returns_points_in_order_and_monotone_latency() {
        let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
        let router = BftRouter::new(&tree);
        let loads = [0.002, 0.01, 0.025];
        let base = TrafficConfig::new(0.0, 16).unwrap();
        let results =
            sweep_traffic(&router, &quick_cfg(), &base, &LaneConfig::single(), &loads).unwrap();
        assert_eq!(results.len(), 3);
        for (i, r) in results.iter().enumerate() {
            assert!((r.offered_flit_load - loads[i]).abs() < 1e-12);
            assert!(!r.saturated, "load {} unexpectedly saturated", loads[i]);
        }
        assert!(results[0].avg_latency < results[1].avg_latency);
        assert!(results[1].avg_latency < results[2].avg_latency);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let tree = ButterflyFatTree::new(BftParams::paper(16).unwrap());
        let router = BftRouter::new(&tree);
        let traffic = TrafficConfig::new(0.002, 16).unwrap();
        let a = run_simulation(&router, &quick_cfg(), &traffic);
        let b = run_simulation(&router, &quick_cfg(), &traffic);
        assert_eq!(a.avg_latency, b.avg_latency);
        assert_eq!(a.messages_completed, b.messages_completed);
        assert_eq!(a.cycles_run, b.cycles_run);
        let c = run_simulation(&router, &quick_cfg().with_seed(8), &traffic);
        assert_ne!(a.avg_latency, c.avg_latency);
    }

    #[test]
    fn overload_is_detected_as_saturation() {
        let tree = ButterflyFatTree::new(BftParams::paper(16).unwrap());
        let router = BftRouter::new(&tree);
        // Far beyond capacity: ~0.5 flits/cycle/PE offered.
        let traffic = TrafficConfig::from_flit_load(0.5, 16).unwrap();
        let result = run_simulation(&router, &quick_cfg(), &traffic);
        assert!(result.saturated);
        assert!(result.delivered_flit_load < 0.5 * 0.9);
    }

    #[test]
    fn percentiles_are_ordered_and_bounded() {
        let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
        let router = BftRouter::new(&tree);
        let traffic = TrafficConfig::from_flit_load(0.04, 16).unwrap();
        let r = run_simulation(&router, &quick_cfg(), &traffic);
        assert!(!r.saturated);
        // p50 ≤ mean-ish ≤ p95 ≤ p99 ≤ max, all at least the unblocked
        // minimum latency s + 2 − 1.
        assert!(r.latency_p50 >= 16.0 + 1.0);
        assert!(r.latency_p50 <= r.latency_p95);
        assert!(r.latency_p95 <= r.latency_p99);
        assert!(r.latency_p99 <= r.latency_max);
        assert!(r.avg_latency > r.latency_p50 * 0.8 && r.avg_latency < r.latency_p99);
    }

    #[test]
    fn single_runs_below_two_batches_report_no_interval() {
        // `SimConfig::validate` rejects fewer than two batches, but single
        // runs take any config: they must report an undefined interval,
        // not a two-batch one, and the same latency.
        let tree = ButterflyFatTree::new(BftParams::paper(16).unwrap());
        let router = BftRouter::new(&tree);
        let traffic = TrafficConfig::from_flit_load(0.05, 16).unwrap();
        let with = |batches| SimConfig {
            batches,
            ..quick_cfg()
        };
        let two = run_simulation(&router, &with(2), &traffic);
        assert!(two.latency_ci95.is_finite());
        for batches in [0, 1] {
            let r = run_simulation(&router, &with(batches), &traffic);
            let ci = r.latency_ci95;
            assert!(ci.is_nan(), "batches {batches}: ci95 {ci}");
            assert_eq!(r.avg_latency.to_bits(), two.avg_latency.to_bits());
        }
    }

    #[test]
    fn batch_runners_reject_bad_inputs_with_typed_errors() {
        // Every case is refused on the calling thread, before any
        // simulation runs.
        let tree = ButterflyFatTree::new(BftParams::paper(16).unwrap());
        let router = BftRouter::new(&tree);
        let (cfg, one) = (quick_cfg(), LaneConfig::single());
        let base = TrafficConfig::new(0.0, 16).unwrap();
        let mut zero_flits = base;
        zero_flits.worm_flits = 0;
        let one_batch = SimConfig { batches: 1, ..cfg };
        let no_window = SimConfig {
            measure_cycles: 0,
            ..cfg
        };
        let no_drain = SimConfig {
            drain_cap_cycles: 0,
            ..cfg
        };
        // A NaN sweep load, a zero and an infinite scan step, a NaN scan
        // start, zero-flit worms, and configs `SimConfig::validate`
        // rejects on each runner.
        let invalid = [
            sweep_traffic(&router, &cfg, &base, &one, &[0.01, f64::NAN]).map(drop),
            find_saturation(&router, &cfg, &base, &one, 0.02, f64::INFINITY, 0.4).map(drop),
            find_saturation(&router, &cfg, &base, &one, 0.02, 0.0, 0.4).map(drop),
            find_saturation(&router, &cfg, &base, &one, f64::NAN, 0.02, 0.4).map(drop),
            find_saturation(&router, &cfg, &zero_flits, &one, 0.02, 0.02, 0.4).map(drop),
            sweep_traffic(&router, &one_batch, &base, &one, &[0.01]).map(drop),
            find_saturation(&router, &no_window, &base, &one, 0.02, 0.02, 0.4).map(drop),
            find_saturation(&router, &no_drain, &base, &one, 0.02, 0.02, 0.4).map(drop),
        ];
        for (case, got) in invalid.iter().enumerate() {
            let ok = matches!(got, Err(WorkloadError::InvalidParameter(_)));
            assert!(ok, "invalid-parameter case {case}: {got:?}");
        }
        // A hot spot outside the machine.
        let misfit = base.with_pattern(DestinationPattern::HotSpot {
            fraction: 0.1,
            target: 9999,
        });
        let misfits = [
            sweep_traffic(&router, &cfg, &misfit, &one, &[0.01]).map(drop),
            find_saturation(&router, &cfg, &misfit, &one, 0.02, 0.02, 0.4).map(drop),
        ];
        for (case, got) in misfits.iter().enumerate() {
            let ok = matches!(got, Err(WorkloadError::Pattern(_)));
            assert!(ok, "pattern case {case}: {got:?}");
        }
    }

    #[test]
    fn find_saturation_brackets_the_knee() {
        let tree = ButterflyFatTree::new(BftParams::paper(16).unwrap());
        let router = BftRouter::new(&tree);
        let (base, one) = (TrafficConfig::new(0.0, 16).unwrap(), LaneConfig::single());
        let scan = find_saturation(&router, &quick_cfg(), &base, &one, 0.02, 0.02, 0.4);
        let (stable, saturated) = scan.unwrap();
        assert!(stable > 0.0);
        let first_bad = saturated.expect("a 16-PE tree must saturate below 0.4");
        assert!(first_bad > stable);
    }
}
