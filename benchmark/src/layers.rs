//! The benchmark's single adapter over the wormsim library.
//!
//! Every library call the workloads make goes through a function here, and
//! each function wraps its call in a span named after the layer that does
//! the work, then counts that layer's work at the same boundary. Only the
//! default simulation engine is used. When the library's entry points
//! change, re-pointing the benchmark is a change to this file alone.

use crate::trace::{Layer, Tracer};
use wormsim::prelude::{
    run_simulation_observed, run_simulation_with_lanes, ArrivalProcess, EngineKind, FaultedBft,
    FlowRouting, LaneAllocatorKind, MmppProfile, ModelOptions, ObsConfig,
};
use wormsim::sim::router::Router;

pub use wormsim::experiments::bench_compare::Json;
pub use wormsim::obs::export::json_is_well_formed;
pub use wormsim::prelude::{
    BftModel, BftParams, ButterflyFatTree, DestinationPattern, FaultedBftRouter, FlowModelSweep,
    FlowVector, Knee, KneeConfig, LaneConfig, SimConfig, SimResult, TrafficConfig,
};
pub use wormsim::sim::router::BftRouter;

/// Result type of every adapter call: library errors become their message.
pub type Res<T> = Result<T, String>;

fn msg(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The `repro` full-effort simulation config (20k warm-up, 60k measured,
/// 150k drain cap, 12 batches) at `seed`. Fixed here, not taken from the
/// library, so that the simulator's work per op never changes under a
/// library change.
pub fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        warmup_cycles: 20_000,
        measure_cycles: 60_000,
        drain_cap_cycles: 150_000,
        seed,
        batches: 12,
    }
}

/// Hot-spot traffic: 1/8 of messages address PE `target`.
pub fn hot_spot(target: usize) -> DestinationPattern {
    DestinationPattern::HotSpot {
        fraction: 0.125,
        target,
    }
}

/// Traffic at `flit_load` flits/cycle/PE with worms of `s` flits: Poisson
/// arrivals, or the library's default bursty MMPP source when `bursty`.
pub fn traffic(
    flit_load: f64,
    s: u32,
    pattern: DestinationPattern,
    bursty: bool,
) -> Res<TrafficConfig> {
    let t = TrafficConfig::from_flit_load(flit_load, s)
        .map_err(msg)?
        .with_pattern(pattern);
    Ok(if bursty {
        t.with_arrival(ArrivalProcess::Mmpp(MmppProfile::default_bursty()))
    } else {
        t
    })
}

/// `lanes` virtual channels per link with first-free allocation.
pub fn lanes(lanes: u32) -> Res<LaneConfig> {
    LaneConfig::new(lanes, LaneAllocatorKind::FirstFree).map_err(msg)
}

/// Knee-bracketing config for a workload whose uniform closed-form knee is
/// `uniform_knee` flits/cycle/PE: start at 2% of it, which sits below every
/// hot-spot and degraded knee in the grid, and stop growing at 4×.
pub fn knee_config(uniform_knee: f64, s: u32) -> KneeConfig {
    let s = f64::from(s);
    KneeConfig {
        initial: 0.02 * uniform_knee / s,
        max: 4.0 * uniform_knee / s,
        rel_tolerance: 5e-3,
        max_probes: 200,
    }
}

fn pattern_tag(p: &DestinationPattern) -> &'static str {
    match p {
        DestinationPattern::Uniform => "uniform",
        DestinationPattern::HotSpot { .. } => "hotspot",
        _ => "other",
    }
}

/// The paper's butterfly fat-tree on `n` processors.
pub fn tree(tr: &mut Tracer, n: usize) -> Res<ButterflyFatTree> {
    tr.span(
        Layer::Topology,
        || format!("\"n\":{n}"),
        |_| BftParams::paper(n).map(ButterflyFatTree::new).map_err(msg),
    )
}

/// The fault-free router of `tree`.
pub fn bft_router<'a>(tr: &mut Tracer, tree: &'a ButterflyFatTree) -> BftRouter<'a> {
    tr.span(
        Layer::Topology,
        || format!("\"n\":{}", tree.num_processors()),
        |_| BftRouter::new(tree),
    )
}

/// The fault-aware router of `tree` with an empty fault plan.
pub fn empty_plan_router<'a>(
    tr: &mut Tracer,
    tree: &'a ButterflyFatTree,
) -> Res<FaultedBftRouter<'a>> {
    tr.span(
        Layer::Faults,
        || format!("\"n\":{},\"fraction\":0", tree.num_processors()),
        |_| {
            let plan = wormsim::faults::FaultPlan::none(tree.network());
            FaultedBftRouter::new(tree, plan).map_err(msg)
        },
    )
}

/// A degraded fabric: its router and the surviving servers per station.
pub struct Degraded<'a> {
    /// Fault-aware router; its `bft()` also routes flow vectors.
    pub router: FaultedBftRouter<'a>,
    /// Alive servers per station, for the degraded model.
    pub alive: Vec<u32>,
}

/// The first seeded link knockout of `fraction`, scanning seeds upward
/// from `seed`, that leaves every processor pair connected.
pub fn connected_plan<'a>(
    tr: &mut Tracer,
    tree: &'a ButterflyFatTree,
    fraction: f64,
    seed: u64,
) -> Res<Degraded<'a>> {
    let n = tree.num_processors();
    let (found, rejected) = tr.span(
        Layer::Faults,
        || format!("\"n\":{n},\"fraction\":{fraction}"),
        |_| -> Res<_> {
            for offset in 0..256u64 {
                let plan = wormsim::faults::link_faults(
                    tree.network(),
                    fraction,
                    seed.wrapping_add(offset),
                )
                .map_err(msg)?;
                let router = FaultedBftRouter::new(tree, plan).map_err(msg)?;
                if router.bft().fully_connected() {
                    let alive = router.bft().plan().alive_servers(tree.network());
                    return Ok((Some(Degraded { router, alive }), offset));
                }
            }
            Ok((None, 256))
        },
    )?;
    tr.counts.plans_rejected += rejected;
    found.ok_or_else(|| format!("no connected {fraction} knockout of N={n} within 256 seeds"))
}

/// The flow vector of `pattern` routed over `routing` (a tree or a
/// degraded fabric).
pub fn flows<R: FlowRouting + ?Sized>(
    tr: &mut Tracer,
    routing: &R,
    pattern: &DestinationPattern,
) -> Res<FlowVector> {
    let n = routing.network().num_processors() as u64;
    let out = tr.span(
        Layer::Workload,
        || format!("\"n\":{n},\"pattern\":\"{}\"", pattern_tag(pattern)),
        |_| FlowVector::build(routing, pattern).map_err(msg),
    )?;
    tr.counts.flow_pairs += n * (n - 1);
    Ok(out)
}

/// The flow vector of `pattern` over a degraded fabric.
pub fn degraded_flows(
    tr: &mut Tracer,
    fabric: &Degraded<'_>,
    pattern: &DestinationPattern,
) -> Res<FlowVector> {
    let bft: &FaultedBft<'_> = fabric.router.bft();
    flows(tr, bft, pattern)
}

/// One simulation on the default engine. With span recording on, the run
/// is observed (counters only): its snapshot feeds the per-layer counts and
/// must pass the conservation check, and the returned result carries no
/// snapshot, so that it compares field for field with an unobserved run.
pub fn simulate<R: Router>(
    tr: &mut Tracer,
    router: &R,
    cfg: &SimConfig,
    traffic: &TrafficConfig,
    lanes: &LaneConfig,
) -> Res<SimResult> {
    let observe = tr.recording();
    let mut r = tr.span(
        Layer::Sim,
        || {
            format!(
                "\"n\":{},\"s\":{},\"load\":{},\"lanes\":{}",
                router.network().num_processors(),
                traffic.worm_flits,
                traffic.flit_load(),
                lanes.lanes()
            )
        },
        |_| {
            if observe {
                // The engine `run_simulation_with_lanes` uses.
                let engine = EngineKind::default();
                let obs = ObsConfig::counters_only();
                run_simulation_observed(router, cfg, traffic, lanes, engine, &obs)
            } else {
                run_simulation_with_lanes(router, cfg, traffic, lanes)
            }
        },
    );
    let c = &mut tr.counts;
    c.cycles_run += r.cycles_run;
    c.cycles_skipped += r.cycles_skipped;
    c.flits_completed += r.messages_completed * u64::from(r.worm_flits);
    c.saturated_runs += u64::from(r.saturated);
    c.messages_incomplete += r.messages_incomplete;
    c.messages_unroutable += r.messages_unroutable;
    if let Some(snap) = r.obs.take() {
        snap.check_conservation()
            .map_err(|e| format!("conservation: {e}"))?;
        c.worms_delivered += snap.delivered;
        c.route_decisions += snap.route_decisions;
        c.lane_grants += snap.lane_grants;
        c.upper_lane_grants += snap.lanes.iter().skip(1).map(|l| l.grants).sum::<u64>();
        c.worm_hops += snap.worm_hops;
        c.stalls_link_busy += snap.stalls_link_busy;
        c.stalls_no_free_lane += snap.stalls_no_free_lane;
        c.stalls_fcfs_queued += snap.stalls_fcfs_queued;
        c.stalls_dead_link += snap.stalls_dead_link;
        c.channel_busy_cycles += snap.channels.iter().map(|u| u.busy_cycles).sum::<u64>();
        c.channel_stalled_cycles += snap.channels.iter().map(|u| u.stalled_cycles).sum::<u64>();
        c.channel_cycles += snap.cycles * snap.channels.len() as u64;
    } else if observe {
        return Err("observed run returned no snapshot".into());
    }
    Ok(r)
}

/// The closed-form model of the paper's tree with `lanes` lanes per link.
pub fn bft_model(tr: &mut Tracer, params: BftParams, s: u32, lanes: u32) -> BftModel {
    tr.span(
        Layer::CoreSpec,
        || {
            format!(
                "\"n\":{},\"s\":{s},\"lanes\":{lanes}",
                params.num_processors()
            )
        },
        |_| {
            BftModel::with_options(
                params,
                f64::from(s),
                ModelOptions::paper().with_lanes(lanes),
            )
        },
    )
}

/// Closed-form saturation knee, flits/cycle/PE.
pub fn bft_knee(tr: &mut Tracer, model: &BftModel) -> Res<f64> {
    tr.span(Layer::CoreSolve, String::new, |_| {
        model.saturation_flit_load().map_err(msg)
    })
}

/// Closed-form mean latency at `flit_load`: `Some(cycles)`, or `None` when
/// the model reports the load saturated.
pub fn bft_latency(tr: &mut Tracer, model: &BftModel, flit_load: f64) -> Res<Option<f64>> {
    let out = tr.span(
        Layer::CoreSolve,
        || format!("\"model\":\"bft\",\"load\":{flit_load}"),
        |_| model.latency_at_flit_load(flit_load),
    );
    tr.counts.solves += 1;
    match out {
        Ok(l) => Ok(Some(l.total)),
        Err(e) if e.is_saturation() => {
            tr.counts.saturated_outcomes += 1;
            Ok(None)
        }
        Err(e) => Err(msg(e)),
    }
}

/// The per-station model of `flows` over `tree`'s channels, built once for
/// a load sweep; `alive` gives surviving servers on a degraded fabric.
pub fn flow_sweep(
    tr: &mut Tracer,
    tree: &ButterflyFatTree,
    flows: &FlowVector,
    s: u32,
    alive: Option<&[u32]>,
) -> Res<FlowModelSweep> {
    tr.span(
        Layer::CoreSpec,
        || {
            format!(
                "\"n\":{},\"degraded\":{}",
                tree.num_processors(),
                alive.is_some()
            )
        },
        |_| {
            FlowModelSweep::new_with_servers(tree.network(), flows, f64::from(s), alive)
                .map_err(msg)
        },
    )
}

/// Typed-outcome evaluation of a sweep at message rate `lambda0` with
/// `lanes` lanes: `Some(latency)` when converged, `None` when saturated or
/// not converged. `Err` only for a usage error.
pub fn sweep_latency(
    tr: &mut Tracer,
    sweep: &mut FlowModelSweep,
    lambda0: f64,
    lanes: u32,
) -> Res<Option<f64>> {
    let before = sweep.warm_start().total_iterations();
    let out = tr.span(
        Layer::CoreSolve,
        || format!("\"model\":\"flow\",\"lambda0\":{lambda0},\"lanes\":{lanes}"),
        |_| sweep.outcome_at(lambda0, &ModelOptions::paper().with_lanes(lanes)),
    );
    let c = &mut tr.counts;
    c.solves += 1;
    c.fixed_point_iterations += (sweep.warm_start().total_iterations() - before) as u64;
    let latency = out.map_err(msg)?.into_converged().map(|l| l.total);
    c.saturated_outcomes += u64::from(latency.is_none());
    Ok(latency)
}

/// Brackets the sweep's saturation knee (message rate) with `lanes` lanes.
pub fn find_knee(
    tr: &mut Tracer,
    sweep: &mut FlowModelSweep,
    lanes: u32,
    cfg: &KneeConfig,
) -> Res<Knee> {
    let knee = tr.span(
        Layer::Guard,
        || format!("\"lanes\":{lanes}"),
        |_| sweep.find_knee(&ModelOptions::paper().with_lanes(lanes), cfg),
    );
    let knee = knee.map_err(msg)?;
    tr.counts.knee_probes += knee.probes as u64;
    Ok(knee)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(seed: u64) -> SimConfig {
        SimConfig {
            warmup_cycles: 500,
            measure_cycles: 3_000,
            drain_cap_cycles: 10_000,
            seed,
            batches: 4,
        }
    }

    #[test]
    fn observed_runs_match_plain_runs_and_fill_the_counters() {
        let mut tr = Tracer::new();
        let tree = tree(&mut tr, 16).unwrap();
        let router = bft_router(&mut tr, &tree);
        let t = traffic(0.05, 16, DestinationPattern::Uniform, false).unwrap();
        let lc = lanes(2).unwrap();
        let plain = simulate(&mut tr, &router, &tiny_cfg(3), &t, &lc).unwrap();
        assert_eq!(
            tr.take_counts().lane_grants,
            0,
            "unobserved runs count no grants"
        );
        tr.set_recording(true);
        let seen = simulate(&mut tr, &router, &tiny_cfg(3), &t, &lc).unwrap();
        let c = tr.take_counts();
        assert!(seen.obs.is_none());
        assert_eq!(plain.avg_latency.to_bits(), seen.avg_latency.to_bits());
        assert_eq!(plain.cycles_run, seen.cycles_run);
        assert_eq!(c.lane_grants, c.worm_hops);
        assert!(c.upper_lane_grants > 0 && c.upper_lane_grants < c.lane_grants);
    }

    #[test]
    fn connected_plans_count_rejections_and_route_flows() {
        let mut tr = Tracer::new();
        let tree = tree(&mut tr, 64).unwrap();
        let fabric = connected_plan(&mut tr, &tree, 0.05, 11).unwrap();
        assert!(fabric.router.bft().fully_connected());
        let f = degraded_flows(&mut tr, &fabric, &DestinationPattern::Uniform).unwrap();
        assert!(f.avg_distance() > 2.0);
        assert_eq!(tr.take_counts().flow_pairs, 64 * 63);
    }
}
