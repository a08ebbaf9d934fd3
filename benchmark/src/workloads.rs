//! The four workloads: their fixed inputs, one pass of work, and the checks
//! on every output.
//!
//! Simulated loads are constants, never derived from the model at run
//! time, so that a model change cannot change the simulator's work.

use crate::bench::{Digest, Pass, PassLog, Runner};
use crate::layers::{
    self, BftModel, BftRouter, ButterflyFatTree, DestinationPattern, FlowModelSweep, FlowVector,
    KneeConfig, LaneConfig, Res, SimResult,
};
use crate::trace::Tracer;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 3 at N=1024: every simulated cycle is busy.
    Fig3,
    /// Small machines at low load: idle-span skipping does most work.
    LowLoad,
    /// N=64 with lanes, faults, hot-spot and bursty traffic.
    Degraded,
    /// The model half of `repro knee`: flow builds and knee brackets.
    KneeAtlas,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig3,
        Workload::LowLoad,
        Workload::Degraded,
        Workload::KneeAtlas,
    ];

    /// Name, as given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig3 => "fig3-n1024",
            Workload::LowLoad => "lowload-small",
            Workload::Degraded => "degraded-lanes-n64",
            Workload::KneeAtlas => "knee-atlas",
        }
    }

    /// Why the workload is in the benchmark (as in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Fig3 => {
                "paper Fig. 3 at N=1024: every simulated cycle is busy, so the \
                 per-cycle sim cost is the whole cost; checks the paper's accuracy claim"
            }
            Workload::LowLoad => {
                "N=16..256 at low load: idle-span skipping does most of the work; \
                 the control for any sim-engine change"
            }
            Workload::Degraded => {
                "N=64 with 1-4 lanes, 5% link faults, hot-spot and bursty traffic: \
                 lane allocator, fault-aware routing and non-uniform sampling"
            }
            Workload::KneeAtlas => {
                "model half of repro knee, no simulation: flow builds up to N=1024, \
                 spec builds, knee brackets and typed-outcome sweeps"
            }
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `(sim_digest, model_digest)` at the default seed.
    pub fn pinned_digests(self) -> (u64, u64) {
        match self {
            Workload::Fig3 => (0xed96_0c49_9fa0_24ac, 0x10ae_d0c5_5e64_7075),
            Workload::LowLoad => (0xea93_8d68_b61a_7c56, 0x2de5_ae33_d6e3_cdb5),
            Workload::Degraded => (0x211b_9aec_79f7_3873, 0x7c39_47ec_4d7c_944f),
            Workload::KneeAtlas => (0x64b9_bc1d_afc8_c0a5, 0xc9ef_9ee3_696d_1ff4),
        }
    }

    /// Sets the workload up and runs its passes on `r`.
    pub fn run(self, r: &mut Runner) -> Res<()> {
        match self {
            Workload::Fig3 => fig3(r),
            Workload::LowLoad => lowload(r),
            Workload::Degraded => degraded(r),
            Workload::KneeAtlas => knee_atlas(r),
        }
    }
}

/// Digest of every semantic field of a simulation result. The engine's
/// diagnostic `cycles_skipped` and `engine` fields are left out: they
/// describe how the run was computed, not what it computed.
fn digest_sim(d: &mut Digest, r: &SimResult) {
    d.str(&r.topology);
    for v in [
        r.num_processors as u64,
        u64::from(r.worm_flits),
        u64::from(r.lanes),
        r.messages_measured,
        r.messages_completed,
        r.messages_incomplete,
        r.messages_unroutable,
        u64::from(r.saturated),
        r.backlog_growth,
        r.cycles_run,
        r.max_active_worms as u64,
        r.seed,
    ] {
        d.u64(v);
    }
    for v in [
        r.offered_message_rate,
        r.offered_flit_load,
        r.avg_latency,
        r.latency_ci95,
        r.latency_p50,
        r.latency_p95,
        r.latency_p99,
        r.latency_max,
        r.injection_wait_mean,
        r.delivered_flit_load,
    ] {
        d.f64(v);
    }
    for l in &r.lane_stats {
        d.u64(u64::from(l.lane));
        d.u64(l.grants);
        d.f64(l.mean_hold);
        d.f64(l.utilization);
    }
    for c in &r.class_stats {
        d.str(&c.class.to_string());
        d.u64(c.channels as u64);
        d.u64(c.grants);
        for v in [c.lambda, c.mean_service, c.mean_wait, c.utilization] {
            d.f64(v);
        }
    }
}

/// Checks a simulation result and folds it into the pass's digest and
/// identity keys. An expected-stable run must not saturate and must
/// complete every measured message. Every per-message latency is at least
/// `s + 1` cycles (the shortest path has two channels), so the mean is too.
fn record_sim(log: &mut PassLog, r: &SimResult, expect_stable: bool) {
    digest_sim(&mut log.sim_digest, r);
    let mut key = Digest::default();
    digest_sim(&mut key, r);
    key.u64(r.cycles_skipped);
    key.str(r.engine.label());
    log.sim_keys.push(key.value());
    let what = || {
        format!(
            "sim N={} s={} L={} load {} seed {:#x}",
            r.num_processors, r.worm_flits, r.lanes, r.offered_flit_load, r.seed
        )
    };
    if expect_stable {
        log.check(!r.saturated, || format!("{}: saturated", what()));
        log.check(
            r.messages_measured > 0 && r.messages_completed == r.messages_measured,
            || {
                format!(
                    "{}: completed {} of {} measured messages",
                    what(),
                    r.messages_completed,
                    r.messages_measured
                )
            },
        );
    }
    if r.messages_completed > 0 {
        let floor = f64::from(r.worm_flits) + 1.0;
        log.check(r.avg_latency.is_finite() && r.avg_latency >= floor, || {
            format!("{}: mean latency {} below {floor}", what(), r.avg_latency)
        });
    }
}

/// Checks a model latency and folds it into the model digest: when
/// `must_converge` it must exist, and any latency must be finite and at
/// least the zero-load latency `s + D̄ − 1`.
fn record_model(log: &mut PassLog, lat: Option<f64>, floor: f64, must_converge: bool, what: &str) {
    match lat {
        Some(l) => {
            log.model_digest.f64(l);
            log.check(l.is_finite() && l >= floor * (1.0 - 1e-12), || {
                format!("{what}: model latency {l} below s+D-1 = {floor}")
            });
        }
        None => {
            log.model_digest.u64(u64::MAX);
            log.check(!must_converge, || format!("{what}: model saturated"));
        }
    }
}

/// Records |model − sim| / sim in percent.
fn record_error(log: &mut PassLog, model: Option<f64>, sim: &SimResult) {
    if let Some(m) = model {
        log.err_pct
            .push(100.0 * (m - sim.avg_latency).abs() / sim.avg_latency);
    }
}

/// Zero-load latency `s + D̄ − 1`.
fn zero_load(s: u32, avg_distance: f64) -> f64 {
    f64::from(s) + avg_distance - 1.0
}

// ---------------------------------------------------------------------------
// fig3-n1024
// ---------------------------------------------------------------------------

const FIG3_WORMS: [u32; 3] = [16, 32, 64];
/// Loads at or below this are expected stable and counted in the model
/// error; above it the model diverges from the simulator by design.
const FIG3_COUNTED_MAX_LOAD: f64 = 0.03;
/// Points of the dense model curve `repro fig3` plots: 0.0005 steps below
/// 1.05 × the largest simulated load.
const FIG3_DENSE: u32 = 83;

struct ClosedForm {
    tree: ButterflyFatTree,
    /// `(worm flits, model)`.
    models: Vec<(u32, BftModel)>,
}

fn closed_form(tr: &mut Tracer, n: usize, worms: &[u32]) -> Res<ClosedForm> {
    let tree = layers::tree(tr, n)?;
    let _ = layers::bft_router(tr, &tree);
    let models = worms
        .iter()
        .map(|&s| (s, layers::bft_model(tr, *tree.params(), s, 1)))
        .collect();
    Ok(ClosedForm { tree, models })
}

/// One latency curve of the closed-form model against the simulator: a
/// model op evaluating the model at every simulated load, after `dense`
/// loads on the 0.0005 grid that `repro fig3` plots, then one simulation op
/// per load. Loads for which `counted` holds must be stable and enter the
/// model error.
#[allow(clippy::too_many_arguments)]
fn curve(
    p: &mut Pass<'_, '_>,
    item: &mut u64,
    router: &BftRouter<'_>,
    lanes: &LaneConfig,
    model: &BftModel,
    s: u32,
    loads: &[f64],
    dense: u32,
    counted: impl Fn(f64) -> bool,
) {
    let floor = zero_load(s, model.params().average_distance());
    let predicted = p.op(|tr, log| {
        for k in 1..=dense {
            let load = 0.0005 * f64::from(k);
            let lat = layers::bft_latency(tr, model, load)?;
            record_model(log, lat, floor, false, &format!("bft s={s} load {load}"));
        }
        loads
            .iter()
            .map(|&load| {
                let lat = layers::bft_latency(tr, model, load)?;
                let what = format!("bft s={s} load {load}");
                record_model(log, lat, floor, counted(load), &what);
                Ok(lat)
            })
            .collect::<Res<Vec<_>>>()
    });
    let predicted = predicted.unwrap_or_else(|| vec![None; loads.len()]);
    for (&load, lat) in loads.iter().zip(predicted) {
        let seed = p.seed(*item);
        *item += 1;
        p.op(|tr, log| {
            let t = layers::traffic(load, s, DestinationPattern::Uniform, false)?;
            let sim = layers::simulate(tr, router, &layers::sim_config(seed), &t, lanes)?;
            record_sim(log, &sim, counted(load));
            if counted(load) {
                record_error(log, lat, &sim);
            }
            Ok(())
        });
    }
}

fn fig3(r: &mut Runner) -> Res<()> {
    let build = |tr: &mut Tracer| closed_form(tr, 1024, &FIG3_WORMS);
    let fixed = r.setup(build)?;
    let router = layers::bft_router(&mut r.tr, &fixed.tree);
    let lanes = layers::lanes(1)?;
    let loads: Vec<f64> = (1..=16).map(|i| 0.0025 * f64::from(i)).collect();
    let counted = |load: f64| load <= FIG3_COUNTED_MAX_LOAD + 1e-12;
    r.run_passes(build, |p| {
        let mut item = 0;
        for (s, model) in &fixed.models {
            curve(
                p, &mut item, &router, &lanes, model, *s, &loads, FIG3_DENSE, counted,
            );
        }
    });
    Ok(())
}

// ---------------------------------------------------------------------------
// lowload-small
// ---------------------------------------------------------------------------

const LOWLOAD_SIZES: [usize; 3] = [16, 64, 256];
const LOWLOAD_LOADS: [f64; 5] = [0.0005, 0.001, 0.002, 0.005, 0.01];
const LOWLOAD_WORMS: [u32; 2] = [16, 32];

fn lowload(r: &mut Runner) -> Res<()> {
    let build = |tr: &mut Tracer| {
        LOWLOAD_SIZES
            .iter()
            .map(|&n| closed_form(tr, n, &LOWLOAD_WORMS))
            .collect::<Res<Vec<_>>>()
    };
    let fixed = r.setup(build)?;
    let routers: Vec<_> = fixed
        .iter()
        .map(|f| layers::bft_router(&mut r.tr, &f.tree))
        .collect();
    let lanes = layers::lanes(1)?;
    r.run_passes(build, |p| {
        let mut item = 0;
        for (f, router) in fixed.iter().zip(&routers) {
            for (s, model) in &f.models {
                curve(
                    p,
                    &mut item,
                    router,
                    &lanes,
                    model,
                    *s,
                    &LOWLOAD_LOADS,
                    0,
                    |_| true,
                );
            }
        }
    });
    Ok(())
}

// ---------------------------------------------------------------------------
// degraded-lanes-n64
// ---------------------------------------------------------------------------

const WORM: u32 = 16;
const LANES: [u32; 3] = [1, 2, 4];
const FAULT_FRACTION: f64 = 0.05;
/// Two loads well below the simulator's knee on every fabric and traffic
/// mix of the workload; model error is counted at the first.
const DEGRADED_LOADS: [f64; 2] = [0.02, 0.05];
/// Seed items of pass-level draws (ops use small item numbers).
const FAULT_ITEM: u64 = 1 << 32;
const TARGET_ITEM: u64 = 2 << 32;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mix {
    Uniform,
    HotSpot,
    Bursty,
}

/// A per-station model and its zero-load latency.
struct FlowModel {
    sweep: FlowModelSweep,
    floor: f64,
}

fn flow_model(
    tr: &mut Tracer,
    log: &mut PassLog,
    tree: &ButterflyFatTree,
    flows: &FlowVector,
    alive: Option<&[u32]>,
) -> Res<FlowModel> {
    log.model_digest.f64(flows.avg_distance());
    Ok(FlowModel {
        sweep: layers::flow_sweep(tr, tree, flows, WORM, alive)?,
        floor: zero_load(WORM, flows.avg_distance()),
    })
}

fn degraded(r: &mut Runner) -> Res<()> {
    let build = |tr: &mut Tracer| {
        let tree = layers::tree(tr, 64)?;
        let _ = layers::empty_plan_router(tr, &tree)?;
        let models: Vec<BftModel> = LANES
            .iter()
            .map(|&l| layers::bft_model(tr, *tree.params(), WORM, l))
            .collect();
        Ok((tree, models))
    };
    let (tree, lane_models) = r.setup(build)?;
    let pristine = layers::empty_plan_router(&mut r.tr, &tree)?;
    let lane_cfgs = LANES
        .iter()
        .map(|&l| layers::lanes(l))
        .collect::<Res<Vec<_>>>()?;
    let uniform_floor = zero_load(WORM, tree.params().average_distance());
    r.run_passes(build, |p| {
        let fault_seed = p.seed(FAULT_ITEM);
        let hot = layers::hot_spot((p.seed(TARGET_ITEM) % 64) as usize);
        // The pass's faulted fabric, its flow vectors and per-station models:
        // [pristine hot-spot, faulted uniform, faulted hot-spot].
        let Some((fabric, mut models)) = p.op(|tr, log| {
            let fabric = layers::connected_plan(tr, &tree, FAULT_FRACTION, fault_seed)?;
            let alive = Some(fabric.alive.as_slice());
            let hot_flows = layers::flows(tr, &tree, &hot)?;
            let uni_faulted = layers::degraded_flows(tr, &fabric, &DestinationPattern::Uniform)?;
            let hot_faulted = layers::degraded_flows(tr, &fabric, &hot)?;
            let models = vec![
                flow_model(tr, log, &tree, &hot_flows, None)?,
                flow_model(tr, log, &tree, &uni_faulted, alive)?,
                flow_model(tr, log, &tree, &hot_faulted, alive)?,
            ];
            Ok((fabric, models))
        }) else {
            return;
        };
        let mut item = 0;
        for ((li, &l), lanes) in LANES.iter().enumerate().zip(&lane_cfgs) {
            for (faulted, router) in [(false, &pristine), (true, &fabric.router)] {
                for mix in [Mix::Uniform, Mix::HotSpot, Mix::Bursty] {
                    for (j, load) in DEGRADED_LOADS.into_iter().enumerate() {
                        let seed = p.seed(item);
                        item += 1;
                        p.op(|tr, log| {
                            let pattern = if mix == Mix::HotSpot {
                                hot
                            } else {
                                DestinationPattern::Uniform
                            };
                            let t = layers::traffic(load, WORM, pattern, mix == Mix::Bursty)?;
                            let sim =
                                layers::simulate(tr, router, &layers::sim_config(seed), &t, lanes)?;
                            record_sim(log, &sim, true);
                            if mix == Mix::Bursty {
                                return Ok(());
                            }
                            let lambda0 = load / f64::from(WORM);
                            let flow_model = match (faulted, mix) {
                                (false, Mix::HotSpot) => Some(0),
                                (true, Mix::Uniform) => Some(1),
                                (true, Mix::HotSpot) => Some(2),
                                _ => None,
                            };
                            let (lat, floor) = match flow_model {
                                None => {
                                    let lat = layers::bft_latency(tr, &lane_models[li], load)?;
                                    (lat, uniform_floor)
                                }
                                Some(i) => {
                                    let m = &mut models[i];
                                    (
                                        layers::sweep_latency(tr, &mut m.sweep, lambda0, l)?,
                                        m.floor,
                                    )
                                }
                            };
                            let what = format!("L={l} faulted={faulted} load {load}");
                            record_model(log, lat, floor, true, &what);
                            if j == 0 {
                                record_error(log, lat, &sim);
                            }
                            Ok(())
                        });
                    }
                }
            }
        }
    });
    Ok(())
}

// ---------------------------------------------------------------------------
// knee-atlas
// ---------------------------------------------------------------------------

const ATLAS_SIZES: [usize; 3] = [64, 256, 1024];
/// Uniform flows are built up to this size; N=1024 builds only the seeded
/// hot spot. A uniform N=1024 build adds 3 s of seed-independent work to
/// every pass and would halve the passes a run gets, and with them the
/// samples behind every timing of this workload.
const ATLAS_UNIFORM_MAX_N: usize = 256;
/// Typed-outcome sweep points: `k/4 × knee` for `k = 0..=8`. Points up to
/// the knee (`k ≤ 4`) must converge and the rest must not.
const SWEEP_STEPS: u32 = 8;

/// Knee bracket, then the typed-outcome sweep to twice the knee, for each
/// lane count.
fn knee_ops(
    p: &mut Pass<'_, '_>,
    tree: &ButterflyFatTree,
    flows: &FlowVector,
    alive: Option<&[u32]>,
    cfg: &KneeConfig,
) {
    let floor = zero_load(WORM, flows.avg_distance());
    for l in LANES {
        let Some((mut sweep, knee)) = p.op(|tr, log| {
            let mut sweep = layers::flow_sweep(tr, tree, flows, WORM, alive)?;
            let knee = layers::find_knee(tr, &mut sweep, l, cfg)?;
            log.model_digest.f64(knee.knee);
            log.model_digest.f64(knee.first_infeasible);
            log.model_digest.u64(knee.probes as u64);
            let holds = knee.knee > 0.0
                && knee.knee.is_finite()
                && knee.first_infeasible > knee.knee
                && (knee.rel_width() <= cfg.rel_tolerance || knee.probes >= cfg.max_probes);
            log.check(holds, || {
                format!(
                    "L={l}: knee bracket [{}, {}] does not hold",
                    knee.knee, knee.first_infeasible
                )
            });
            Ok((sweep, knee))
        }) else {
            continue;
        };
        p.op(|tr, log| {
            for k in 0..=SWEEP_STEPS {
                let lambda0 = 0.25 * f64::from(k) * knee.knee;
                let lat = layers::sweep_latency(tr, &mut sweep, lambda0, l)?;
                let what = format!("L={l} at {k}/4 of the knee");
                record_model(log, lat, floor, k <= 4, &what);
                log.check(k <= 4 || lat.is_none(), || {
                    format!("{what}: converged past the knee")
                });
            }
            Ok(())
        });
    }
}

fn knee_atlas(r: &mut Runner) -> Res<()> {
    let build = |tr: &mut Tracer| {
        ATLAS_SIZES
            .iter()
            .map(|&n| {
                let tree = layers::tree(tr, n)?;
                let model = layers::bft_model(tr, *tree.params(), WORM, 1);
                let knee = layers::bft_knee(tr, &model)?;
                Ok((tree, layers::knee_config(knee, WORM)))
            })
            .collect::<Res<Vec<_>>>()
    };
    let fixed = r.setup(build)?;
    r.run_passes(build, |p| {
        for (i, (tree, cfg)) in fixed.iter().enumerate() {
            let n = tree.num_processors();
            let target = (p.seed(TARGET_ITEM + i as u64) % n as u64) as usize;
            let uniform = (n <= ATLAS_UNIFORM_MAX_N).then_some(DestinationPattern::Uniform);
            for pattern in uniform.into_iter().chain([layers::hot_spot(target)]) {
                let flows = p.op(|tr, log| {
                    let f = layers::flows(tr, tree, &pattern)?;
                    log.model_digest.f64(f.avg_distance());
                    Ok(f)
                });
                if let Some(flows) = flows {
                    knee_ops(p, tree, &flows, None, cfg);
                }
            }
        }
        let (tree, cfg) = &fixed[0];
        let fault_seed = p.seed(FAULT_ITEM);
        let degraded = p.op(|tr, log| {
            let fabric = layers::connected_plan(tr, tree, FAULT_FRACTION, fault_seed)?;
            let f = layers::degraded_flows(tr, &fabric, &DestinationPattern::Uniform)?;
            log.model_digest.f64(f.avg_distance());
            Ok((fabric.alive, f))
        });
        if let Some((alive, flows)) = degraded {
            knee_ops(p, tree, &flows, Some(&alive), cfg);
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{BftParams, Json};

    fn paper(n: usize) -> BftParams {
        BftParams::paper(n).expect("paper tree")
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("parses");
        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                let f = |k: &str| w.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (f("name"), f("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(ours, listed);
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why too long", w.name());
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    /// Digests of a tiny simulation and model evaluation repeat exactly for
    /// a seed and change with it.
    #[test]
    fn digests_are_deterministic_on_a_tiny_config() {
        let cfg = |seed| layers::SimConfig {
            warmup_cycles: 300,
            measure_cycles: 2_000,
            drain_cap_cycles: 8_000,
            seed,
            batches: 4,
        };
        let digest = |seed: u64| {
            let mut tr = Tracer::new();
            let mut log = PassLog::default();
            let tree = layers::tree(&mut tr, 16).unwrap();
            let router = layers::bft_router(&mut tr, &tree);
            let t = layers::traffic(0.02, 16, DestinationPattern::Uniform, false).unwrap();
            let lanes = layers::lanes(1).unwrap();
            let sim = layers::simulate(&mut tr, &router, &cfg(seed), &t, &lanes).unwrap();
            record_sim(&mut log, &sim, true);
            let model = layers::bft_model(&mut tr, paper(16), 16, 1);
            let lat = layers::bft_latency(&mut tr, &model, 0.02).unwrap();
            record_model(
                &mut log,
                lat,
                zero_load(16, paper(16).average_distance()),
                true,
                "m",
            );
            assert_eq!(log.failed_ops, 0);
            assert!(log.messages.is_empty(), "{:?}", log.messages);
            (log.sim_digest, log.model_digest, log.sim_keys)
        };
        let a = digest(5);
        assert_eq!(a, digest(5));
        let b = digest(6);
        assert_ne!(a.0, b.0, "a different seed changes the sim digest");
        assert_eq!(a.1, b.1, "the model does not depend on the seed");
    }
}
