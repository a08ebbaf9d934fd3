//! The metric catalog and the computation of every metric from a run.
//!
//! `END_TO_END` and `PER_LAYER` are the metrics `BENCHMARK.json` lists, in
//! its order; the last line of a run prints exactly one of the two sets.
//! `EXTRA` metrics are end-to-end numbers that are zero or undefined on
//! some workload (there is no simulation in `knee-atlas`), so they cannot
//! be gated per workload by `BENCHMARK.json`; they are printed, stored in
//! the run record, and gated by `wormbench compare` with the rules below.

use crate::bench::{OpSample, Runner, SETUP_REPS};
use crate::stats::{median, percentile};
use crate::trace::{root_of, self_times, Layer};

/// Which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How `compare` gates a metric that `BENCHMARK.json` does not bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// May worsen by at most this share of the base median.
    Relative(f64),
    /// May worsen by at most this many units.
    Absolute(f64),
    /// May not worsen at all.
    NoRise,
}

/// One metric's name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics gated by `BENCHMARK.json`, measured untraced.
pub const END_TO_END: [Def; 6] = [
    def("setup_s", "s", Lower),
    def("pass_s", "s", Lower),
    def("op_ms_p50", "ms", Lower),
    def("op_ms_p90", "ms", Lower),
    def("model_solves_per_s", "1/s", Higher),
    def("peak_rss_mb", "MB", Lower),
];

/// End-to-end metrics gated by `compare` alone, with their rules.
pub const EXTRA: [(Def, Rule); 5] = [
    (def("sim_cycles_per_s", "1/s", Higher), Rule::Relative(0.10)),
    (def("sim_flits_per_s", "1/s", Higher), Rule::Relative(0.10)),
    (def("model_err_pct_mean", "pct", Lower), Rule::Absolute(0.1)),
    (def("model_err_pct_max", "pct", Lower), Rule::Absolute(0.1)),
    (def("fail_frac", "ratio", Lower), Rule::NoRise),
];

/// Per-layer metrics of the traced run: self times and counts per pass.
pub const PER_LAYER: [Def; 36] = [
    def("topology.build_s", "s", Lower),
    def("faults.plan_s", "s", Lower),
    def("faults.plans_rejected", "count", Lower),
    def("workload.flow_build_s", "s", Lower),
    def("workload.ns_per_pair", "ns", Lower),
    def("sim.run_s", "s", Lower),
    def("sim.ns_per_walked_cycle", "ns", Lower),
    def("sim.skip_frac", "ratio", Higher),
    def("sim.ns_per_worm_hop", "ns", Lower),
    def("sim.cycles_run", "count", Lower),
    def("sim.cycles_walked", "count", Lower),
    def("sim.worms_delivered", "count", Higher),
    def("sim.route_decisions", "count", Lower),
    def("sim.lane_grants", "count", Lower),
    def("sim.worm_hops", "count", Lower),
    def("sim.stalls_link_busy", "count", Lower),
    def("sim.stalls_no_free_lane", "count", Lower),
    def("sim.stalls_fcfs_queued", "count", Lower),
    def("sim.stalls_dead_link", "count", Lower),
    def("sim.channel_busy_frac", "ratio", Higher),
    def("sim.channel_stall_frac", "ratio", Lower),
    def("sim.saturated_runs", "count", Lower),
    def("sim.messages_incomplete", "count", Lower),
    def("sim.messages_unroutable", "count", Lower),
    def("lanes.upper_lane_grant_frac", "ratio", Lower),
    def("core.spec_build_s", "s", Lower),
    def("core.solve_s", "s", Lower),
    def("core.solves", "count", Lower),
    def("core.ns_per_solve", "ns", Lower),
    def("core.saturated_outcomes", "count", Lower),
    def("queueing.fixed_point_iterations", "count", Lower),
    def("guard.knee_s", "s", Lower),
    def("guard.knee_probes", "count", Lower),
    def("guard.ns_per_probe", "ns", Lower),
    def("obs.trace_overhead", "ratio", Lower),
    def("bench.harness_self_s", "s", Lower),
];

/// Largest share of a traced pass the harness itself may take.
pub const MAX_HARNESS_SHARE: f64 = 0.05;

/// The definition of a metric by name, from any of the three sets.
pub fn lookup(name: &str) -> Option<Def> {
    END_TO_END
        .iter()
        .chain(EXTRA.iter().map(|(d, _)| d))
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
        .copied()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// End-to-end metrics (`END_TO_END` then the applicable `EXTRA`) from the
/// untraced passes. Every timing is taken from each op's best pass: the host
/// the bounds were measured on has multi-second slow phases in which the
/// same work takes up to 1.7× as long, which the best of several passes
/// filters and a median over passes does not. `peak_rss_mb` is passed in
/// because it is a property of the process.
pub fn end_to_end(r: &Runner, peak_rss_mb: f64) -> Vec<(&'static str, f64)> {
    let p = &r.plain;
    let total = |v: &[OpSample], f: fn(&OpSample) -> u64| v.iter().map(f).sum::<u64>() as f64;
    let setup: Vec<f64> = r.setup_ns.iter().map(|&v| v as f64 * 1e-9).collect();
    let ops_ms: Vec<f64> = p.best_wall.iter().map(|s| s.ns as f64 * 1e-6).collect();
    let sim_s = total(&p.best_sim, |s| s.sim_ns) * 1e-9;
    let model_s = total(&p.best_model, |s| s.model_ns) * 1e-9;
    let (attempted, failed) = r.op_counts();

    let mut out = vec![
        ("setup_s", median(&setup).unwrap_or(0.0)),
        ("pass_s", total(&p.best_wall, |s| s.ns) * 1e-9),
        ("op_ms_p50", percentile(&ops_ms, 50.0).unwrap_or(0.0)),
        ("op_ms_p90", percentile(&ops_ms, 90.0).unwrap_or(0.0)),
        (
            "model_solves_per_s",
            ratio(total(&p.best_model, |s| s.evals), model_s),
        ),
        ("peak_rss_mb", peak_rss_mb),
    ];
    if sim_s > 0.0 {
        out.push(("sim_cycles_per_s", total(&p.best_sim, |s| s.cycles) / sim_s));
        out.push(("sim_flits_per_s", total(&p.best_sim, |s| s.flits) / sim_s));
    }
    if p.err_n > 0 {
        out.push(("model_err_pct_mean", p.err_sum / p.err_n as f64));
        out.push(("model_err_pct_max", p.err_max));
    }
    out.push(("fail_frac", ratio(failed as f64, attempted as f64)));
    out
}

/// Self time per layer summed over the spans under roots of kind `root`.
fn self_time_under(r: &Runner, root: Layer) -> [f64; Layer::COUNT] {
    let spans = r.tr.spans();
    let own = self_times(spans);
    let mut out = [0.0; Layer::COUNT];
    for (i, s) in spans.iter().enumerate() {
        if spans[root_of(spans, i)].layer == root {
            out[s.layer as usize] += own[i] as f64 * 1e-9;
        }
    }
    out
}

/// Share of the traced passes' wall time that the harness itself took.
pub fn harness_share(r: &Runner) -> f64 {
    let own = self_time_under(r, Layer::Pass);
    let total: f64 = r.traced.pass_ns.iter().map(|&v| v as f64 * 1e-9).sum();
    ratio(own[Layer::Pass as usize] + own[Layer::Op as usize], total)
}

/// Per-layer metrics (`PER_LAYER`, in order) from the traced passes:
/// self times and counts per pass, and ratios of their totals.
pub fn per_layer(r: &Runner) -> Vec<(&'static str, f64)> {
    let passes = r.traced.pass_ns.len().max(1) as f64;
    let setup = self_time_under(r, Layer::Setup);
    let own = self_time_under(r, Layer::Pass);
    let t = |l: Layer| own[l as usize];
    let c = r.traced.counts;
    let walked = c.cycles_run - c.cycles_skipped;
    let per = |v: u64| v as f64 / passes;
    let durations = |v: &[u64]| v.iter().map(|&d| d as f64).collect::<Vec<_>>();
    let traced = durations(&r.traced.pass_ns);
    let plain = durations(&r.plain.pass_ns);
    let overhead = ratio(
        median(&traced).unwrap_or(0.0),
        median(&plain).unwrap_or(0.0),
    );
    vec![
        (
            "topology.build_s",
            setup[Layer::Topology as usize] / SETUP_REPS as f64,
        ),
        ("faults.plan_s", t(Layer::Faults) / passes),
        ("faults.plans_rejected", per(c.plans_rejected)),
        ("workload.flow_build_s", t(Layer::Workload) / passes),
        (
            "workload.ns_per_pair",
            ratio(t(Layer::Workload) * 1e9, c.flow_pairs as f64),
        ),
        ("sim.run_s", t(Layer::Sim) / passes),
        (
            "sim.ns_per_walked_cycle",
            ratio(t(Layer::Sim) * 1e9, walked as f64),
        ),
        (
            "sim.skip_frac",
            ratio(c.cycles_skipped as f64, c.cycles_run as f64),
        ),
        (
            "sim.ns_per_worm_hop",
            ratio(t(Layer::Sim) * 1e9, c.worm_hops as f64),
        ),
        ("sim.cycles_run", per(c.cycles_run)),
        ("sim.cycles_walked", per(walked)),
        ("sim.worms_delivered", per(c.worms_delivered)),
        ("sim.route_decisions", per(c.route_decisions)),
        ("sim.lane_grants", per(c.lane_grants)),
        ("sim.worm_hops", per(c.worm_hops)),
        ("sim.stalls_link_busy", per(c.stalls_link_busy)),
        ("sim.stalls_no_free_lane", per(c.stalls_no_free_lane)),
        ("sim.stalls_fcfs_queued", per(c.stalls_fcfs_queued)),
        ("sim.stalls_dead_link", per(c.stalls_dead_link)),
        (
            "sim.channel_busy_frac",
            ratio(c.channel_busy_cycles as f64, c.channel_cycles as f64),
        ),
        (
            "sim.channel_stall_frac",
            ratio(c.channel_stalled_cycles as f64, c.channel_cycles as f64),
        ),
        ("sim.saturated_runs", per(c.saturated_runs)),
        ("sim.messages_incomplete", per(c.messages_incomplete)),
        ("sim.messages_unroutable", per(c.messages_unroutable)),
        (
            "lanes.upper_lane_grant_frac",
            ratio(c.upper_lane_grants as f64, c.lane_grants as f64),
        ),
        ("core.spec_build_s", t(Layer::CoreSpec) / passes),
        ("core.solve_s", t(Layer::CoreSolve) / passes),
        ("core.solves", per(c.solves)),
        (
            "core.ns_per_solve",
            ratio(t(Layer::CoreSolve) * 1e9, c.solves as f64),
        ),
        ("core.saturated_outcomes", per(c.saturated_outcomes)),
        (
            "queueing.fixed_point_iterations",
            per(c.fixed_point_iterations),
        ),
        ("guard.knee_s", t(Layer::Guard) / passes),
        ("guard.knee_probes", per(c.knee_probes)),
        (
            "guard.ns_per_probe",
            ratio(t(Layer::Guard) * 1e9, c.knee_probes as f64),
        ),
        ("obs.trace_overhead", overhead),
        (
            "bench.harness_self_s",
            (t(Layer::Pass) + t(Layer::Op)) / passes,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Json;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn listed(key: &str) -> Vec<(String, String, String)> {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn catalog(defs: &[Def]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.label().into()))
            .collect()
    }

    /// A runner whose passes, untraced and traced, do some simulation and
    /// model work.
    fn synthetic_runner() -> Runner {
        let work = |_: &mut crate::trace::Tracer| {
            std::thread::sleep(std::time::Duration::from_micros(20));
        };
        let mut r = Runner::new(1, 0, true);
        r.run_passes(
            |_| Ok(()),
            |p| {
                let _ = p.op(|tr, log| {
                    tr.span(Layer::Sim, String::new, work);
                    tr.span(Layer::CoreSolve, String::new, work);
                    tr.counts.cycles_run = 10;
                    tr.counts.solves = 1;
                    log.err_pct.push(1.5);
                    Ok(())
                });
            },
        );
        r
    }

    #[test]
    fn printed_metric_names_match_benchmark_json_both_ways() {
        assert_eq!(catalog(&END_TO_END), listed("end_to_end"));
        assert_eq!(catalog(&PER_LAYER), listed("per_layer"));
        let r = synthetic_runner();
        let e2e: Vec<&str> = end_to_end(&r, 1.0).iter().map(|m| m.0).collect();
        let expected: Vec<&str> = END_TO_END
            .iter()
            .chain(EXTRA.iter().map(|(d, _)| d))
            .map(|d| d.name)
            .collect();
        assert_eq!(e2e, expected);
        let layer: Vec<&str> = per_layer(&r).iter().map(|m| m.0).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(layer, expected);
        for name in e2e.iter().chain(&layer) {
            assert!(lookup(name).is_some(), "{name} has no definition");
        }
    }

    #[test]
    fn harness_share_is_measured_from_traced_passes() {
        let r = synthetic_runner();
        let share = harness_share(&r);
        assert!(share > 0.0 && share <= 1.0, "{share}");
    }
}
