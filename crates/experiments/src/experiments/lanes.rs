//! Experiment L1 — virtual-channel lanes: multi-lane model vs simulation.
//!
//! The paper's channels are single-lane: one blocked worm stalls the whole
//! physical link, and the Figure 3 latency curves collapse at the knee.
//! The lanes subsystem gives every physical channel `L ≥ 1` virtual
//! channels (simulator: lane-granular grants + flit multiplexing; model:
//! M/G/(m·L) lane-slot waits + multiplex-stretched residences). This
//! experiment emits the acceptance table for `L ∈ {1, 2, 4}`:
//!
//! * latency vs load under uniform traffic, model vs simulation, with the
//!   relative error per point (the ~5% low-to-moderate-load band);
//! * the past-knee capacity shift (lanes keep delivering after the
//!   single-lane engine saturates — Stergiou's multi-lane MIN effect);
//! * hot-spot and bursty workloads across lane counts.

use super::{ExperimentContext, ExperimentOutput};
use crate::csv::Csv;
use crate::error::ExperimentError;
use crate::table::{num, Table};
use wormsim_core::bft::BftModel;
use wormsim_core::options::ModelOptions;
use wormsim_sim::config::{
    ArrivalProcess, DestinationPattern, LaneAllocatorKind, LaneConfig, MmppProfile, TrafficConfig,
};
use wormsim_sim::router::BftRouter;
use wormsim_sim::runner::{run_simulation_with_lanes, sweep_traffic};
use wormsim_topology::bft::{BftParams, ButterflyFatTree};

const LANE_COUNTS: [u32; 3] = [1, 2, 4];

/// Runs the experiment.
///
/// # Errors
///
/// Propagates any [`ExperimentError`] raised while building the topology,
/// lane configurations, traffic, or models.
#[allow(clippy::too_many_lines)]
pub fn run(ctx: &ExperimentContext) -> Result<ExperimentOutput, ExperimentError> {
    let mut out = ExperimentOutput::new("lanes");
    let n_procs = if ctx.quick { 64 } else { 256 };
    let s = 16u32;
    let params = BftParams::paper(n_procs)?;
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let cfg = ctx.sim_config();

    let knee = BftModel::new(params, f64::from(s)).saturation_flit_load()?;

    out.section(format!(
        "Virtual-channel lanes — butterfly fat-tree N={n_procs}, s={s} flits, \
         L ∈ {{1, 2, 4}} lanes per physical channel (first-free allocator).\n\
         Single-lane model knee: {knee:.4} flits/cycle/PE. Model: M/G/(m·L) \
         lane-slot waits + flit-multiplexed residences; simulation: lane-granular \
         grants with span bandwidth arbitration, seed {:#x}.",
        cfg.seed
    ));

    // ---- Section 1: uniform latency vs load, model vs sim per L. ----
    let fractions: &[f64] = if ctx.quick {
        &[0.2, 0.4]
    } else {
        &[0.15, 0.3, 0.45, 0.6]
    };
    let loads: Vec<f64> = fractions.iter().map(|f| f * knee).collect();

    let mut tbl = Table::new(vec![
        "load (flits/cyc/PE)",
        "L",
        "model L",
        "sim L",
        "ci95",
        "rel err %",
        "state",
    ]);
    let mut csv = Csv::new(&[
        "flit_load",
        "lanes",
        "model_latency",
        "sim_latency",
        "sim_ci95",
        "rel_err_pct",
        "sim_saturated",
    ]);
    let base = TrafficConfig::from_flit_load(loads[0], s)?;
    for &lanes in &LANE_COUNTS {
        let lc = LaneConfig::new(lanes, LaneAllocatorKind::FirstFree)?;
        let model = BftModel::with_options(
            params,
            f64::from(s),
            ModelOptions::paper().with_lanes(lanes),
        );
        let results = sweep_traffic(&router, &cfg, &base, &lc, &loads)?;
        for r in &results {
            let model_l = model
                .latency_at_flit_load(r.offered_flit_load)
                .map(|l| l.total);
            let (m_txt, err_txt, err) = match (&model_l, r.saturated) {
                (Ok(m), false) => {
                    let e = 100.0 * (m - r.avg_latency) / r.avg_latency;
                    (num(*m, 2), num(e, 1), Some(e))
                }
                (Ok(m), true) => (num(*m, 2), "-".into(), None),
                (Err(_), _) => ("SAT".into(), "-".into(), None),
            };
            tbl.row(vec![
                num(r.offered_flit_load, 4),
                lanes.to_string(),
                m_txt,
                num(r.avg_latency, 2),
                num(r.latency_ci95, 2),
                err_txt,
                if r.saturated { "saturated" } else { "stable" }.to_string(),
            ]);
            csv.row(&[
                format!("{:.5}", r.offered_flit_load),
                lanes.to_string(),
                model_l.map_or("saturated".into(), |v| format!("{v:.3}")),
                format!("{:.3}", r.avg_latency),
                format!("{:.3}", r.latency_ci95),
                err.map_or("-".into(), |e| format!("{e:.2}")),
                r.saturated.to_string(),
            ]);
        }
    }
    out.section("== uniform traffic: latency vs load, model vs simulation ==");
    out.section(tbl.render());
    ctx.write_csv(&csv, "lanes_uniform_model_vs_sim.csv", &mut out);

    // ---- Section 2: past-knee capacity shift. ----
    let past_knee = 1.15 * knee;
    let traffic = TrafficConfig::from_flit_load(past_knee, s)?;
    let mut tbl2 = Table::new(vec!["L", "sim L", "delivered", "state"]);
    for &lanes in &LANE_COUNTS {
        let lc = LaneConfig::new(lanes, LaneAllocatorKind::FirstFree)?;
        let r = run_simulation_with_lanes(&router, &cfg, &traffic, &lc);
        tbl2.row(vec![
            lanes.to_string(),
            num(r.avg_latency, 1),
            num(r.delivered_flit_load, 4),
            if r.saturated { "saturated" } else { "stable" }.to_string(),
        ]);
    }
    out.section(format!(
        "== past the single-lane knee: offered {past_knee:.4} (115% of the L=1 knee) =="
    ));
    out.section(tbl2.render());

    // ---- Section 3: hot-spot and bursty workloads across lane counts. ----
    let wl_load = 0.3 * knee;
    let mut tbl3 = Table::new(vec!["workload", "L", "sim L", "ci95", "state"]);
    let mut csv3 = Csv::new(&[
        "workload",
        "lanes",
        "flit_load",
        "sim_latency",
        "sim_saturated",
    ]);
    let workloads: [(&str, TrafficConfig); 3] = [
        ("uniform", TrafficConfig::from_flit_load(wl_load, s)?),
        (
            "hotspot",
            TrafficConfig::from_flit_load(wl_load, s)?.with_pattern(DestinationPattern::hot_spot()),
        ),
        (
            "bursty",
            TrafficConfig::from_flit_load(wl_load, s)?
                .with_arrival(ArrivalProcess::Mmpp(MmppProfile::default_bursty())),
        ),
    ];
    for (name, traffic) in &workloads {
        for &lanes in &LANE_COUNTS {
            let lc = LaneConfig::new(lanes, LaneAllocatorKind::FirstFree)?;
            let r = run_simulation_with_lanes(&router, &cfg, traffic, &lc);
            tbl3.row(vec![
                (*name).to_string(),
                lanes.to_string(),
                num(r.avg_latency, 2),
                num(r.latency_ci95, 2),
                if r.saturated { "saturated" } else { "stable" }.to_string(),
            ]);
            csv3.row(&[
                (*name).to_string(),
                lanes.to_string(),
                format!("{wl_load:.5}"),
                format!("{:.3}", r.avg_latency),
                r.saturated.to_string(),
            ]);
        }
    }
    out.section(format!(
        "== workloads across lane counts at flit load {wl_load:.4} (30% of knee) =="
    ));
    out.section(tbl3.render());
    ctx.write_csv(&csv3, "lanes_workloads.csv", &mut out);

    out.section(
        "Expected shape: at L = 1 the model reproduces Figure 3 exactly (same engine, \
         same closed form); at L ∈ {2, 4} the model tracks the simulation within a few \
         percent at low-to-moderate load; past the single-lane knee the multi-lane \
         engine keeps delivering (the saturation knee moves outward with L).",
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_lanes_experiment_runs_and_reports() {
        let ctx = ExperimentContext::quick();
        let out = run(&ctx).unwrap();
        assert!(out.report.contains("model vs simulation"), "{}", out.report);
        assert!(out.report.contains("past the single-lane knee"));
        assert!(out.report.contains("workloads across lane counts"));
        assert!(out.report.contains("stable"), "report:\n{}", out.report);
    }

    #[test]
    fn uniform_model_errors_stay_in_the_acceptance_band() {
        // The acceptance bar behind the table: at low-to-moderate
        // load the multi-lane model tracks the simulator within the shared
        // tolerance band (quick effort keeps this CI-friendly).
        let ctx = ExperimentContext::quick();
        let params = BftParams::paper(64).unwrap();
        let tree = ButterflyFatTree::new(params);
        let router = BftRouter::new(&tree);
        let cfg = ctx.sim_config();
        let knee = BftModel::new(params, 16.0).saturation_flit_load().unwrap();
        // The experiment's own grid must stay the shared test grid, and the
        // tolerance band comes from testutil so every tier enforces the
        // same bound.
        assert_eq!(LANE_COUNTS, wormsim_testutil::LANE_SWEEP);
        for lc in wormsim_testutil::lane_sweep_configs() {
            let model =
                BftModel::with_options(params, 16.0, ModelOptions::paper().with_lanes(lc.lanes()));
            for frac in [0.2, 0.4] {
                let load = frac * knee;
                let traffic = TrafficConfig::from_flit_load(load, 16).unwrap();
                let r = run_simulation_with_lanes(&router, &cfg, &traffic, &lc);
                assert!(!r.saturated);
                let m = model.latency_at_flit_load(load).unwrap().total;
                wormsim_testutil::assert_lane_model_close(
                    m,
                    r.avg_latency,
                    lc.lanes(),
                    &format!("uniform N=64 load {load:.4}"),
                );
            }
        }
    }
}
