//! Experiment W1 — hot-spot traffic: workload-driven model vs simulation.
//!
//! The paper's model assumes uniformly random destinations. The workload
//! subsystem removes that assumption: the hot-spot pattern (fraction `β`
//! of traffic addressed to one PE) is pushed through the fat-tree's
//! routing as a per-channel flow vector and solved with one §2 class per
//! arbitration station, so the single hot ejection channel — invisible to
//! the per-level symmetric model — becomes the explicit bottleneck.
//!
//! Two sections: latency vs load at the classic `β = 1/8` (model vs
//! simulation, uniform model shown for contrast), and a `β` sweep at a
//! fixed load showing how concentration erodes the usable capacity.

use super::{ExperimentContext, ExperimentOutput};
use crate::csv::Csv;
use crate::error::ExperimentError;
use crate::table::{num, Table};
use wormsim_core::bft::BftModel;
use wormsim_core::flows::{model_from_flows, FlowModelSweep};
use wormsim_core::options::ModelOptions;
use wormsim_sim::config::{DestinationPattern, LaneConfig, TrafficConfig};
use wormsim_sim::router::BftRouter;
use wormsim_sim::runner::sweep_traffic;
use wormsim_topology::bft::{BftParams, ButterflyFatTree};
use wormsim_workload::FlowVector;

/// Flit load at which the hot PE's ejection channel saturates: the channel
/// consumes one flit per cycle, and it receives `unit_eject` worms per
/// unit `λ₀`.
fn hot_knee_flit_load(unit_eject: f64) -> f64 {
    1.0 / unit_eject
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates any [`ExperimentError`] raised while building the topology,
/// flows, traffic, or models.
pub fn run(ctx: &ExperimentContext) -> Result<ExperimentOutput, ExperimentError> {
    let mut out = ExperimentOutput::new("hotspot");
    let n_procs = if ctx.quick { 64 } else { 256 };
    let s = 16u32;
    let params = BftParams::paper(n_procs)?;
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let cfg = ctx.sim_config();

    let pattern = DestinationPattern::hot_spot();
    let DestinationPattern::HotSpot { fraction: beta, .. } = pattern else {
        unreachable!("hot_spot() is a HotSpot pattern")
    };
    let flows = FlowVector::build(&tree, &pattern)?;
    let uniform_model = BftModel::new(params, f64::from(s));
    let unit_eject = flows.unit_flow(tree.network().processors()[0].eject);
    // The hot ejector receives λ₀·unit_eject worms/cycle of s flits each
    // and drains one flit per cycle, so it saturates at flit load
    // λ₀·s = 1/unit_eject.
    let knee = hot_knee_flit_load(unit_eject);
    let uniform_knee = uniform_model.saturation_flit_load()?;

    out.section(format!(
        "Hot-spot workload — butterfly fat-tree N={n_procs}, s={s} flits, β={beta} to PE 0.\n\
         The hot ejection channel carries {unit_eject:.2}× a PE's message rate, so the \
         knee sits near flit load {knee:.4} — {:.1}× below the uniform knee of {uniform_knee:.4}.\n\
         Model: per-station spec from the routing-induced flow vector; \
         simulation: workload-driven destination sampling, seed {:#x}.",
        uniform_knee / knee,
        cfg.seed
    ));

    // ---- Latency vs load at β = 1/8. ----
    let fractions = if ctx.quick {
        vec![0.25, 0.5, 0.7]
    } else {
        vec![0.15, 0.3, 0.45, 0.6, 0.75, 0.9]
    };
    let loads: Vec<f64> = fractions.iter().map(|f| f * knee).collect();

    let base = TrafficConfig::from_flit_load(loads[0], s)?.with_pattern(pattern);
    let results = sweep_traffic(&router, &cfg, &base, &LaneConfig::single(), &loads)?;
    // One model build for the whole sweep; per point only the class rates
    // rescale and the solver warm-starts from the previous load.
    let mut hot_model = FlowModelSweep::new(tree.network(), &flows, f64::from(s))?;

    let mut tbl = Table::new(vec![
        "load (flits/cyc/PE)",
        "hot model L",
        "sim L",
        "ci95",
        "rel err %",
        "uniform model L",
        "state",
    ]);
    let mut csv = Csv::new(&[
        "flit_load",
        "beta",
        "model_latency",
        "sim_latency",
        "sim_ci95",
        "uniform_model_latency",
        "sim_saturated",
        "rel_err_pct",
    ]);
    for r in &results {
        let lambda0 = r.offered_message_rate;
        let hot_l = hot_model
            .latency_at(lambda0, &ModelOptions::paper())
            .map(|l| l.total);
        let uni_l = uniform_model
            .latency_at_message_rate(lambda0)
            .map(|l| l.total);
        let (model_txt, err_txt, err_pct) = match (&hot_l, r.saturated) {
            (Ok(m), false) => {
                let err = 100.0 * (m - r.avg_latency) / r.avg_latency;
                (num(*m, 2), num(err, 1), Some(err))
            }
            (Ok(m), true) => (num(*m, 2), "-".to_string(), None),
            (Err(_), _) => ("SAT".to_string(), "-".to_string(), None),
        };
        tbl.row(vec![
            num(r.offered_flit_load, 4),
            model_txt,
            num(r.avg_latency, 2),
            num(r.latency_ci95, 2),
            err_txt,
            uni_l.as_ref().map_or("SAT".to_string(), |v| num(*v, 2)),
            if r.saturated { "saturated" } else { "stable" }.to_string(),
        ]);
        csv.row(&[
            format!("{:.5}", r.offered_flit_load),
            beta.to_string(),
            hot_l.map_or("saturated".into(), |v| format!("{v:.3}")),
            format!("{:.3}", r.avg_latency),
            format!("{:.3}", r.latency_ci95),
            uni_l.map_or("saturated".into(), |v| format!("{v:.3}")),
            r.saturated.to_string(),
            err_pct.map_or("-".into(), |e| format!("{e:.2}")),
        ]);
    }
    out.section(format!("== latency vs load, β = {beta} =="));
    out.section(tbl.render());
    ctx.write_csv(&csv, "hotspot_latency_vs_load.csv", &mut out);

    // ---- β sweep at a fixed absolute load. ----
    let sweep_load = 0.35 * knee;
    let betas = if ctx.quick {
        vec![0.0, 0.125, 0.25]
    } else {
        vec![0.0, 0.0625, 0.125, 0.25, 0.5]
    };
    let mut tbl2 = Table::new(vec!["beta", "hot eject util", "model L", "sim L", "state"]);
    let mut csv2 = Csv::new(&[
        "beta",
        "flit_load",
        "hot_eject_utilization",
        "model_latency",
        "sim_latency",
        "sim_saturated",
    ]);
    for &beta in &betas {
        let pat = DestinationPattern::HotSpot {
            fraction: beta,
            target: 0,
        };
        let f = FlowVector::build(&tree, &pat)?;
        let lambda0 = sweep_load / f64::from(s);
        let util = f.unit_flow(tree.network().processors()[0].eject) * lambda0 * f64::from(s);
        let model_l = model_from_flows(tree.network(), &f, f64::from(s), lambda0, None)?
            .latency(&ModelOptions::paper(), None)
            .map(|l| l.total);
        let traffic = TrafficConfig::from_flit_load(sweep_load, s)?.with_pattern(pat);
        let r = wormsim_sim::runner::run_simulation(&router, &cfg, &traffic);
        tbl2.row(vec![
            num(beta, 4),
            num(util, 3),
            model_l.as_ref().map_or("SAT".to_string(), |v| num(*v, 2)),
            num(r.avg_latency, 2),
            if r.saturated { "saturated" } else { "stable" }.to_string(),
        ]);
        csv2.row(&[
            beta.to_string(),
            format!("{sweep_load:.5}"),
            format!("{util:.4}"),
            model_l.map_or("saturated".into(), |v| format!("{v:.3}")),
            format!("{:.3}", r.avg_latency),
            r.saturated.to_string(),
        ]);
    }
    out.section(format!(
        "== β sweep at flit load {sweep_load:.4} (35% of the β={beta} knee) =="
    ));
    out.section(tbl2.render());
    ctx.write_csv(&csv2, "hotspot_beta_sweep.csv", &mut out);

    out.section(
        "Expected shape: the workload model tracks the hot-spot simulation while the \
         uniform model (blind to the concentration) undershoots increasingly with load; \
         raising β drives the hot ejector's utilization — and with it the latency — up \
         until saturation, at a total load far below the uniform knee.",
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_hotspot_runs_and_reports() {
        let ctx = ExperimentContext::quick();
        let out = run(&ctx).unwrap();
        assert!(out.report.contains("β sweep"));
        assert!(out.report.contains("hot model L"));
        assert!(out.report.contains("stable"), "report:\n{}", out.report);
    }

    #[test]
    fn knee_formula_matches_flow_vector() {
        let tree = ButterflyFatTree::new(BftParams::paper(64).unwrap());
        let flows = FlowVector::build(&tree, &DestinationPattern::hot_spot()).unwrap();
        let unit = flows.unit_flow(tree.network().processors()[0].eject);
        // ≈ (N−1)·β + (1−β) = 63/8 + 7/8 = 8.75 at N=64.
        assert!((unit - 8.75).abs() < 1e-9, "unit eject flow {unit}");
        assert!((hot_knee_flit_load(unit) - 1.0 / 8.75).abs() < 1e-12);
    }
}
