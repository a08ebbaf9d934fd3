//! Experiment E3 — §3.6's claim "latencies from the model and simulation
//! were compared for networks with up to 1024 processing nodes": model
//! accuracy across machine sizes at a fixed worm length.

use super::{ExperimentContext, ExperimentOutput};
use crate::csv::Csv;
use crate::error::ExperimentError;
use crate::table::{num, Table};
use wormsim_core::bft::BftModel;
use wormsim_sim::config::{LaneConfig, TrafficConfig};
use wormsim_sim::router::BftRouter;
use wormsim_sim::runner::sweep_traffic;
use wormsim_topology::bft::{BftParams, ButterflyFatTree};

/// Runs the experiment.
///
/// # Errors
///
/// Propagates any [`ExperimentError`] raised while building the topology.
pub fn run(ctx: &ExperimentContext) -> Result<ExperimentOutput, ExperimentError> {
    let mut out = ExperimentOutput::new("scaling");
    let sizes: &[usize] = if ctx.quick {
        &[16, 64, 256]
    } else {
        &[64, 256, 1024]
    };
    let s = 32u32;
    let cfg = ctx.sim_config();
    let loads = [0.005, 0.015, 0.025];

    out.section(format!(
        "Model vs simulation across machine sizes (worms of {s} flits; §3.6: \
         \"networks with up to 1024 processing nodes\")."
    ));

    let mut csv = Csv::new(&[
        "processors",
        "flit_load",
        "model_latency",
        "sim_latency",
        "rel_err_pct",
    ]);
    let mut tbl = Table::new(vec!["N", "load", "model L", "sim L", "ci95", "rel err %"]);
    let mut worst_err: f64 = 0.0;

    for &n in sizes {
        let params = BftParams::paper(n)?;
        let tree = ButterflyFatTree::new(params);
        let router = BftRouter::new(&tree);
        let model = BftModel::new(params, f64::from(s));
        let base = TrafficConfig::new(0.0, s)?;
        let results = sweep_traffic(&router, &cfg, &base, &LaneConfig::single(), &loads)?;
        for r in &results {
            if r.saturated {
                tbl.row(vec![
                    n.to_string(),
                    num(r.offered_flit_load, 3),
                    "-".to_string(),
                    num(r.avg_latency, 1),
                    num(r.latency_ci95, 1),
                    "saturated".to_string(),
                ]);
                continue;
            }
            let m = model
                .latency_at_flit_load(r.offered_flit_load)
                .map(|l| l.total)
                .unwrap_or(f64::NAN);
            let err = 100.0 * (m - r.avg_latency) / r.avg_latency;
            worst_err = worst_err.max(err.abs());
            tbl.row(vec![
                n.to_string(),
                num(r.offered_flit_load, 3),
                num(m, 1),
                num(r.avg_latency, 1),
                num(r.latency_ci95, 1),
                num(err, 1),
            ]);
            csv.row(&[
                n.to_string(),
                format!("{:.4}", r.offered_flit_load),
                format!("{m:.3}"),
                format!("{:.3}", r.avg_latency),
                format!("{err:.2}"),
            ]);
        }
    }
    out.section(tbl.render());
    out.section(format!(
        "Worst relative model error across all sizes and loads: {worst_err:.1}% \
         (the paper reports close agreement over a wide range of load)."
    ));
    ctx.write_csv(&csv, "scaling_accuracy.csv", &mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scaling_runs_and_reports_errors() {
        let out = run(&ExperimentContext::quick()).unwrap();
        assert!(out.report.contains("Worst relative model error"));
        assert!(out.report.contains("256"));
    }
}
