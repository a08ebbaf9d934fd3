//! Extension A5 — tail latency under load.
//!
//! The paper (like most 1990s models) reports only *mean* latency; a modern
//! redo would also show the tail. The simulator records full latency
//! distributions, so we report p50/p95/p99/max alongside the mean and the
//! model's mean prediction. Expected shape: percentile spread widens
//! sharply approaching the knee — the mean hides most of the congestion
//! story.

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
    let mut out = ExperimentOutput::new("tail-latency");
    let n = if ctx.quick { 256 } else { 1024 };
    let s = 32u32;
    let params = BftParams::paper(n)?;
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let model = BftModel::new(params, f64::from(s));
    let cfg = ctx.sim_config();

    out.section(format!(
        "Latency distribution vs load: butterfly fat-tree N={n}, worms of {s} \
         flits. The model predicts the mean (Eq. 25); the simulator adds the \
         percentiles the mean conceals."
    ));

    let loads: Vec<f64> = if ctx.quick {
        vec![0.01, 0.02, 0.03]
    } else {
        vec![0.005, 0.015, 0.025, 0.03, 0.035]
    };
    let base = TrafficConfig::new(0.0, s)?;
    let results = sweep_traffic(&router, &cfg, &base, &LaneConfig::single(), &loads)?;

    let mut tbl = Table::new(vec![
        "load",
        "model mean",
        "sim mean",
        "p50",
        "p95",
        "p99",
        "max",
        "p99/p50",
    ]);
    let mut csv = Csv::new(&[
        "flit_load",
        "model_mean",
        "sim_mean",
        "p50",
        "p95",
        "p99",
        "max",
    ]);
    for r in &results {
        if r.saturated {
            continue;
        }
        let m = model
            .latency_at_flit_load(r.offered_flit_load)
            .map(|l| l.total)
            .unwrap_or(f64::NAN);
        tbl.row(vec![
            num(r.offered_flit_load, 3),
            num(m, 1),
            num(r.avg_latency, 1),
            num(r.latency_p50, 1),
            num(r.latency_p95, 1),
            num(r.latency_p99, 1),
            num(r.latency_max, 1),
            num(r.latency_p99 / r.latency_p50, 2),
        ]);
        csv.row(&[
            format!("{:.4}", r.offered_flit_load),
            format!("{m:.3}"),
            format!("{:.3}", r.avg_latency),
            format!("{:.1}", r.latency_p50),
            format!("{:.1}", r.latency_p95),
            format!("{:.1}", r.latency_p99),
            format!("{:.1}", r.latency_max),
        ]);
    }
    out.section(tbl.render());
    ctx.write_csv(&csv, "tail_latency.csv", &mut out);
    out.section(
        "Reading: the p99/p50 ratio grows with load — congestion is carried \
         by the tail long before the mean moves. The analytical model (a \
         mean-value analysis) cannot see this; the simulator can.",
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_tail_latency_shows_widening_tail() {
        let out = run(&ExperimentContext::quick()).unwrap();
        assert!(out.report.contains("p99"), "report:\n{}", out.report);
        // Extract the p99/p50 column and confirm it is non-decreasing.
        let ratios: Vec<f64> = out
            .report
            .lines()
            .filter_map(|l| {
                let cells: Vec<&str> = l.split_whitespace().collect();
                if cells.len() == 8 && cells[0].parse::<f64>().is_ok() {
                    cells[7].parse::<f64>().ok()
                } else {
                    None
                }
            })
            .collect();
        assert!(ratios.len() >= 2, "need ratio rows:\n{}", out.report);
        assert!(
            ratios.last().unwrap() >= ratios.first().unwrap(),
            "tail should widen with load: {ratios:?}"
        );
    }
}
