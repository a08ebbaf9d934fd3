//! Experiment E2 — Figure 3: average latency vs offered load, model and
//! simulation, for worms of 16, 32 and 64 flits.
//!
//! The paper plots latency (cycles) against load rate (flits/cycle per
//! processor) from 0 to 0.05 for a 1024-processor butterfly fat-tree, with
//! model curves tracking simulation points closely until saturation. We
//! regenerate both series and report the relative model error at every
//! simulated point.

use super::{ExperimentContext, ExperimentOutput};
use crate::ascii_plot::{plot, Series};
use crate::csv::Csv;
use crate::error::ExperimentError;
use crate::table::{num, Table};
use wormsim_core::bft::BftModel;
use wormsim_sim::config::{LaneConfig, TrafficConfig};
use wormsim_sim::router::BftRouter;
use wormsim_sim::runner::sweep_traffic;
use wormsim_topology::bft::{BftParams, ButterflyFatTree};

/// The worm lengths of Figure 3.
pub const WORM_LENGTHS: [u32; 3] = [16, 32, 64];

/// Runs the experiment.
///
/// # Errors
///
/// Propagates any [`ExperimentError`] raised while building the topology.
pub fn run(ctx: &ExperimentContext) -> Result<ExperimentOutput, ExperimentError> {
    let mut out = ExperimentOutput::new("fig3");
    let n_procs = if ctx.quick { 256 } else { 1024 };
    let params = BftParams::paper(n_procs)?;
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let cfg = ctx.sim_config();

    let sim_loads: Vec<f64> = if ctx.quick {
        vec![0.005, 0.015, 0.025, 0.035]
    } else {
        (1..=16).map(|i| 0.0025 * f64::from(i)).collect()
    };

    out.section(format!(
        "Figure 3 — latency vs load, butterfly fat-tree N={n_procs}, worms of 16/32/64 flits.\n\
         Simulation: warmup {} cycles, window {} cycles, seed {:#x}.",
        cfg.warmup_cycles, cfg.measure_cycles, cfg.seed
    ));

    let mut csv = Csv::new(&[
        "worm_flits",
        "flit_load",
        "model_latency",
        "sim_latency",
        "sim_ci95",
        "sim_saturated",
        "rel_err_pct",
    ]);
    let mut all_series: Vec<Series> = Vec::new();
    let symbols = ['1', '3', '6']; // 16, 32, 64-flit curves

    for (si, &s) in WORM_LENGTHS.iter().enumerate() {
        let model = BftModel::new(params, f64::from(s));
        let base = TrafficConfig::new(0.0, s)?;
        let results = sweep_traffic(&router, &cfg, &base, &LaneConfig::single(), &sim_loads)?;

        let mut tbl = Table::new(vec![
            "load (flits/cyc/PE)",
            "model L",
            "sim L",
            "ci95",
            "rel err %",
            "state",
        ]);
        let mut model_pts = Vec::new();
        let mut sim_pts = Vec::new();
        // Dense model curve (cheap) for the plot.
        let max_sim_load = sim_loads.iter().fold(0.0_f64, |a, &b| a.max(b));
        let mut dense = 0.0005;
        while dense < max_sim_load * 1.05 {
            if let Ok(l) = model.latency_at_flit_load(dense) {
                model_pts.push((dense, l.total));
            }
            dense += 0.0005;
        }
        for r in &results {
            let model_l = model
                .latency_at_flit_load(r.offered_flit_load)
                .map(|l| l.total);
            let (model_txt, err_txt, err_pct) = match (&model_l, r.saturated) {
                (Ok(m), false) => {
                    let err = 100.0 * (m - r.avg_latency) / r.avg_latency;
                    (num(*m, 1), num(err, 1), Some(err))
                }
                (Ok(m), true) => (num(*m, 1), "-".to_string(), None),
                (Err(_), _) => ("SAT".to_string(), "-".to_string(), None),
            };
            tbl.row(vec![
                num(r.offered_flit_load, 4),
                model_txt.clone(),
                num(r.avg_latency, 1),
                num(r.latency_ci95, 1),
                err_txt,
                if r.saturated {
                    "saturated".to_string()
                } else {
                    "stable".to_string()
                },
            ]);
            if !r.saturated {
                sim_pts.push((r.offered_flit_load, r.avg_latency));
            }
            csv.row(&[
                s.to_string(),
                format!("{:.4}", r.offered_flit_load),
                model_l
                    .map(|v| format!("{v:.3}"))
                    .unwrap_or_else(|_| "saturated".into()),
                format!("{:.3}", r.avg_latency),
                format!("{:.3}", r.latency_ci95),
                r.saturated.to_string(),
                err_pct
                    .map(|e| format!("{e:.2}"))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
        out.section(format!("== worms of {s} flits =="));
        out.section(tbl.render());
        all_series.push(Series::new(
            format!("model {s}-flit"),
            symbols[si],
            model_pts,
        ));
        all_series.push(Series::new(
            format!("sim {s}-flit"),
            (b'a' + si as u8) as char,
            sim_pts,
        ));
    }

    out.section(plot(
        &all_series,
        72,
        22,
        "flit load (flits/cycle/PE)",
        "latency (cycles)",
    ));
    ctx.write_csv(&csv, "fig3_latency_vs_load.csv", &mut out);
    out.section(
        "Expected shape (paper): curves ordered 16 < 32 < 64 flits, flat near \
         zero load at s + D - 1, model hugging simulation until the knee, \
         divergence only close to saturation.",
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig3_reproduces_the_shape() {
        let ctx = ExperimentContext::quick();
        let out = run(&ctx).unwrap();
        assert!(out.report.contains("worms of 16 flits"));
        assert!(out.report.contains("worms of 64 flits"));
        assert!(out.report.contains("legend:"));
        // All three sizes produce at least one stable simulated point.
        assert!(out.report.matches("stable").count() >= 3);
    }
}
