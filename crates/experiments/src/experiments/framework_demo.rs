//! Experiment E5 — Figure 1 / §2: the general routing model applied beyond
//! the butterfly fat-tree.
//!
//! The paper's general framework (PE/RE elements, injection/ejection
//! channels, Eq. 11 backward resolution) is demonstrated on the binary
//! hypercube with e-cube routing — a Draper–Ghosh-style single-server
//! model — and validated against the same flit-level simulator running the
//! hypercube router. This substantiates the conclusion's claim that "these
//! ideas can also be applied to other networks".

use super::{ExperimentContext, ExperimentOutput};
use crate::csv::Csv;
use crate::error::ExperimentError;
use crate::table::{num, Table};
use wormsim_core::hypercube as cube_model;
use wormsim_core::options::ModelOptions;
use wormsim_sim::config::TrafficConfig;
use wormsim_sim::router::HypercubeRouter;
use wormsim_sim::runner::run_simulation;
use wormsim_topology::hypercube::Hypercube;

/// Runs the experiment.
///
/// # Errors
///
/// Propagates any [`ExperimentError`] raised while building the topology
/// or the traffic.
pub fn run(ctx: &ExperimentContext) -> Result<ExperimentOutput, ExperimentError> {
    let mut out = ExperimentOutput::new("framework-demo");
    let dim = if ctx.quick { 6 } else { 8 };
    let s = 16u32;
    let cube = Hypercube::new(dim)?;
    let router = HypercubeRouter::new(&cube);
    let model = cube_model::hypercube_spec(dim, f64::from(s))?;
    let cfg = ctx.sim_config();

    out.section(format!(
        "General-framework demo: {dim}-dimensional hypercube ({} PEs), e-cube \
         routing, worms of {s} flits. The model is the §2 framework solved \
         on per-dimension channel classes; the simulator runs the same \
         topology flit by flit.",
        cube.num_processors()
    ));

    let loads = if ctx.quick {
        vec![0.01, 0.03, 0.05]
    } else {
        vec![0.01, 0.03, 0.05, 0.08]
    };
    let mut tbl = Table::new(vec![
        "load",
        "model L",
        "sim L",
        "ci95",
        "rel err %",
        "state",
    ]);
    let mut csv = Csv::new(&["flit_load", "model_latency", "sim_latency", "rel_err_pct"]);

    for &load in &loads {
        let traffic = TrafficConfig::from_flit_load(load, s)?;
        let model_l = model
            .latency(traffic.message_rate, &ModelOptions::paper(), None)
            .map(|l| l.total);
        let sim = run_simulation(&router, &cfg, &traffic);
        match (model_l, sim.saturated) {
            (Ok(m), false) => {
                let err = 100.0 * (m - sim.avg_latency) / sim.avg_latency;
                tbl.row(vec![
                    num(load, 3),
                    num(m, 1),
                    num(sim.avg_latency, 1),
                    num(sim.latency_ci95, 1),
                    num(err, 1),
                    "stable".to_string(),
                ]);
                csv.row(&[
                    format!("{load:.4}"),
                    format!("{m:.3}"),
                    format!("{:.3}", sim.avg_latency),
                    format!("{err:.2}"),
                ]);
            }
            (m, sat) => {
                tbl.row(vec![
                    num(load, 3),
                    m.map(|v| num(v, 1)).unwrap_or_else(|_| "SAT".into()),
                    num(sim.avg_latency, 1),
                    num(sim.latency_ci95, 1),
                    "-".to_string(),
                    if sat {
                        "saturated".to_string()
                    } else {
                        "stable".to_string()
                    },
                ]);
            }
        }
    }
    out.section(tbl.render());

    if let Ok(sat) = cube_model::saturation(dim, f64::from(s), &ModelOptions::paper()) {
        out.section(format!(
            "Model saturation for the {dim}-cube: {:.4} flits/cycle/PE.",
            sat.flit_load
        ));
    }
    ctx.write_csv(&csv, "framework_demo_hypercube.csv", &mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_demo_tracks_simulation() {
        let out = run(&ExperimentContext::quick()).unwrap();
        assert!(out.report.contains("hypercube"));
        assert!(out.report.contains("stable"), "report:\n{}", out.report);
    }
}
