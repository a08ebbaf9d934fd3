//! Extension A4 — the general model without symmetry: automatic
//! per-channel model construction for a k-ary 2-mesh.
//!
//! A mesh has no per-level or per-dimension symmetry (corners differ from
//! centers), so none of the paper's hand-derived class structures apply.
//! [`wormsim_core::flows::FlowModelSweep`] builds the §2 model
//! mechanically from the uniform-traffic flow vector of dimension-order
//! routing — one class per arbitration station, which in a mesh is one per
//! physical channel, Eq. 2 averaged over the per-PE injection channels —
//! and this experiment validates it against the flit-level simulator
//! running the same routing.

use super::{ExperimentContext, ExperimentOutput};
use crate::csv::Csv;
use crate::error::ExperimentError;
use crate::table::{num, Table};
use wormsim_core::flows::FlowModelSweep;
use wormsim_core::options::ModelOptions;
use wormsim_sim::config::TrafficConfig;
use wormsim_sim::router::MeshRouter;
use wormsim_sim::runner::run_simulation;
use wormsim_topology::mesh::Mesh;
use wormsim_workload::{DestinationPattern, FlowVector};

/// Runs the experiment.
///
/// # Errors
///
/// Propagates any [`ExperimentError`] raised while building the topology,
/// the traffic, the flow vector or the per-channel model.
pub fn run(ctx: &ExperimentContext) -> Result<ExperimentOutput, ExperimentError> {
    let mut out = ExperimentOutput::new("enumerated-mesh");
    let k = if ctx.quick { 4 } else { 8 };
    let s = 16u32;
    let mesh = Mesh::new(k, 2)?;
    let router = MeshRouter::new(&mesh);
    let flows = FlowVector::build(&mesh, &DestinationPattern::Uniform)?;
    let mut model = FlowModelSweep::new(mesh.network(), &flows, f64::from(s))?;
    let cfg = ctx.sim_config();

    out.section(format!(
        "Per-channel flow-built model on a {k}x{k} mesh ({} PEs), worms of {s} \
         flits, dimension-order routing. No symmetry assumed: one channel \
         class per physical channel ({} classes), Eq. 2 averaged over every \
         PE's injection channel.",
        mesh.num_processors(),
        mesh.network().num_channels(),
    ));

    let loads = if ctx.quick {
        vec![0.02, 0.05, 0.08]
    } else {
        vec![0.02, 0.05, 0.08, 0.12]
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
            .latency_at(traffic.message_rate, &ModelOptions::paper())
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

    // Positional asymmetry: corner vs center injection under load.
    let load = loads[loads.len() - 2];
    let traffic = TrafficConfig::from_flit_load(load, s)?;
    if let Ok(per_src) = model.per_source_injection(traffic.message_rate, &ModelOptions::paper()) {
        let corner = per_src[0];
        let center_idx = (k / 2) * k + k / 2;
        let center = per_src[center_idx];
        out.section(format!(
            "Positional asymmetry @ load {load}: corner PE0 (W={:.3}, x̄={:.3}) vs \
             central PE{center_idx} (W={:.3}, x̄={:.3}) — the mesh's corners see \
             longer remaining paths and thus more accumulated blocking, an effect \
             invisible to symmetric per-class models.",
            corner.0, corner.1, center.0, center.1
        ));
    }
    ctx.write_csv(&csv, "enumerated_mesh.csv", &mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_enumerated_mesh_tracks_simulation() {
        let out = run(&ExperimentContext::quick()).unwrap();
        assert!(out.report.contains("mesh"));
        assert!(out.report.contains("stable"), "report:\n{}", out.report);
        assert!(out.report.contains("Positional asymmetry"));
    }
}
