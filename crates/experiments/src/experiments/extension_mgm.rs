//! Extension A3 — the paper's concluding remark: "the framework can be
//! extended for networks that require queuing models with more than two
//! servers".
//!
//! We build `(c, p)` butterfly fat-trees with `p ∈ {1, 2, 4}` parents per
//! switch (the paper's network is `p = 2`), model the up-link bundles as
//! M/G/p stations, and validate each against the flit-level simulator. The
//! `p = 1` tree is an ordinary 4-ary tree (pure M/G/1 chain); `p = 4`
//! exercises the general Erlang-C-scaled M/G/m formula.

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
    let mut out = ExperimentOutput::new("extension-mgm");
    let levels = if ctx.quick { 3 } else { 4 };
    let s = 32u32;
    let cfg = ctx.sim_config();

    out.section(format!(
        "M/G/p up-link bundles for (4, p) butterfly fat-trees, p in {{1, 2, 4}}, \
         n={levels} levels ({} processors), worms of {s} flits. p=2 is the \
         paper's network; p=1 and p=4 exercise the generalized model.",
        4usize.pow(levels)
    ));

    let mut tbl = Table::new(vec![
        "p",
        "load",
        "model L",
        "sim L",
        "ci95",
        "rel err %",
        "state",
    ]);
    let mut csv = Csv::new(&[
        "parents",
        "flit_load",
        "model_latency",
        "sim_latency",
        "rel_err_pct",
    ]);

    for p in [1usize, 2, 4] {
        let params = BftParams::new(4, p, levels)?;
        let tree = ButterflyFatTree::new(params);
        let router = BftRouter::new(&tree);
        let model = BftModel::new(params, f64::from(s));
        // More parents = more top-level bandwidth = higher usable loads.
        let loads: Vec<f64> = match p {
            1 => vec![0.002, 0.004, 0.006],
            2 => vec![0.01, 0.02, 0.03],
            _ => vec![0.02, 0.04, 0.06],
        };
        let base = TrafficConfig::new(0.0, s)?;
        let results = sweep_traffic(&router, &cfg, &base, &LaneConfig::single(), &loads)?;
        for r in &results {
            let model_l = model
                .latency_at_flit_load(r.offered_flit_load)
                .map(|l| l.total);
            match (model_l, r.saturated) {
                (Ok(m), false) => {
                    let err = 100.0 * (m - r.avg_latency) / r.avg_latency;
                    tbl.row(vec![
                        p.to_string(),
                        num(r.offered_flit_load, 3),
                        num(m, 1),
                        num(r.avg_latency, 1),
                        num(r.latency_ci95, 1),
                        num(err, 1),
                        "stable".to_string(),
                    ]);
                    csv.row(&[
                        p.to_string(),
                        format!("{:.4}", r.offered_flit_load),
                        format!("{m:.3}"),
                        format!("{:.3}", r.avg_latency),
                        format!("{err:.2}"),
                    ]);
                }
                (m, sat) => {
                    tbl.row(vec![
                        p.to_string(),
                        num(r.offered_flit_load, 3),
                        m.map(|v| num(v, 1)).unwrap_or_else(|_| "SAT".into()),
                        num(r.avg_latency, 1),
                        num(r.latency_ci95, 1),
                        "-".to_string(),
                        if sat {
                            "saturated".into()
                        } else {
                            "stable".to_string()
                        },
                    ]);
                }
            }
        }
    }
    out.section(tbl.render());
    ctx.write_csv(&csv, "extension_mgm.csv", &mut out);
    out.section(
        "Reading: each p keeps the model close to its simulator; saturation \
         load grows with p as the up-link bundles pool bandwidth (M/G/1 vs \
         M/G/2 vs M/G/4).",
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_extension_covers_all_p() {
        let out = run(&ExperimentContext::quick()).unwrap();
        for p in ["1", "2", "4"] {
            assert!(
                out.report.lines().any(|l| l.trim_start().starts_with(p)),
                "missing p={p} rows:\n{}",
                out.report
            );
        }
        assert!(out.report.contains("stable"));
    }
}
