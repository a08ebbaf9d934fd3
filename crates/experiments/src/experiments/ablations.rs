//! Ablations A1 and A2 — measuring what each of the paper's two novel
//! ingredients buys.
//!
//! * **A1 (multi-server queues)**: replace each two-link up bundle with two
//!   independent M/G/1 queues (the pre-paper treatment). Pooling is lost,
//!   so predicted waits rise and the predicted knee moves left.
//! * **A2 (blocking-probability correction)**: set `P(i|j) = 1` (raw
//!   Poisson-arrival waiting at every hop). Waits are over-counted.
//!
//! Both ablations are compared against the simulator, which is the ground
//! truth the paper validates against: the paper's configuration should
//! minimize the error.

use super::{ExperimentContext, ExperimentOutput};
use crate::csv::Csv;
use crate::error::ExperimentError;
use crate::table::{num, Table};
use wormsim_core::bft::BftModel;
use wormsim_core::options::ModelOptions;
use wormsim_sim::config::{LaneConfig, TrafficConfig};
use wormsim_sim::router::BftRouter;
use wormsim_sim::runner::sweep_traffic;
use wormsim_topology::bft::{BftParams, ButterflyFatTree};

struct Variant {
    label: &'static str,
    options: ModelOptions,
}

fn variants() -> Vec<Variant> {
    vec![
        Variant {
            label: "paper",
            options: ModelOptions::paper(),
        },
        Variant {
            label: "A1 single-server",
            options: ModelOptions::single_server_up(),
        },
        Variant {
            label: "A2 no blocking",
            options: ModelOptions::no_blocking_correction(),
        },
        Variant {
            label: "prior art (both off)",
            options: ModelOptions::prior_art(),
        },
    ]
}

fn run_ablation(
    ctx: &ExperimentContext,
    name: &str,
    intro: &str,
) -> Result<ExperimentOutput, ExperimentError> {
    let mut out = ExperimentOutput::new(name);
    let n = if ctx.quick { 256 } else { 1024 };
    let s = 32u32;
    let params = BftParams::paper(n)?;
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let cfg = ctx.sim_config();
    let loads = if ctx.quick {
        vec![0.01, 0.02, 0.03]
    } else {
        vec![0.01, 0.02, 0.03, 0.035]
    };

    out.section(intro);
    out.section(format!(
        "Butterfly fat-tree N={n}, worms of {s} flits; simulator as ground truth."
    ));

    let base = TrafficConfig::new(0.0, s)?;
    let sims = sweep_traffic(&router, &cfg, &base, &LaneConfig::single(), &loads)?;
    let vs = variants();
    let mut tbl_header: Vec<String> = vec!["load".into(), "sim L".into()];
    for v in &vs {
        tbl_header.push(format!("{} (err%)", v.label));
    }
    let mut tbl = Table::new(tbl_header);
    let mut csv = Csv::new(&[
        "flit_load",
        "sim_latency",
        "variant",
        "model_latency",
        "rel_err_pct",
    ]);
    let mut sums: Vec<(f64, u32)> = vec![(0.0, 0); vs.len()];

    for r in &sims {
        if r.saturated {
            continue;
        }
        let mut cells = vec![num(r.offered_flit_load, 3), num(r.avg_latency, 1)];
        for (vi, v) in vs.iter().enumerate() {
            let model = BftModel::with_options(params, f64::from(s), v.options);
            match model.latency_at_flit_load(r.offered_flit_load) {
                Ok(l) => {
                    let err = 100.0 * (l.total - r.avg_latency) / r.avg_latency;
                    sums[vi].0 += err.abs();
                    sums[vi].1 += 1;
                    cells.push(format!("{} ({})", num(l.total, 1), num(err, 1)));
                    csv.row(&[
                        format!("{:.4}", r.offered_flit_load),
                        format!("{:.3}", r.avg_latency),
                        v.label.to_string(),
                        format!("{:.3}", l.total),
                        format!("{err:.2}"),
                    ]);
                }
                Err(_) => {
                    cells.push("SAT".to_string());
                    csv.row(&[
                        format!("{:.4}", r.offered_flit_load),
                        format!("{:.3}", r.avg_latency),
                        v.label.to_string(),
                        "saturated".to_string(),
                        "-".to_string(),
                    ]);
                }
            }
        }
        tbl.row(cells);
    }
    out.section(tbl.render());

    let mut summary = Table::new(vec!["variant", "mean |err| %", "points"]);
    for (vi, v) in vs.iter().enumerate() {
        let (sum, cnt) = sums[vi];
        summary.row(vec![
            v.label.to_string(),
            if cnt > 0 {
                num(sum / f64::from(cnt), 2)
            } else {
                "-".into()
            },
            cnt.to_string(),
        ]);
    }
    out.section(summary.render());
    ctx.write_csv(&csv, &format!("{name}.csv"), &mut out);
    Ok(out)
}

/// A1: up-link bundles as independent single-server queues.
///
/// # Errors
///
/// Propagates any [`ExperimentError`] raised while building the topology.
pub fn run_servers(ctx: &ExperimentContext) -> Result<ExperimentOutput, ExperimentError> {
    run_ablation(
        ctx,
        "ablation-servers",
        "Ablation A1 — novelty 1 (multiple-server queues). Removing the M/G/2 \
         treatment of up-link pairs ignores bandwidth pooling and inflates \
         predicted waits; the paper's configuration should carry the smaller \
         error against simulation.",
    )
}

/// A2: blocking-probability correction disabled.
///
/// # Errors
///
/// Propagates any [`ExperimentError`] raised while building the topology.
pub fn run_blocking(ctx: &ExperimentContext) -> Result<ExperimentOutput, ExperimentError> {
    run_ablation(
        ctx,
        "ablation-blocking",
        "Ablation A2 — novelty 2 (wormhole blocking correction, Eq. 10). With \
         P(i|j) = 1 a worm is modeled as waiting even for worms from its own \
         input link, over-counting contention; the paper's configuration \
         should carry the smaller error against simulation.",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_variant_beats_ablations_on_average() {
        let ctx = ExperimentContext::quick();
        let out = run_servers(&ctx).unwrap();
        // Extract the summary means: paper must be first and smallest.
        let lines: Vec<&str> = out
            .report
            .lines()
            .filter(|l| {
                l.starts_with("paper")
                    || l.starts_with("A1")
                    || l.starts_with("A2")
                    || l.starts_with("prior art")
            })
            .collect();
        assert!(lines.len() >= 4, "summary rows missing:\n{}", out.report);
        let mean_of = |line: &str| -> f64 {
            line.split_whitespace()
                .filter_map(|t| t.parse::<f64>().ok())
                .next()
                .unwrap_or(f64::INFINITY)
        };
        let paper = lines
            .iter()
            .find(|l| l.starts_with("paper"))
            .map(|l| mean_of(l))
            .unwrap();
        for l in &lines {
            if !l.starts_with("paper") {
                assert!(
                    paper <= mean_of(l) + 1e-9,
                    "paper config must have smallest mean error:\n{}",
                    out.report
                );
            }
        }
    }
}
