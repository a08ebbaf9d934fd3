//! Experiment E4 — §3.5 / Eq. 26: maximum throughput.
//!
//! The model's saturation point is the `λ₀` where the source service time
//! crosses `1/λ₀`; the simulator's is bracketed by scanning offered load
//! until instability (growing source backlog / failed drain). The paper
//! states the model "produced accurate predictions on latency and
//! throughput for all cases under study".

use super::{ExperimentContext, ExperimentOutput};
use crate::csv::Csv;
use crate::error::ExperimentError;
use crate::table::{num, Table};
use wormsim_core::bft::BftModel;
use wormsim_sim::config::{LaneConfig, TrafficConfig};
use wormsim_sim::router::BftRouter;
use wormsim_sim::runner::find_saturation;
use wormsim_topology::bft::{BftParams, ButterflyFatTree};

/// Runs the experiment.
///
/// # Errors
///
/// Propagates any [`ExperimentError`] raised while building the topology.
pub fn run(ctx: &ExperimentContext) -> Result<ExperimentOutput, ExperimentError> {
    let mut out = ExperimentOutput::new("throughput");
    let sizes: &[usize] = if ctx.quick {
        &[16, 64]
    } else {
        &[64, 256, 1024]
    };
    let worms: &[u32] = if ctx.quick { &[16, 32] } else { &[16, 32, 64] };
    let cfg = ctx.sim_config();

    out.section(
        "Saturation throughput (flits/cycle/PE): model knee (Eq. 26) vs the \
         simulator's stability bracket [last stable, first saturated].",
    );

    let mut tbl = Table::new(vec![
        "N",
        "worm flits",
        "model knee",
        "sim stable <=",
        "sim saturated >=",
        "model inside bracket",
    ]);
    let mut csv = Csv::new(&[
        "processors",
        "worm_flits",
        "model_knee",
        "sim_last_stable",
        "sim_first_saturated",
    ]);

    for &n in sizes {
        let params = BftParams::paper(n)?;
        let tree = ButterflyFatTree::new(params);
        let router = BftRouter::new(&tree);
        for &s in worms {
            let model = BftModel::new(params, f64::from(s));
            let knee = model.saturation_flit_load().map_or(f64::NAN, |k| k);
            // Scan around the model prediction: start well below, step ~6%.
            let start = (knee * 0.55).max(0.004);
            let step = (knee * 0.06).max(0.002);
            let (base, one) = (TrafficConfig::new(0.0, s)?, LaneConfig::single());
            let scan = find_saturation(&router, &cfg, &base, &one, start, step, knee * 2.5);
            let (stable, first_bad) = scan?;
            let bad = first_bad.unwrap_or(f64::NAN);
            // The analytical knee is systematically slightly conservative
            // (the model is pessimistic approaching saturation, visibly so
            // at small N), so we report the relative gap to the simulator
            // bracket rather than insisting on strict containment.
            let inside = if bad.is_nan() {
                "sim never saturated".to_string()
            } else if knee >= stable - 1e-12 && knee <= bad + 1e-12 {
                "inside".to_string()
            } else {
                let nearest = if knee < stable { stable } else { bad };
                format!("within {:.0}%", 100.0 * (knee - nearest).abs() / knee)
            };
            tbl.row(vec![
                n.to_string(),
                s.to_string(),
                num(knee, 4),
                num(stable, 4),
                num(bad, 4),
                inside,
            ]);
            csv.row(&[
                n.to_string(),
                s.to_string(),
                format!("{knee:.5}"),
                format!("{stable:.5}"),
                if bad.is_nan() {
                    "-".to_string()
                } else {
                    format!("{bad:.5}")
                },
            ]);
        }
    }
    out.section(tbl.render());
    ctx.write_csv(&csv, "throughput_saturation.csv", &mut out);
    out.section(
        "Note: the simulator bracket is resolution-limited by the scan step; \
         agreement means the analytical knee falls inside or adjacent to the \
         bracket, mirroring the paper's 'accurate predictions on throughput'.",
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_throughput_knee_is_near_the_sim_bracket() {
        let out = run(&ExperimentContext::quick()).unwrap();
        assert!(out.report.contains("model knee"));
        // Every row must land inside the simulator's stability bracket or
        // within 25% of it (the model is mildly conservative at small N).
        for line in out.report.lines() {
            if let Some(pos) = line.find("within ") {
                let pct: f64 = line[pos + 7..]
                    .trim_end_matches('%')
                    .trim()
                    .parse()
                    .unwrap_or(f64::INFINITY);
                assert!(pct <= 25.0, "knee too far from sim bracket: {line}");
            }
        }
        assert!(
            out.report.contains("inside") || out.report.contains("within"),
            "report:\n{}",
            out.report
        );
    }
}
