//! Experiment W2 — bursty (MMPP) sources: where Poisson modeling breaks.
//!
//! Related work (Giroudot & Mifdaoui) shows wormhole NoC latencies degrade
//! sharply under bursty traffic. The workload subsystem makes that
//! measurable here: each PE's source is a two-state MMPP with the same
//! *mean* rate as the Poisson baseline, so any latency difference is pure
//! burstiness. Three predictions are compared against the MMPP simulation:
//!
//! * the paper's Poisson model (mean-rate equivalent — what a modeler
//!   blind to burstiness would predict);
//! * a burst-corrected model: the Poisson chain with the *injection
//!   queue's* wait replaced by the Kingman / Allen–Cunneen G/G/1 wait at
//!   the MMPP's index of dispersion (`wormsim-queueing::gg1`);
//! * the Poisson simulation (peak/mean = 1 row), which the Poisson model
//!   is known to track.

use super::{ExperimentContext, ExperimentOutput};
use crate::csv::Csv;
use crate::error::ExperimentError;
use crate::table::{num, Table};
use wormsim_core::bft::BftModel;
use wormsim_queueing::gg1;
use wormsim_queueing::wormhole::wormhole_scv;
use wormsim_sim::config::{ArrivalProcess, MmppProfile, TrafficConfig};
use wormsim_sim::router::BftRouter;
use wormsim_sim::runner::run_simulation;
use wormsim_topology::bft::{BftParams, ButterflyFatTree};

/// Runs the experiment.
///
/// # Errors
///
/// Propagates any [`ExperimentError`] raised while building the topology,
/// traffic shapes, or the baseline model point.
pub fn run(ctx: &ExperimentContext) -> Result<ExperimentOutput, ExperimentError> {
    let mut out = ExperimentOutput::new("bursty");
    let n_procs = 64;
    let s = 16u32;
    let flit_load = 0.06; // comfortably below the uniform knee (~0.18)
    let params = BftParams::paper(n_procs)?;
    let tree = ButterflyFatTree::new(params);
    let router = BftRouter::new(&tree);
    let cfg = ctx.sim_config();
    let model = BftModel::new(params, f64::from(s));
    let lambda0 = flit_load / f64::from(s);

    let poisson_model = model.latency_at_message_rate(lambda0)?;
    let audit = model.audit_at_message_rate(lambda0)?;
    let x01 = audit.x_up[0];
    let w01 = audit.w_up[0];
    let scv01 = wormhole_scv(x01, f64::from(s));

    out.section(format!(
        "Bursty MMPP sources — butterfly fat-tree N={n_procs}, s={s} flits, mean flit \
         load {flit_load} (λ₀ = {lambda0:.5}). Every row offers the same mean rate; \
         only the burst shape varies. Poisson model predicts L = {:.2}. Seed {:#x}.",
        poisson_model.total, cfg.seed
    ));

    // (peak_to_mean, duty, mean ON cycles); ratio 1 encodes plain Poisson.
    let shapes: Vec<(f64, f64, f64)> = if ctx.quick {
        vec![(1.0, 0.2, 200.0), (4.0, 0.2, 200.0), (8.0, 0.1, 400.0)]
    } else {
        vec![
            (1.0, 0.2, 200.0),
            (2.0, 0.3, 200.0),
            (4.0, 0.2, 200.0),
            (4.0, 0.2, 800.0),
            (8.0, 0.1, 400.0),
        ]
    };

    let mut tbl = Table::new(vec![
        "peak/mean",
        "duty",
        "burst (cyc)",
        "I(disp)",
        "sim L",
        "ci95",
        "poisson model L",
        "burst model L",
        "state",
    ]);
    let mut csv = Csv::new(&[
        "peak_to_mean",
        "duty",
        "mean_on_cycles",
        "index_of_dispersion",
        "sim_latency",
        "sim_ci95",
        "poisson_model_latency",
        "burst_model_latency",
        "sim_saturated",
    ]);

    for &(ptm, duty, on_cycles) in &shapes {
        let arrival = if ptm <= 1.0 {
            ArrivalProcess::Poisson
        } else {
            ArrivalProcess::Mmpp(MmppProfile::new(ptm, duty, on_cycles)?)
        };
        let iod = arrival.index_of_dispersion(lambda0);
        // Burst-corrected prediction: swap the injection queue's M/G/1 wait
        // for the G/G/1 wait at the MMPP's count dispersion. Downstream
        // channels see traffic smoothed by queueing, so the source queue —
        // fed raw by the bursty process — dominates the correction.
        let w01_burst = gg1::waiting_time_or_inf(lambda0, x01, scv01, iod);
        let burst_model = poisson_model.total - w01 + w01_burst;
        let traffic = TrafficConfig::from_flit_load(flit_load, s)?.with_arrival(arrival);
        let r = run_simulation(&router, &cfg, &traffic);
        tbl.row(vec![
            num(ptm, 1),
            num(duty, 2),
            num(on_cycles, 0),
            num(iod, 2),
            num(r.avg_latency, 2),
            num(r.latency_ci95, 2),
            num(poisson_model.total, 2),
            if burst_model.is_finite() {
                num(burst_model, 2)
            } else {
                "SAT".to_string()
            },
            if r.saturated { "saturated" } else { "stable" }.to_string(),
        ]);
        csv.row(&[
            ptm.to_string(),
            duty.to_string(),
            on_cycles.to_string(),
            format!("{iod:.3}"),
            format!("{:.3}", r.avg_latency),
            format!("{:.3}", r.latency_ci95),
            format!("{:.3}", poisson_model.total),
            if burst_model.is_finite() {
                format!("{burst_model:.3}")
            } else {
                "saturated".into()
            },
            r.saturated.to_string(),
        ]);
    }

    out.section(tbl.render());
    ctx.write_csv(&csv, "bursty_latency.csv", &mut out);
    out.section(
        "Expected shape: simulated latency grows with the index of dispersion while \
         the Poisson model stays flat (it only sees the mean rate); the Kingman-corrected \
         source queue recovers much of the gap at moderate burstiness. Longer bursts at \
         the same peak ratio disperse counts further and hurt more.",
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bursty_runs_and_shows_burst_penalty() {
        let ctx = ExperimentContext::quick();
        let out = run(&ctx).unwrap();
        assert!(out.report.contains("peak/mean"));
        assert!(out.report.contains("stable"));
        // The report must contain both the Poisson row and a bursty row.
        assert!(out.report.contains("I(disp)"));
    }
}
