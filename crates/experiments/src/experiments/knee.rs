//! Experiment R2 — bracketed saturation knees across the design grid.
//!
//! For every (machine size, lane count, failure fraction) in the grid,
//! the guard layer brackets the analytical model's saturation knee
//! ([`FlowModelSweep::find_knee`]: geometric growth then bisection over
//! warm-started probes, the full escalation ladder behind every probe)
//! and the result is validated two ways:
//!
//! 1. **Totality** — the load axis is swept from 0 to 2× the bracketed
//!    knee through [`FlowModelSweep::outcome_at`]; every point must come
//!    back as a *typed* outcome (`Converged` below the knee, `Saturated`
//!    past it), never a panic, `NaN`, or a hard error.
//! 2. **Simulation** — a lanes-aware load scan (`find_saturation`)
//!    brackets the simulator's own delivered-throughput knee on the same
//!    fabric (same fault plan, same lane count), and the model knee is
//!    reported against the sim bracket `(last stable, first saturated)`.
//!
//! The emitted CSV (`knee_vs_n_lanes_faults.csv`) carries the
//! knee-vs-N / knee-vs-L / knee-vs-failure-fraction curves; `--quick`
//! shrinks the grid for CI.

use super::faults::connected_plan;
use super::{ExperimentContext, ExperimentOutput};
use crate::csv::Csv;
use crate::error::ExperimentError;
use crate::table::{num, Table};
use wormsim_core::bft::BftModel;
use wormsim_core::flows::FlowModelSweep;
use wormsim_core::options::ModelOptions;
use wormsim_faults::{FaultPlan, FaultedBft};
use wormsim_guard::{KneeConfig, SolveOutcome};
use wormsim_sim::config::{LaneAllocatorKind, LaneConfig, TrafficConfig};
use wormsim_sim::router::FaultedBftRouter;
use wormsim_sim::runner::find_saturation;
use wormsim_topology::bft::{BftParams, ButterflyFatTree};
use wormsim_workload::{DestinationPattern, FlowVector};

/// One grid point's results.
struct KneePoint {
    /// Bracketed model knee, flits/cycle/PE.
    model_knee: f64,
    /// Bisection probes spent.
    probes: usize,
    /// Typed-outcome sweep tallies over [0, 2× knee].
    converged: usize,
    saturated: usize,
    /// Simulator knee bracket (flits/cycle/PE).
    sim_last_stable: f64,
    sim_first_saturated: Option<f64>,
}

impl KneePoint {
    /// Relative deviation of the model knee from the sim bracket
    /// midpoint, percent (`None` until the sim scan found saturation).
    fn rel_dev_pct(&self) -> Option<f64> {
        let first = self.sim_first_saturated?;
        let mid = 0.5 * (self.sim_last_stable + first);
        (mid > 0.0).then(|| 100.0 * (self.model_knee - mid) / mid)
    }
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates any [`ExperimentError`] raised while building topologies,
/// fault plans, or bracketing knees. A *saturated* model point is never
/// an error — the sweep records it and continues — and a fraction for
/// which no connected knockout exists is reported as a skipped grid
/// point, not a failure.
#[allow(clippy::too_many_lines)]
pub fn run(ctx: &ExperimentContext) -> Result<ExperimentOutput, ExperimentError> {
    let mut out = ExperimentOutput::new("knee");
    let s = 16u32;
    let cfg = ctx.sim_config();

    let sizes: &[usize] = if ctx.quick {
        &[16, 64]
    } else {
        &[64, 256, 1024]
    };
    let lane_counts: &[u32] = if ctx.quick { &[1, 2] } else { &[1, 2, 4] };
    let fractions: &[f64] = &[0.0, 0.05];

    out.section(format!(
        "Saturation-knee atlas — butterfly fat-tree, s={s} flits, uniform \
         traffic, N ∈ {sizes:?}, lanes ∈ {lane_counts:?}, link-failure \
         fraction ∈ {fractions:?}.\n\
         Model knees are bracketed by bisection over warm-started probes \
         (guard layer); each knee is validated by sweeping typed outcomes \
         over [0, 2× knee] (totality) and against the simulator's \
         delivered-throughput knee on the same fabric. Base seed {:#x}.",
        ctx.seed
    ));

    let mut tbl = Table::new(vec![
        "N",
        "lanes",
        "fail frac",
        "model knee",
        "probes",
        "conv/sat",
        "sim stable",
        "sim saturated",
        "dev %",
    ]);
    let mut csv = Csv::new(&[
        "n",
        "lanes",
        "fail_fraction",
        "model_knee_flit_load",
        "probes",
        "sweep_converged",
        "sweep_saturated",
        "sim_last_stable",
        "sim_first_saturated",
        "rel_dev_pct",
    ]);

    let mut points: Vec<KneePoint> = Vec::new();
    for &n in sizes {
        let params = BftParams::paper(n)?;
        let tree = ButterflyFatTree::new(params);
        let pristine_knee = BftModel::new(params, f64::from(s)).saturation_flit_load()?;
        for &fraction in fractions {
            // The fault plan (empty at fraction 0) and the flow vector /
            // alive-server counts of the degraded fabric.
            let plan = if fraction > 0.0 {
                match connected_plan(&tree, fraction, ctx.seed) {
                    Ok((plan, seed, rejected)) => {
                        if rejected > 0 {
                            out.section(format!(
                                "[note] N={n}, fraction {fraction}: skipped {rejected} \
                                 disconnecting seed(s), using seed {seed:#x}."
                            ));
                        }
                        plan
                    }
                    // Graceful degradation: at large N a random `fraction`
                    // knockout may disconnect some PE under every tried
                    // seed (single-parent switches lose their only up
                    // link). That is a property of the fabric, not a bug —
                    // record the gap and keep sweeping the rest of the grid.
                    Err(ExperimentError::Invalid(msg)) => {
                        out.section(format!(
                            "[skip] N={n}, fraction {fraction}: {msg} — grid \
                             point skipped, sweep continues."
                        ));
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            } else {
                FaultPlan::none(tree.network())
            };
            let bft = FaultedBft::new(&tree, plan.clone())?;
            let flows = FlowVector::build(&bft, &DestinationPattern::Uniform)?;
            let alive = plan.alive_servers(tree.network());
            let router = FaultedBftRouter::new(&tree, plan.clone())?;

            for &lanes in lane_counts {
                let opts = ModelOptions::paper().with_lanes(lanes);
                let mut sweep = FlowModelSweep::new_with_servers(
                    tree.network(),
                    &flows,
                    f64::from(s),
                    Some(&alive),
                )?;
                // λ₀ bracket: 2% of the pristine knee is feasible on any
                // fabric in the grid; 4× covers every lane count.
                let knee_cfg = KneeConfig {
                    initial: 0.02 * pristine_knee / f64::from(s),
                    max: 4.0 * pristine_knee / f64::from(s),
                    rel_tolerance: 5e-3,
                    max_probes: 200,
                };
                let knee = sweep.find_knee(&opts, &knee_cfg)?;
                let model_knee = knee.knee * f64::from(s);

                // Totality sweep: 0 → 2× knee in 8 steps, every point a
                // typed outcome. A hard error here is a genuine bug (the
                // loads are finite and non-negative by construction).
                let (mut converged, mut saturated) = (0usize, 0usize);
                for i in 0..=8 {
                    let lambda0 = 0.25 * f64::from(i) * knee.knee;
                    match sweep.outcome_at(lambda0, &opts)? {
                        SolveOutcome::Converged(l) => {
                            if !l.total.is_finite() {
                                return Err(ExperimentError::Invalid(format!(
                                    "non-finite latency at λ₀={lambda0} (N={n}, L={lanes})"
                                )));
                            }
                            converged += 1;
                        }
                        SolveOutcome::Saturated | SolveOutcome::NoConvergence { .. } => {
                            saturated += 1;
                        }
                    }
                }

                // Simulator bracket on the same fabric and lane config.
                let lc = LaneConfig::new(lanes, LaneAllocatorKind::FirstFree)?;
                let (start, step) = if ctx.quick {
                    (0.6 * model_knee, 0.2 * model_knee)
                } else {
                    (0.5 * model_knee, 0.125 * model_knee)
                };
                let base = TrafficConfig::new(0.0, s)?;
                let (sim_last_stable, sim_first_saturated) =
                    find_saturation(&router, &cfg, &base, &lc, start, step, 2.0 * model_knee)?;

                let p = KneePoint {
                    model_knee,
                    probes: knee.probes,
                    converged,
                    saturated,
                    sim_last_stable,
                    sim_first_saturated,
                };
                tbl.row(vec![
                    n.to_string(),
                    lanes.to_string(),
                    num(fraction, 2),
                    num(p.model_knee, 4),
                    p.probes.to_string(),
                    format!("{}/{}", p.converged, p.saturated),
                    num(p.sim_last_stable, 4),
                    p.sim_first_saturated.map_or("-".to_string(), |v| num(v, 4)),
                    p.rel_dev_pct().map_or("-".to_string(), |v| num(v, 1)),
                ]);
                csv.row(&[
                    n.to_string(),
                    lanes.to_string(),
                    fraction.to_string(),
                    format!("{:.5}", p.model_knee),
                    p.probes.to_string(),
                    p.converged.to_string(),
                    p.saturated.to_string(),
                    format!("{:.5}", p.sim_last_stable),
                    p.sim_first_saturated
                        .map_or("-".into(), |v| format!("{v:.5}")),
                    p.rel_dev_pct().map_or("-".into(), |v| format!("{v:.2}")),
                ]);
                points.push(p);
            }
        }
    }

    out.section(tbl.render());
    ctx.write_csv(&csv, "knee_vs_n_lanes_faults.csv", &mut out);

    let validated = points
        .iter()
        .filter(|p| p.sim_first_saturated.is_some())
        .count();
    out.section(format!(
        "{} of {} grid points sim-validated (scan found the saturation \
         transition inside 2× the model knee). Expected shape: knees shrink \
         with N (deeper trees, hotter roots) and with the failure fraction \
         (thinner up-bundles), and never shrink when lanes are added.",
        validated,
        points.len(),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_brackets_every_knee_and_stays_total() {
        let dir = std::env::temp_dir().join(format!("wormsim_knee_{}", std::process::id()));
        let ctx = ExperimentContext {
            quick: true,
            out_dir: Some(dir.clone()),
            seed: 7,
        };
        let out = run(&ctx).unwrap();
        assert_eq!(out.artifacts.len(), 1, "report:\n{}", out.report);
        let body = std::fs::read_to_string(dir.join("knee_vs_n_lanes_faults.csv")).unwrap();
        let rows: Vec<&str> = body.lines().skip(1).collect();
        // quick grid: 2 sizes × 2 fractions × 2 lane counts.
        assert_eq!(rows.len(), 8, "csv:\n{body}");
        for row in &rows {
            let cols: Vec<&str> = row.split(',').collect();
            assert_eq!(cols.len(), 10, "row: {row}");
            let knee: f64 = cols[3].parse().expect("knee parses");
            assert!(knee > 0.0 && knee.is_finite(), "bad knee in {row}");
            // Totality: 9 sweep points, all typed, none lost.
            let conv: usize = cols[5].parse().unwrap();
            let sat: usize = cols[6].parse().unwrap();
            assert_eq!(conv + sat, 9, "outcome lost in {row}");
            // The 2×-knee endpoint must be past the knee, load 0 below it.
            assert!(conv >= 1, "zero-load point must converge: {row}");
            assert!(sat >= 1, "2x-knee point must saturate: {row}");
            // Sim scan found the transition, bracketing the model knee
            // loosely (quick windows are short).
            let first_sat: f64 = cols[8].parse().expect("sim found saturation");
            let last_stable: f64 = cols[7].parse().unwrap();
            assert!(first_sat > last_stable);
            assert!(
                knee <= 2.0 * first_sat && knee >= 0.4 * last_stable.max(first_sat * 0.25),
                "model knee {knee} far outside sim bracket ({last_stable}, {first_sat}): {row}"
            );
        }
        // Physical monotonicity of the model knees: knocking out 5% of
        // the links never raises the knee; adding lanes never lowers it.
        let knee_of = |n: &str, l: &str, f: &str| -> f64 {
            rows.iter()
                .map(|r| r.split(',').collect::<Vec<_>>())
                .find(|c| c[0] == n && c[1] == l && c[2] == f)
                .expect("grid point present")[3]
                .parse()
                .unwrap()
        };
        for n in ["16", "64"] {
            for l in ["1", "2"] {
                assert!(knee_of(n, l, "0.05") <= knee_of(n, l, "0") * 1.001);
            }
            for f in ["0", "0.05"] {
                assert!(knee_of(n, "2", f) >= knee_of(n, "1", f) * 0.999);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
