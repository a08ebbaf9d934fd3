//! Observability demo — `repro trace`.
//!
//! Runs one observed simulation (butterfly fat-tree, loaded regime,
//! two lanes) with the full worm-lifecycle event sink attached, renders
//! the per-level channel utilization/stall breakdown and the stall-cause
//! summary, and — when an output directory is configured — writes the
//! event stream twice:
//!
//! * `trace.jsonl` — one JSON object per worm-lifecycle event;
//! * `trace_chrome.json` — Chrome `trace_event` format, loadable in
//!   `about:tracing` or Perfetto (one track per worm, inject→deliver
//!   slices with route/grant/stall/drain instants, 1 cycle = 1 µs).
//!
//! The model side is demonstrated too: the cyclic-ring fixed point is
//! solved with its convergence trace captured (plain and accelerated,
//! showing damping and Aitken Δ² activity), and the fat-tree spec's
//! per-station breakdown table is rendered from the same solve.

use super::{ExperimentContext, ExperimentOutput};
use crate::error::ExperimentError;
use crate::table::{num, Table};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use wormsim_core::framework::{bft_spec, ring_spec, WarmStart};
use wormsim_core::options::ModelOptions;
use wormsim_obs::export::{events_to_chrome_trace, events_to_jsonl};
use wormsim_obs::{ModelTelemetry, StallCause};
use wormsim_sim::config::{
    EngineKind, LaneAllocatorKind, LaneConfig, ObsConfig, SimConfig, TrafficConfig,
};
use wormsim_sim::router::BftRouter;
use wormsim_sim::runner::run_simulation_observed;
use wormsim_topology::bft::{BftParams, ButterflyFatTree};

/// A short config: the trace artifact demonstrates the instrumentation,
/// it is not a statistical estimator, so the run stays small enough that
/// the JSONL stays in the low megabytes.
fn trace_cfg(ctx: &ExperimentContext) -> SimConfig {
    SimConfig {
        warmup_cycles: if ctx.quick { 500 } else { 1_000 },
        measure_cycles: if ctx.quick { 4_000 } else { 8_000 },
        drain_cap_cycles: 40_000,
        seed: ctx.seed,
        batches: 4,
    }
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates any [`ExperimentError`] raised while building the topology
/// or traffic, or when the observer snapshot is missing.
#[allow(clippy::too_many_lines)]
pub fn run(ctx: &ExperimentContext) -> Result<ExperimentOutput, ExperimentError> {
    let mut out = ExperimentOutput::new("trace");
    let n = 64usize;
    let flit_load = 0.1;
    let worm_flits = 16u32;
    let lanes = 2u32;

    let tree = ButterflyFatTree::new(BftParams::paper(n)?);
    let router = BftRouter::new(&tree);
    let cfg = trace_cfg(ctx);
    let traffic = TrafficConfig::from_flit_load(flit_load, worm_flits)?;
    let lc = LaneConfig::new(lanes, LaneAllocatorKind::FirstFree)?;
    let result = run_simulation_observed(
        &router,
        &cfg,
        &traffic,
        &lc,
        EngineKind::FastForward,
        &ObsConfig::full(),
    );
    let snap = result.obs.as_ref().ok_or_else(|| {
        ExperimentError::Invalid("observer snapshot missing from an observed run".into())
    })?;

    out.section(format!(
        "Observed run: BFT N={n}, load {flit_load} flits/cycle/PE, s={worm_flits}, L={lanes} \
         (first-free), seed {:#x}.\n\
         {} cycles ({} not individually walked), {} worms injected, {} delivered, \
         {} events captured ({} dropped).",
        cfg.seed,
        snap.cycles,
        result.cycles_skipped,
        snap.injected,
        snap.delivered,
        snap.events.len(),
        snap.events_dropped,
    ));
    match snap.check_conservation() {
        Ok(()) => out.section(
            "Conservation: per channel busy + stalled + idle = cycles, \
             Σ lane grants = Σ worm hops — OK.",
        ),
        Err(e) => out.section(format!("[warn] conservation violated: {e}")),
    }

    // ---- Per-class (per-level) utilization/stall table, aggregated over
    // the physical channels of each topological class. ----
    let net = tree.network();
    let mut by_class: BTreeMap<String, (u64, u64, u64, u64, u64)> = BTreeMap::new();
    for (ch, usage) in net.channels().iter().zip(&snap.channels) {
        let e = by_class.entry(ch.class.to_string()).or_default();
        e.0 += 1;
        e.1 += usage.busy_cycles;
        e.2 += usage.stalled_cycles;
        e.3 += usage.idle_cycles;
        e.4 += usage.grants;
    }
    let mut tbl = Table::new(vec![
        "class",
        "channels",
        "util %",
        "stalled %",
        "idle %",
        "grants",
    ]);
    for (class, (count, busy, stalled, idle, grants)) in &by_class {
        let denom = (*count as f64) * snap.cycles as f64;
        tbl.row(vec![
            class.clone(),
            count.to_string(),
            num(100.0 * *busy as f64 / denom, 2),
            num(100.0 * *stalled as f64 / denom, 2),
            num(100.0 * *idle as f64 / denom, 2),
            grants.to_string(),
        ]);
    }
    out.section("Per-level channel usage (busy/stalled/idle fractions of all cycles):");
    out.section(tbl.render());

    // ---- Stall causes and lane balance. ----
    let mut stall = String::from("Stall observations by cause:\n");
    for (cause, count) in [
        (StallCause::LinkBusy, snap.stalls_link_busy),
        (StallCause::NoFreeLane, snap.stalls_no_free_lane),
        (StallCause::FcfsQueued, snap.stalls_fcfs_queued),
        (StallCause::DeadLink, snap.stalls_dead_link),
    ] {
        let _ = writeln!(stall, "  {:<13} {count}", cause.label(),);
    }
    let _ = write!(stall, "  total         {}", snap.total_stalls());
    out.section(stall);
    let mut lane_tbl = Table::new(vec!["lane", "grants", "mean hold"]);
    for (idx, l) in snap.lanes.iter().enumerate() {
        lane_tbl.row(vec![
            idx.to_string(),
            l.grants.to_string(),
            num(l.held_cycles as f64 / l.grants.max(1) as f64, 2),
        ]);
    }
    out.section("Per-lane-index grants (aggregated over channels):");
    out.section(lane_tbl.render());

    // ---- Model telemetry: cyclic-ring convergence trace. ----
    let opts = ModelOptions::paper();
    let ring = ring_spec(16, f64::from(worm_flits))?;
    let mut plain_tel = ModelTelemetry::default();
    let mut accel_tel = ModelTelemetry::default();
    let plain_ok = ring.solve(0.002, &opts, None, Some(&mut plain_tel)).is_ok();
    let accel_ok = ring
        .solve(
            0.002,
            &opts,
            Some(&mut WarmStart::new()),
            Some(&mut accel_tel),
        )
        .is_ok();
    if plain_ok && accel_ok {
        out.section(format!(
            "Solver telemetry (16-ring, the cyclic exemplar): plain damped iteration \
             converged in {} evaluations (final residual {:.2e}); accelerated in {} \
             evaluations with {} Aitken Δ² steps accepted, {} rejected.",
            plain_tel.solver.len(),
            plain_tel.solver.final_residual,
            accel_tel.solver.len(),
            accel_tel.solver.aitken_accepts(),
            accel_tel.solver.aitken_rejects(),
        ));
        let mut conv = Table::new(vec!["evaluation", "residual", "damping", "aitken"]);
        let samples = &accel_tel.solver.samples;
        let shown: Vec<usize> = if samples.len() <= 8 {
            (0..samples.len()).collect()
        } else {
            (0..4).chain(samples.len() - 4..samples.len()).collect()
        };
        let mut prev = None;
        for i in shown {
            if let Some(p) = prev {
                if i != p + 1 {
                    conv.row(vec!["...", "...", "...", "..."]);
                }
            }
            prev = Some(i);
            let s = &samples[i];
            conv.row(vec![
                s.evaluation.to_string(),
                format!("{:.3e}", s.residual),
                num(s.damping, 3),
                s.aitken.label().to_string(),
            ]);
        }
        out.section("Accelerated convergence trace (first/last evaluations):");
        out.section(conv.render());
    } else {
        out.section("[warn] ring solve failed; no solver telemetry");
    }

    // ---- Per-station breakdown of the fat-tree spec at this run's
    // operating point (same lanes as the simulation). ----
    let lambda0 = flit_load / f64::from(worm_flits);
    let spec = bft_spec(&BftParams::paper(n)?, f64::from(worm_flits))?;
    let mut bft_tel = ModelTelemetry::default();
    match spec.solve(lambda0, &opts.with_lanes(lanes), None, Some(&mut bft_tel)) {
        Ok(_) => {
            let mut st = Table::new(vec![
                "station",
                "lambda",
                "m",
                "x-bar",
                "wait",
                "residence",
                "util",
                "inbound blk",
            ]);
            for row in &bft_tel.stations {
                st.row(vec![
                    row.name.clone(),
                    format!("{:.5}", row.lambda),
                    row.servers.to_string(),
                    num(row.service_time, 2),
                    num(row.waiting_time, 2),
                    num(row.residence, 2),
                    num(row.utilization, 3),
                    num(row.inbound_blocking, 3),
                ]);
            }
            out.section(format!(
                "Model per-station breakdown (BFT N={n}, λ0={lambda0:.5}, L={lanes}; \
                 the class graph is a DAG, so the solver trace is empty):"
            ));
            out.section(st.render());
        }
        Err(e) => out.section(format!("[warn] BFT spec solve failed: {e}")),
    }

    // ---- Artifacts. ----
    if let Some(dir) = &ctx.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            out.report.push_str(&format!(
                "\n[warn] failed to create {}: {e}\n",
                dir.display()
            ));
        } else {
            let jsonl = dir.join("trace.jsonl");
            let chrome = dir.join("trace_chrome.json");
            match std::fs::write(&jsonl, events_to_jsonl(&snap.events)) {
                Ok(()) => out.artifacts.push(jsonl),
                Err(e) => out
                    .report
                    .push_str(&format!("\n[warn] failed to write trace.jsonl: {e}\n")),
            }
            let label = format!("wormsim bft{n} load={flit_load} L={lanes}");
            match std::fs::write(&chrome, events_to_chrome_trace(&snap.events, &[], &label)) {
                Ok(()) => out.artifacts.push(chrome),
                Err(e) => out.report.push_str(&format!(
                    "\n[warn] failed to write trace_chrome.json: {e}\n"
                )),
            }
            out.section(
                "Artifacts: trace.jsonl (one event per line) and trace_chrome.json \
                 (open in about:tracing or ui.perfetto.dev).",
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim_obs::export::json_is_well_formed;

    #[test]
    fn quick_trace_writes_valid_artifacts_and_reports_conservation() {
        let dir = std::env::temp_dir().join(format!("wormsim_trace_{}", std::process::id()));
        let ctx = ExperimentContext {
            quick: true,
            out_dir: Some(dir.clone()),
            seed: 11,
        };
        let out = run(&ctx).unwrap();
        assert_eq!(out.artifacts.len(), 2, "report:\n{}", out.report);
        assert!(out.report.contains("Conservation"));
        assert!(!out.report.contains("[warn]"), "report:\n{}", out.report);
        assert!(out.report.contains("Aitken"));
        assert!(out.report.contains("inbound blk"));

        let jsonl = std::fs::read_to_string(dir.join("trace.jsonl")).unwrap();
        assert!(!jsonl.is_empty());
        for (lineno, line) in jsonl.lines().enumerate() {
            assert!(
                json_is_well_formed(line),
                "trace.jsonl line {lineno} malformed: {line}"
            );
        }
        assert!(jsonl.contains("\"ev\":\"inject\""));
        assert!(jsonl.contains("\"ev\":\"lane_grant\""));
        assert!(jsonl.contains("\"ev\":\"deliver\""));

        let chrome = std::fs::read_to_string(dir.join("trace_chrome.json")).unwrap();
        assert!(
            json_is_well_formed(&chrome),
            "trace_chrome.json is not valid JSON"
        );
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"ph\":\"B\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_without_out_dir_still_reports() {
        let out = run(&ExperimentContext::quick()).unwrap();
        assert!(out.artifacts.is_empty());
        assert!(out.report.contains("Per-level channel usage"));
    }
}
