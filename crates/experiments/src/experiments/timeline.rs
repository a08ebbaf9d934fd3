//! Time-resolved telemetry demo — `repro timeline`.
//!
//! Runs one observed simulation (butterfly fat-tree, loaded regime) with
//! the windowed [`wormsim_obs::TimeSeries`] sampler attached, reconciles
//! the per-window sums against the run totals, detects the steady-state
//! truncation point with MSER-5, and — when an output directory is
//! configured — writes:
//!
//! * `timeline.csv` — one row per window: start cycle, injected,
//!   delivered, throughput, mean latency, busy/stall fractions, in-flight
//!   count;
//! * `timeline_chrome.json` — the worm-lifecycle trace plus `"ph":"C"`
//!   counter tracks (throughput, in-flight, busy/stall fractions),
//!   loadable in `about:tracing` or Perfetto as stacked counter plots
//!   above the per-worm slices.

use super::{ExperimentContext, ExperimentOutput};
use crate::csv::Csv;
use crate::error::ExperimentError;
use crate::table::{num, Table};
use wormsim_obs::export::{events_to_chrome_trace, CounterSample, CounterTrack};
use wormsim_obs::{detect_steady_state, Histogram};
use wormsim_sim::config::{
    EngineKind, LaneAllocatorKind, LaneConfig, ObsConfig, SimConfig, TrafficConfig,
};
use wormsim_sim::router::BftRouter;
use wormsim_sim::runner::run_simulation_observed;
use wormsim_topology::bft::{BftParams, ButterflyFatTree};

/// A run long enough for the MSER-5 detector to see the warmup ramp and a
/// steady tail, short enough that the full event stream stays small.
fn timeline_cfg(ctx: &ExperimentContext) -> SimConfig {
    SimConfig {
        warmup_cycles: if ctx.quick { 1_000 } else { 2_000 },
        measure_cycles: if ctx.quick { 7_000 } else { 18_000 },
        drain_cap_cycles: 60_000,
        seed: ctx.seed,
        batches: 4,
    }
}

/// Window width: coarse enough that a loaded window delivers tens of
/// worms (a stable throughput sample), fine enough for 60+ windows.
fn window_cycles(ctx: &ExperimentContext) -> u64 {
    if ctx.quick {
        100
    } else {
        250
    }
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates any [`ExperimentError`] raised while building the topology
/// or traffic, when the observer snapshot or time series is missing, or
/// when the per-window sums fail to reconcile with the run totals.
#[allow(clippy::too_many_lines)]
pub fn run(ctx: &ExperimentContext) -> Result<ExperimentOutput, ExperimentError> {
    let mut out = ExperimentOutput::new("timeline");
    let n = 64usize;
    let flit_load = 0.1;
    let worm_flits = 16u32;
    let window = window_cycles(ctx);

    let tree = ButterflyFatTree::new(BftParams::paper(n)?);
    let router = BftRouter::new(&tree);
    let cfg = timeline_cfg(ctx);
    let traffic = TrafficConfig::from_flit_load(flit_load, worm_flits)?;
    let lc = LaneConfig::new(1, LaneAllocatorKind::FirstFree)?;
    let obs = ObsConfig::full().with_time_series(window);
    let result =
        run_simulation_observed(&router, &cfg, &traffic, &lc, EngineKind::FastForward, &obs);
    let snap = result.obs.as_ref().ok_or_else(|| {
        ExperimentError::Invalid("observer snapshot missing from an observed run".into())
    })?;
    let ts = snap.time_series.as_ref().ok_or_else(|| {
        ExperimentError::Invalid("time series missing from a windowed observed run".into())
    })?;

    out.section(format!(
        "Windowed run: BFT N={n}, load {flit_load} flits/cycle/PE, s={worm_flits}, seed {:#x}.\n\
         {} cycles in {} windows of {window} cycles ({} evicted into the aggregate); \
         {} worms injected, {} delivered.",
        cfg.seed,
        ts.cycles,
        ts.windows.len(),
        ts.evicted_windows,
        snap.injected,
        snap.delivered,
    ));

    // ---- Reconcile the windowed sums against the run totals: the same
    // conservation law check_conservation() enforces, surfaced here so the
    // report carries the evidence. ----
    match snap.check_conservation() {
        Ok(()) => out.section(format!(
            "Reconciliation: Σ per-window delivered = {} = run total; \
             Σ busy channel-cycles = {}; Σ stalled = {} — exact.",
            ts.total_delivered(),
            ts.total_busy_cycles(),
            ts.total_stalled_cycles(),
        )),
        Err(e) => {
            return Err(ExperimentError::Invalid(format!(
                "windowed conservation violated: {e}"
            )))
        }
    }

    // ---- Steady-state detection. ----
    let steady = detect_steady_state(ts);
    match &steady {
        Some(ss) => out.section(format!(
            "Steady state (MSER-5 over per-window throughput): warmup = {} windows \
             = {} cycles{}.\n\
             Steady throughput {:.4} ± {:.4} worms/cycle; steady mean latency {} \
             vs whole-run {} cycles.",
            ss.warmup_windows,
            ss.warmup_cycles,
            if ss.well_determined {
                ""
            } else {
                " (NOT well determined: minimum at the half-series boundary)"
            },
            ss.throughput_mean,
            ss.throughput_std,
            ss.steady_latency.map_or("n/a".to_string(), |l| num(l, 2)),
            ss.whole_run_latency
                .map_or("n/a".to_string(), |l| num(l, 2)),
        )),
        None => out.section("Steady state: series too short for MSER-5 (needs ≥ 2 batches)."),
    }

    // ---- Tail quantiles from the upgraded log-linear histogram. ----
    if snap.latency.count() > 0 {
        let q = |p: f64| {
            snap.latency
                .quantile_upper_bound(p)
                .map_or("n/a".to_string(), |v| v.to_string())
        };
        out.section(format!(
            "Delivered-latency quantiles (log-linear histogram, ≤ {:.2}% relative error): \
             p50 ≤ {}, p90 ≤ {}, p99 ≤ {}, p99.9 ≤ {}, max {}.",
            100.0 * Histogram::RELATIVE_ERROR_BOUND,
            q(0.5),
            q(0.9),
            q(0.99),
            q(0.999),
            snap.latency.max().map_or(0, |v| v),
        ));
    }

    // ---- A windows table: first and last few, enough to see the ramp. ----
    let mut tbl = Table::new(vec![
        "window",
        "start",
        "inj",
        "dlv",
        "thr",
        "latency",
        "busy %",
        "stall %",
        "in flight",
    ]);
    let shown: Vec<usize> = if ts.windows.len() <= 10 {
        (0..ts.windows.len()).collect()
    } else {
        (0..5)
            .chain(ts.windows.len() - 5..ts.windows.len())
            .collect()
    };
    let mut prev = None;
    for i in shown {
        if let Some(p) = prev {
            if i != p + 1 {
                tbl.row(vec!["..."; 9]);
            }
        }
        prev = Some(i);
        let w = &ts.windows[i];
        tbl.row(vec![
            w.index.to_string(),
            w.start_cycle(ts.window_cycles).to_string(),
            w.injected.to_string(),
            w.delivered.to_string(),
            num(ts.throughput(w), 3),
            w.mean_latency().map_or("-".to_string(), |l| num(l, 1)),
            num(100.0 * ts.busy_fraction(w), 1),
            num(100.0 * ts.stall_fraction(w), 1),
            w.in_flight_at_end.to_string(),
        ]);
    }
    out.section("Per-window series (first/last windows):");
    out.section(tbl.render());

    // ---- Artifacts. ----
    if let Some(dir) = &ctx.out_dir {
        let mut csv = Csv::new(&[
            "window",
            "start_cycle",
            "cycles",
            "injected",
            "delivered",
            "unroutable",
            "throughput",
            "mean_latency",
            "busy_fraction",
            "stall_fraction",
            "in_flight_at_end",
        ]);
        for w in &ts.windows {
            csv.row(&[
                w.index.to_string(),
                w.start_cycle(ts.window_cycles).to_string(),
                ts.window_span(w).to_string(),
                w.injected.to_string(),
                w.delivered.to_string(),
                w.unroutable.to_string(),
                format!("{:.6}", ts.throughput(w)),
                w.mean_latency()
                    .map_or(String::new(), |l| format!("{l:.3}")),
                format!("{:.6}", ts.busy_fraction(w)),
                format!("{:.6}", ts.stall_fraction(w)),
                w.in_flight_at_end.to_string(),
            ]);
        }
        ctx.write_csv(&csv, "timeline.csv", &mut out);

        // Chrome counter tracks: one sample per window at its start cycle
        // (the viewer step-interpolates to the next sample).
        let throughput_track = CounterTrack {
            name: "throughput (worms/cycle)".to_string(),
            samples: ts
                .windows
                .iter()
                .map(|w| CounterSample {
                    t: w.start_cycle(ts.window_cycles),
                    values: vec![("delivered".to_string(), ts.throughput(w))],
                })
                .collect(),
        };
        let inflight_track = CounterTrack {
            name: "in flight (worms)".to_string(),
            samples: ts
                .windows
                .iter()
                .map(|w| CounterSample {
                    t: w.start_cycle(ts.window_cycles),
                    values: vec![("in_flight".to_string(), w.in_flight_at_end as f64)],
                })
                .collect(),
        };
        let channel_track = CounterTrack {
            name: "channel fractions".to_string(),
            samples: ts
                .windows
                .iter()
                .map(|w| CounterSample {
                    t: w.start_cycle(ts.window_cycles),
                    values: vec![
                        ("busy".to_string(), ts.busy_fraction(w)),
                        ("stalled".to_string(), ts.stall_fraction(w)),
                    ],
                })
                .collect(),
        };
        let chrome = dir.join("timeline_chrome.json");
        let label = format!("wormsim timeline bft{n} load={flit_load} W={window}");
        let counters = [throughput_track, inflight_track, channel_track];
        match std::fs::write(
            &chrome,
            events_to_chrome_trace(&snap.events, &counters, &label),
        ) {
            Ok(()) => out.artifacts.push(chrome),
            Err(e) => out.report.push_str(&format!(
                "\n[warn] failed to write timeline_chrome.json: {e}\n"
            )),
        }
        out.section(
            "Artifacts: timeline.csv (one row per window) and timeline_chrome.json \
             (counter tracks + worm slices; open in about:tracing or ui.perfetto.dev).",
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim_obs::export::json_is_well_formed;

    #[test]
    fn quick_timeline_reconciles_and_writes_valid_artifacts() {
        let dir = std::env::temp_dir().join(format!("wormsim_timeline_{}", std::process::id()));
        let ctx = ExperimentContext {
            quick: true,
            out_dir: Some(dir.clone()),
            seed: 13,
        };
        let out = run(&ctx).unwrap();
        assert_eq!(out.artifacts.len(), 2, "report:\n{}", out.report);
        assert!(out.report.contains("Reconciliation"), "{}", out.report);
        assert!(out.report.contains("exact"));
        assert!(out.report.contains("Steady state"));
        assert!(out.report.contains("p99.9"));
        assert!(!out.report.contains("[warn]"), "report:\n{}", out.report);

        let csv = std::fs::read_to_string(dir.join("timeline.csv")).unwrap();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("window,start_cycle,cycles,"));
        assert!(lines.count() >= 60, "expected 60+ windows");

        let chrome = std::fs::read_to_string(dir.join("timeline_chrome.json")).unwrap();
        assert!(json_is_well_formed(&chrome), "chrome trace malformed");
        assert!(chrome.contains("\"ph\":\"C\""), "counter samples present");
        assert!(chrome.contains("\"ph\":\"B\""), "worm slices retained");
        assert!(chrome.contains("in_flight"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timeline_without_out_dir_still_reports() {
        let out = run(&ExperimentContext::quick()).unwrap();
        assert!(out.artifacts.is_empty());
        assert!(out.report.contains("Per-window series"));
    }
}
