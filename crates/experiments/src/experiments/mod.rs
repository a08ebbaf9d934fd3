//! Experiment registry: one module per reproduced figure/table.

use crate::error::ExperimentError;
use std::path::PathBuf;

pub mod ablations;
pub mod bursty;
pub mod channel_audit;
pub mod enumerated_mesh;
pub mod extension_mgm;
pub mod faults;
pub mod fig2;
pub mod fig3;
pub mod framework_demo;
pub mod hotspot;
pub mod knee;
pub mod lanes;
pub mod scaling;
pub mod tail_latency;
pub mod throughput;
pub mod timeline;
pub mod trace;

/// Shared experiment knobs.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// Reduced statistical effort: smaller networks / shorter windows /
    /// fewer points. Used by CI and the integration tests.
    pub quick: bool,
    /// Where CSV artifacts go (`None` disables CSV output).
    pub out_dir: Option<PathBuf>,
    /// Base RNG seed for the simulations.
    pub seed: u64,
}

impl Default for ExperimentContext {
    fn default() -> Self {
        Self {
            quick: false,
            out_dir: None,
            seed: 0xC0FFEE,
        }
    }
}

impl ExperimentContext {
    /// Quick-mode context (what `--quick` sets).
    #[must_use]
    pub fn quick() -> Self {
        Self {
            quick: true,
            ..Self::default()
        }
    }

    /// Simulation config matched to the context's effort level.
    #[must_use]
    pub fn sim_config(&self) -> wormsim_sim::config::SimConfig {
        if self.quick {
            wormsim_sim::config::SimConfig {
                warmup_cycles: 3_000,
                measure_cycles: 12_000,
                drain_cap_cycles: 40_000,
                seed: self.seed,
                batches: 8,
            }
        } else {
            wormsim_sim::config::SimConfig {
                warmup_cycles: 20_000,
                measure_cycles: 60_000,
                drain_cap_cycles: 150_000,
                seed: self.seed,
                batches: 12,
            }
        }
    }

    /// Writes a CSV artifact if an output directory is configured.
    pub fn write_csv(&self, csv: &crate::csv::Csv, name: &str, out: &mut ExperimentOutput) {
        if let Some(dir) = &self.out_dir {
            match csv.write_to(dir, name) {
                Ok(path) => out.artifacts.push(path),
                Err(e) => out
                    .report
                    .push_str(&format!("\n[warn] failed to write {name}: {e}\n")),
            }
        }
    }
}

/// What an experiment produced.
#[derive(Debug, Clone, Default)]
pub struct ExperimentOutput {
    /// Experiment id.
    pub name: String,
    /// Human-readable report (tables + plots).
    pub report: String,
    /// CSV files written (when an out dir was configured).
    pub artifacts: Vec<PathBuf>,
}

impl ExperimentOutput {
    /// Starts an output for `name`.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            ..Self::default()
        }
    }

    /// Appends a paragraph to the report.
    pub fn section(&mut self, text: impl AsRef<str>) {
        self.report.push_str(text.as_ref());
        if !text.as_ref().ends_with('\n') {
            self.report.push('\n');
        }
        self.report.push('\n');
    }
}

/// Experiment function type: every runner is total over its inputs and
/// reports failures as a typed [`ExperimentError`] instead of panicking.
pub type ExperimentFn = fn(&ExperimentContext) -> Result<ExperimentOutput, ExperimentError>;

/// The registry: `(id, runner, description)`.
pub const EXPERIMENTS: &[(&str, ExperimentFn, &str)] = &[
    (
        "fig2",
        fig2::run,
        "Figure 2: the 64-processor butterfly fat-tree topology",
    ),
    (
        "fig3",
        fig3::run,
        "Figure 3: latency vs load, model & simulation, N=1024, s in {16,32,64}",
    ),
    (
        "scaling",
        scaling::run,
        "S3.6: model accuracy across N in {64,256,1024}",
    ),
    (
        "throughput",
        throughput::run,
        "S3.5/Eq. 26: saturation throughput, model vs simulation",
    ),
    (
        "framework-demo",
        framework_demo::run,
        "Figure 1/S2: the general model applied to a hypercube, vs simulation",
    ),
    (
        "ablation-servers",
        ablations::run_servers,
        "Ablation A1: M/G/2 up-link bundles vs independent M/G/1",
    ),
    (
        "ablation-blocking",
        ablations::run_blocking,
        "Ablation A2: Eq. 10 blocking correction on/off",
    ),
    (
        "extension-mgm",
        extension_mgm::run,
        "Extension A3: M/G/p for (c,p) fat-trees, p in {1,2,4}",
    ),
    (
        "enumerated-mesh",
        enumerated_mesh::run,
        "Extension A4: automatic per-channel model for a mesh (no symmetry), vs simulation",
    ),
    (
        "tail-latency",
        tail_latency::run,
        "Extension A5: latency percentiles under load (what the mean-value model conceals)",
    ),
    (
        "channel-audit",
        channel_audit::run,
        "Validity V1: per-level rates and service times vs Eqs. 14-24",
    ),
    (
        "hotspot",
        hotspot::run,
        "Workload W1: hot-spot traffic, flow-vector model vs simulation, plus a beta sweep",
    ),
    (
        "bursty",
        bursty::run,
        "Workload W2: MMPP bursty sources vs the Poisson and burst-corrected models",
    ),
    (
        "lanes",
        lanes::run,
        "Lanes L1: virtual-channel lanes, multi-lane model vs sim for L in {1,2,4}",
    ),
    (
        "trace",
        trace::run,
        "Obs O1: worm-lifecycle trace (JSONL + Chrome trace_event), per-level usage, solver telemetry",
    ),
    (
        "timeline",
        timeline::run,
        "Obs O2: windowed time series (throughput/latency/busy/stall per window), MSER-5 steady state, Chrome counter tracks",
    ),
    (
        "faults",
        faults::run,
        "Robustness R1: seeded link knockouts — degraded model vs sim, latency & saturation vs failure fraction",
    ),
    (
        "knee",
        knee::run,
        "Robustness R2: bracketed saturation knees vs N, lanes and failure fraction, validated against sim throughput",
    ),
];

/// Runs an experiment by id.
///
/// # Errors
///
/// [`ExperimentError::UnknownExperiment`] (listing the known ids) when
/// `name` is not registered; otherwise whatever the runner reports.
pub fn run_by_name(
    name: &str,
    ctx: &ExperimentContext,
) -> Result<ExperimentOutput, ExperimentError> {
    for (id, f, _) in EXPERIMENTS {
        if *id == name {
            return f(ctx);
        }
    }
    Err(ExperimentError::UnknownExperiment {
        name: name.to_string(),
        known: EXPERIMENTS
            .iter()
            .map(|(id, _, _)| *id)
            .collect::<Vec<_>>()
            .join(", "),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_documented() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _, _)| *id).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate experiment ids");
        for (_, _, desc) in EXPERIMENTS {
            assert!(!desc.is_empty());
        }
    }

    #[test]
    fn unknown_name_lists_alternatives() {
        let err = run_by_name("nope", &ExperimentContext::quick()).unwrap_err();
        assert!(matches!(err, ExperimentError::UnknownExperiment { .. }));
        assert!(err.to_string().contains("fig3"));
    }

    #[test]
    fn context_configs_differ_by_effort() {
        let q = ExperimentContext::quick().sim_config();
        let f = ExperimentContext::default().sim_config();
        assert!(q.measure_cycles < f.measure_cycles);
    }
}
